import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qreset

from qreset import cli
from qreset.cli import main
from qreset.observables import fidelity, purity
from qreset.serialize import save_matrix
from qreset.twospin import TwoSpinParams, hamiltonian


def run(args):
    return main(args)


def read(path):
    return path.read_bytes()


def run_process(args, timeout):
    """Run the CLI in a fresh interpreter; fails the test if it is still
    running after ``timeout`` seconds."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(qreset.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "qreset.cli", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestNess:
    def test_two_spin_point(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        assert run(["ness", "--R", "1", "--alpha", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,alpha,t,entropy,fidelity,purity,concurrence"
        cells = lines[1].split(",")
        assert float(cells[4]) == pytest.approx(59.0 / 72.0, abs=1e-12)

    def test_physical_flags(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run(["ness", "--R", "0.5", "--alpha", "2", "--out", str(out_a)]) == 0
        assert run(
            ["ness", "--omega", "2", "--j", "4", "--r", "1", "--out", str(out_b)]
        ) == 0
        assert read(out_a) == read(out_b)

    def test_rejects_mixed_flag_styles(self):
        assert run(["ness", "--R", "1", "--omega", "1"]) == 4

    def test_rejects_zero_rate(self):
        assert run(["ness", "--R", "0"]) == 4

    def test_generic_hamiltonian(self, tmp_path):
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        out = tmp_path / "report.json"
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        save_matrix(hamiltonian(p), hpath)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[3, 3] = 1.0
        save_matrix(rho0, rpath)
        rc = run(
            [
                "ness",
                "--hamiltonian", str(hpath),
                "--rho0", str(rpath),
                "--r", "1.0",
                "--split", "2:2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["dim"] == 4
        assert report["purity"] == pytest.approx(59.0 / 72.0, abs=1e-10)
        assert report["fidelity_rho0"] == pytest.approx(59.0 / 72.0, abs=1e-8)
        assert report["concurrence"] == pytest.approx(0.2035801390, abs=1e-8)
        assert len(report["ness_matrix"]) == 16

    def test_generic_rejects_invalid_rho0(self, tmp_path):
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        save_matrix(np.diag([1.0, -1.0]).astype(complex), hpath)
        save_matrix(np.diag([0.7, 0.7]).astype(complex), rpath)  # trace 1.4
        assert run(
            ["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "1"]
        ) == 4

    @pytest.mark.parametrize("doc", [
        {"dim": True, "matrix": [[1.0, 0.0]]},
        {"dim": 1, "matrix": [[True, False]]},
    ])
    def test_generic_rejects_boolean_documents(self, tmp_path, capsys, doc):
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        hpath.write_text(json.dumps(doc))
        save_matrix(np.eye(1, dtype=complex), rpath)
        rc = run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "1"])
        assert rc == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_generic_rejects_non_hermitian_whose_norm_overflows(self, tmp_path):
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        hpath.write_text(
            '{"dim": 2, "matrix": [[1e300, 0], [1e300, 0], [-1e300, 0], [1e300, 0]]}')
        save_matrix(np.diag([1.0, 0.0]).astype(complex), rpath)
        proc = run_process(
            ["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "1"],
            timeout=30)
        assert proc.returncode == 4
        assert proc.stdout == ""
        # the error line and nothing else: no numpy overflow warning
        assert proc.stderr.startswith("error: hamiltonian is not Hermitian")
        assert proc.stderr.count("\n") == 1

    def test_huge_coupling_writes_nothing_to_stderr(self):
        proc = run_process(["ness", "--R", "1", "--alpha", "1e200",
                            "--observables", "purity,concurrence"], timeout=30)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_generic_validates_the_stationary_state_once(self, tmp_path, monkeypatch):
        import qreset.cmatrix as cmatrix_mod

        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        rng = np.random.default_rng(61)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        save_matrix((a + a.conj().T) / 2, hpath)
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        save_matrix(rho0, rpath)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m):
            calls.append(m.shape)
            return eigvalsh(m)

        monkeypatch.setattr(cmatrix_mod.np.linalg, "eigvalsh", counted)
        out = tmp_path / "report.json"
        assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath),
                    "--r", "0.7", "--split", "2:4", "--out", str(out)]) == 0
        # rho0 when the system is built, the stationary state, its reduction
        assert calls == [(8, 8), (8, 8), (2, 2)]
        report = json.loads(out.read_text())
        rho = np.array(report["ness_matrix"]).view(complex).reshape(8, 8)
        assert report["purity"] == purity(rho)
        assert report["fidelity_rho0"] == fidelity(rho, rho0)

    def test_generic_missing_file(self, tmp_path):
        assert run(
            [
                "ness",
                "--hamiltonian", str(tmp_path / "absent.json"),
                "--rho0", str(tmp_path / "absent2.json"),
                "--r", "1",
            ]
        ) == 4


class TestSweep:
    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--grid-r", "0.1:5:4:log", "--grid-alpha", "0:2:3"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert read(out1) == read(out2)

    def test_threads_do_not_change_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--grid-r", "0.1:5:4:log", "--grid-alpha", "0:2:3"]
        assert run(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert run(args + ["--out", str(out2), "--threads", "4"]) == 0
        assert read(out1) == read(out2)

    def test_env_threads_used_when_flag_absent(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        monkeypatch.setenv("QRESET_THREADS", "3")
        args = ["sweep", "--grid-r", "0.5:1:2", "--grid-alpha", "0:1:2",
                "--out", str(out1)]
        assert run(args) == 0

    def test_bad_env_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QRESET_THREADS", "many")
        assert run(
            ["sweep", "--grid-r", "0.5:1:2", "--grid-alpha", "0:1:2"]
        ) == 4

    def test_flag_wins_over_env(self, tmp_path, monkeypatch):
        # an unusable env value is ignored when --threads is given
        monkeypatch.setenv("QRESET_THREADS", "many")
        out = tmp_path / "a.csv"
        assert run(
            ["sweep", "--grid-r", "0.5:1:2", "--grid-alpha", "0:1:2",
             "--threads", "2", "--out", str(out)]
        ) == 0

    def test_row_count(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run(
            [
                "sweep",
                "--grid-r", "0.1:1:5",
                "--grid-alpha", "0:3:4",
                "--observables", "entropy,fidelity",
                "--out", str(out),
            ]
        ) == 0
        assert len(out.read_text().splitlines()) == 1 + 5 * 4

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "grid.jsonl"
        assert run(
            [
                "sweep",
                "--grid-r", "1:1:1",
                "--grid-alpha", "0:0:1",
                "--observables", "fidelity",
                "--format", "jsonl",
                "--out", str(out),
            ]
        ) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows == [{"r": 1.0, "alpha": 0.0, "fidelity": 0.65}]

    def test_invalid_grid(self):
        assert run(["sweep", "--grid-r", "junk", "--grid-alpha", "0:1:2"]) == 4

    def test_zero_rate_grid_rejected(self):
        assert run(["sweep", "--grid-r", "0:1:2", "--grid-alpha", "0:1:2"]) == 4

    def test_log_grid_rejects_zero_lo(self):
        assert run(
            ["sweep", "--grid-r", "0:1:2:log", "--grid-alpha", "0:1:2"]
        ) == 4

    def test_rates_beyond_float_range_rejected(self):
        proc = run_process(["sweep", "--grid-r", "1e100:1e300:3:log",
                            "--grid-alpha", "0:1:2", "--observables", "entropy"],
                           timeout=10)
        assert proc.returncode == 4
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestTimeseries:
    def test_basic(self, tmp_path):
        out = tmp_path / "ts.csv"
        assert run(
            [
                "timeseries",
                "--R", "0.5",
                "--grid-t", "0:10:11",
                "--observables", "entropy,fidelity",
                "--out", str(out),
            ]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[2]) == 0.0   # t
        assert float(first[3]) == 0.0   # entropy
        assert float(first[4]) == 1.0   # fidelity

    def test_settles_on_stationary_state_at_huge_times(self, capsys):
        assert run(["timeseries", "--R", "1", "--grid-t", "0:1e308:3",
                    "--observables", "fidelity"]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert float(last[2]) == 1e308
        assert float(last[4]) == pytest.approx(0.65, abs=1e-12)


class TestOptimize:
    def test_interior_peak(self, capsys):
        assert run(["optimize", "--alpha", "2", "--r-bounds", "0.01:10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flag"] == "interior"
        assert report["c_star"] == pytest.approx(0.432039, abs=1e-5)

    def test_degenerate_flat(self, capsys):
        assert run(["optimize", "--alpha", "0", "--r-bounds", "0.01:10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flag"] == "degenerate"

    def test_bad_bounds(self):
        assert run(["optimize", "--alpha", "2", "--r-bounds", "5:1"]) == 4

    def test_zero_tolerance_rejected_promptly(self):
        proc = run_process(["optimize", "--alpha", "1", "--r-bounds", "0.1:1",
                            "--tol", "0"], timeout=5)
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr


class TestCritical:
    def test_default_box(self, capsys):
        assert run(["critical"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["r_c"] == pytest.approx(0.12, abs=0.01)
        assert report["alpha_c"] == pytest.approx(1.27, abs=0.01)
        assert report["residual_slope"] < 1e-7
        assert report["residual_curvature"] < 1e-7

    @pytest.mark.parametrize("box", [
        "0.05:0.3:2:0.8",      # reversed alpha bounds
        "1e-9:1e9:0:1e9",      # alpha_lo below the finite-difference step
        "0.3:0.05:0.8:2",      # reversed rate bounds
        "0:0.3:0.8:2",         # rate bound not positive
        "0.05:inf:0.8:2",
        "0.05:0.3:nan:2",
        "0.05:0.3:0.8",
        "0.05:0.3:0.8:x",
    ])
    def test_bad_box_is_config_error(self, capsys, box):
        assert run(["critical", "--box", box]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--box" in captured.err

    def test_alpha_bound_at_the_step_passes_parsing(self, capsys):
        # the solver then finds no bracket in this box (exit 3), but the box
        # itself is valid
        assert run(["critical", "--box", "0.05:0.3:0.001:2.0"]) == 3
        assert "--box" not in capsys.readouterr().err

    def test_unbracketed_box_is_solver_failure(self):
        assert run(["critical", "--box", "0.2:0.3:0.8:2.0"]) == 3


class TestPeakR:
    def test_basic(self, capsys):
        assert run(["peak-r", "--t", "5", "--r-bounds", "0.001:3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flag"] == "interior"
        assert report["r_star"] == pytest.approx(0.266278, abs=1e-4)

    def test_tolerance_below_one_ulp_terminates(self):
        proc = run_process(["peak-r", "--t", "5", "--r-bounds", "0.001:3",
                            "--tol", "1e-300"], timeout=5)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["flag"] == "interior"
        assert report["r_star"] == pytest.approx(0.266278, abs=1e-4)

    def test_bounds_beyond_float_range_rejected(self):
        proc = run_process(["peak-r", "--t", "5", "--r-bounds", "1e-300:1e300"],
                           timeout=10)
        assert proc.returncode == 4
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestMcValidate:
    def test_passes(self, capsys):
        rc = run(
            [
                "mc-validate",
                "--R", "1", "--alpha", "1",
                "--t", "2", "--ntraj", "2000", "--seed", "9",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["max_std_dev"] <= 5.0

    def test_failure_exit_code(self, capsys):
        rc = run(
            [
                "mc-validate",
                "--R", "1", "--alpha", "1",
                "--t", "2", "--ntraj", "500", "--seed", "9",
                "--threshold", "1e-9",
            ]
        )
        assert rc == 2

    def test_against_ness(self, capsys):
        rc = run(
            [
                "mc-validate",
                "--R", "1", "--alpha", "1",
                "--t", "40", "--ntraj", "2000", "--seed", "10",
                "--against", "ness",
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("against", ["ness", "reset"])
    def test_huge_rate_times_t_is_bounded(self, against):
        # the literal event list would hold ~1e12 reset times per trajectory
        proc = run_process(["mc-validate", "--R", "1", "--alpha", "1", "--t", "1e12",
                            "--ntraj", "1000", "--against", against], timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True

    def test_non_finite_exact_matrix_is_config_error(self, capsys):
        # at rate 0 the phases omega t overflow: the exact matrix is no state
        rc = run(["mc-validate", "--R", "0", "--alpha", "1", "--t", "1e308",
                  "--ntraj", "10"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert captured.err.startswith("error: exact density matrix")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_rejects_bad_threshold(self, capsys, threshold):
        rc = run(["mc-validate", "--R", "1", "--alpha", "1", "--t", "1",
                  "--ntraj", "10", "--threshold", threshold])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert captured.err.startswith("error: threshold must be finite and > 0")


class TestParsing:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 4

    def test_no_command(self):
        assert run([]) == 4

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_parser_is_built_once(self, monkeypatch):
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(1)
            return build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)
        assert run(["ness", "--R", "1", "--alpha", "1"]) == 0
        assert run(["frobnicate"]) == 4
        assert run(["ness", "--R", "2", "--alpha", "1"]) == 0
        assert len(calls) == 1
        cli._parser.cache_clear()

    def test_reused_parser_gives_the_same_results(self, capsys):
        bad = [
            ["frobnicate"],
            ["sweep", "--grid-r", "0.5:1:2"],
            ["ness", "--R", "1", "--bogus"],
            ["sweep", "--grid-r", "0.5:1:2", "--grid-alpha", "0:1:2", "--format", "xml"],
            ["sweep", "--grid-r", "0:1:2", "--grid-alpha", "0:1:2"],
            ["ness", "--R", "1", "--omega", "1"],
            [],
        ]
        good = [
            ["ness", "--R", "1", "--alpha", "1"],
            ["sweep", "--grid-r", "0.5:1:2", "--grid-alpha", "0:1:2", "--format", "jsonl"],
            ["optimize", "--alpha", "2", "--r-bounds", "0.01:10", "--tol", "1e-6"],
            ["mc-validate", "--R", "1", "--alpha", "1", "--t", "1", "--ntraj", "50"],
        ]

        def results(order):
            cli._parser.cache_clear()
            out = {}
            for argv in order:
                rc = run(argv)
                captured = capsys.readouterr()
                out[tuple(argv)] = (rc, captured.out, captured.err)
            return out

        bad_first = results(bad + good)
        good_first = results(good + bad)
        assert bad_first == good_first
        assert all(rc == 4 and err for rc, _, err in (bad_first[tuple(a)] for a in bad))
        assert all(rc == 0 and out for rc, out, _ in (bad_first[tuple(a)] for a in good))
