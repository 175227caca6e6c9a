import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import qreset

from qreset import cli, sweep, twospin
from qreset.cli import main
from qreset.observables import fidelity, purity
from qreset.serialize import save_matrix
from qreset.sweep import entropy_alpha_curvature, entropy_alpha_slope
from qreset.twospin import TwoSpinParams, hamiltonian


def run(args):
    return main(args)


def read(path):
    return path.read_bytes()


def run_process(args, timeout, interpreter_flags=(), env_overrides=()):
    """Run the CLI in a fresh interpreter; fails the test if it is still
    running after ``timeout`` seconds."""
    env = dict(os.environ, **dict(env_overrides))
    src = os.path.dirname(os.path.dirname(qreset.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *interpreter_flags, "-m", "qreset.cli", *args],
                          env=env, capture_output=True, text=True, timeout=timeout)


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

    def test_generic_pure_reduced_state_prints_positive_zero(self, tmp_path, capsys):
        # H = diag(1, 0, 0, -1) keeps |dd> stationary, so the reduced state is
        # pure and its entropy is +0, not -0
        hpath, rpath = tmp_path / "zz.json", tmp_path / "dd.json"
        save_matrix(np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex), hpath)
        save_matrix(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex), rpath)
        assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "0.5",
                    "--split", "2:2"]) == 0
        out = capsys.readouterr().out
        assert '"entropy_subsystem_a": 0,' in out and "-0" not in out

    def test_generic_levels_closer_than_the_tolerance(self, tmp_path):
        # levels 0.6 degeneracy tolerances apart form one cluster, so the
        # state at a tiny rate is rho0 itself and PSD
        from qreset.reset_core import DEGENERACY_RTOL

        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        delta = 0.0
        for _ in range(3):
            levels = 1.0 + delta * np.arange(4)
            delta = 0.6 * DEGENERACY_RTOL * np.linalg.norm(levels)
        save_matrix(np.diag(levels).astype(complex), hpath)
        save_matrix(np.full((4, 4), 0.25, dtype=complex), rpath)
        proc = run_process(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath),
                            "--r", "1e-12"], timeout=30, interpreter_flags=("-W", "error"))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["purity"] == pytest.approx(1.0, abs=1e-14)

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

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16"])
    def test_generic_document_encoding_is_not_the_locales(self, tmp_path, encoding):
        # a document with a non-ASCII value under a key the format ignores,
        # read under the C locale with UTF-8 mode and locale coercion off
        path = tmp_path / "u.json"
        path.write_bytes('{"note": "\u00e9", "dim": 1, "matrix": [[1, 0]]}'.encode(encoding))
        proc = run_process(["ness", "--hamiltonian", str(path), "--rho0", str(path), "--r", "1"],
                           timeout=30, env_overrides={"LC_ALL": "C", "PYTHONUTF8": "0",
                                                      "PYTHONCOERCECLOCALE": "0"})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["purity"] == 1

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

    def test_generic_validates_rho0_once_and_trusts_the_stationary_state(
            self, tmp_path, monkeypatch):
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        rng = np.random.default_rng(61)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (a + a.conj().T) / 2
        save_matrix(h, hpath)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        save_matrix(rho0, rpath)
        calls = []

        def counted(name):
            solver = getattr(np.linalg, name)

            def call(m):
                calls.append((name, m.copy()))
                return solver(m)
            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        out = tmp_path / "report.json"
        assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath),
                    "--r", "0.7", "--split", "2:4", "--out", str(out)]) == 0
        # rho0 and the Hamiltonian when the system is built, then only the
        # (2, 2) reduction: the 1 x 1 F0^dagger rho F0 of the fidelity needs
        # no eigensolver
        assert [(name, m.shape) for name, m in calls] == [
            ("eigh", (8, 8)), ("eigh", (8, 8)), ("eigvalsh", (2, 2))]
        assert np.array_equal(calls[0][1], rho0)
        assert np.array_equal(calls[1][1], h)
        report = json.loads(out.read_text())
        rho = np.array(report["ness_matrix"]).view(complex).reshape(8, 8)
        assert report["purity"] == purity(rho)
        assert abs(report["fidelity_rho0"] - (psi.conj() @ rho @ psi).real) <= 4e-16

    def test_generic_mixed_rho0_fidelity_is_the_nuclear_norm(self, tmp_path):
        # a rank-2 rho0: fidelity_rho0 is the squared nuclear norm of
        # W^dagger F0, which equals that of sqrt(rho) sqrt(rho0)
        hpath, rpath, out = tmp_path / "h.json", tmp_path / "rho.json", tmp_path / "out.json"
        rng = np.random.default_rng(62)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        save_matrix((a + a.conj().T) / 2, hpath)
        u, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
        rho0 = 0.95 * np.outer(u[:, 0], u[:, 0].conj()) + 0.05 * np.outer(u[:, 1], u[:, 1].conj())
        save_matrix(rho0, rpath)
        assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath),
                    "--r", "0.7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        rho = np.array(report["ness_matrix"]).view(complex).reshape(8, 8)
        crossed = qreset.psd_sqrt(rho) @ qreset.psd_sqrt(rho0)
        expected = np.linalg.svd(crossed, compute_uv=False).sum() ** 2
        assert abs(report["fidelity_rho0"] - expected) <= 1e-14

    def test_generic_fidelity_rho0_matches_the_50_digit_reference(self, tmp_path):
        # tests/data/make_fidelity_reference.py writes the data: periodic
        # Ising chains of L = 2..4 reset to a product state.  Through the
        # square roots of rho and rho0 and one SVD the parent measured a worst
        # error of 2.9e-15; through the d x 1 factor of rho0, 2.1e-15.
        spec = importlib.util.spec_from_file_location(
            "oracle", pathlib.Path(__file__).parents[1] / "perfbench" / "oracle.py")
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
        data = pathlib.Path(__file__).parent / "data" / "fidelity_reference.json"
        rows = json.loads(data.read_text())["chains"]
        assert sorted({row["L"] for row in rows}) == [2, 3, 4]
        hpath, rpath, out = tmp_path / "h.json", tmp_path / "rho.json", tmp_path / "out.json"
        worst = 0.0
        for row in rows:
            save_matrix(oracle.ising_chain(row["L"], row["J"], row["h"]), hpath)
            save_matrix(oracle.product_state(row["L"], row["theta"], row["phi"]), rpath)
            assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath),
                        "--r", repr(row["r"]), "--out", str(out)]) == 0
            got = json.loads(out.read_text())["fidelity_rho0"]
            worst = max(worst, abs(got - float(row["fidelity_rho0"])))
        assert worst <= 2.9e-15

    def test_generic_rejects_a_rho0_that_is_not_psd(self, tmp_path, capsys):
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        save_matrix(np.diag([1.0, -1.0]).astype(complex), hpath)
        save_matrix(np.diag([1.2, -0.2]).astype(complex), rpath)
        out = tmp_path / "report.json"
        assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "1",
                    "--out", str(out)]) == 4
        assert "density matrix not PSD" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--R", "--alpha", "--omega", "--j"])
    def test_generic_rejects_two_spin_flags(self, tmp_path, capsys, flag):
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        save_matrix(np.diag([1.0, -1.0]).astype(complex), hpath)
        save_matrix(np.diag([1.0, 0.0]).astype(complex), rpath)
        assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "1",
                    flag, "5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: two-spin flags have no effect")

    @pytest.mark.parametrize("flags", [
        ["--format", "jsonl"],
        ["--observables", "entropy"],
        ["--format", "jsonl", "--observables", "entropy"],
    ])
    def test_generic_rejects_two_spin_output_flags(self, tmp_path, capsys, flags):
        # the generic report is JSON with every observable it can give
        hpath = tmp_path / "h.json"
        rpath = tmp_path / "rho.json"
        out = tmp_path / "never.json"
        save_matrix(np.diag([1.0, -1.0]).astype(complex), hpath)
        save_matrix(np.diag([1.0, 0.0]).astype(complex), rpath)
        assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "1",
                    *flags, "--out", str(out)]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        named = ", ".join(flags[::2])
        assert captured.err.startswith(f"error: {named}: two-spin flags have no effect")
        assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "1",
                    *flags]) == 4
        assert capsys.readouterr().out == ""

    def test_two_spin_output_flags_default_to_csv_and_all_observables(self, capsys):
        assert run(["ness", "--R", "1", "--alpha", "1"]) == 0
        default = capsys.readouterr().out
        assert run(["ness", "--R", "1", "--alpha", "1", "--format", "csv",
                    "--observables", "entropy,fidelity,purity,concurrence"]) == 0
        assert capsys.readouterr().out == default
        assert default.startswith("r,alpha,t,entropy,fidelity,purity,concurrence\n")

    def test_two_spin_rejects_split(self, capsys):
        assert run(["ness", "--R", "1", "--alpha", "1", "--split", "2:2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --split needs the generic mode")

    @pytest.mark.parametrize("spec", ["2:4:5", "2:x", "3:3", "2", "0:8", "2.5:4"])
    def test_generic_rejects_a_bad_split_before_solving(self, tmp_path, capsys,
                                                        monkeypatch, spec):
        hpath, rpath, out = tmp_path / "h.json", tmp_path / "rho.json", tmp_path / "never.json"
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        save_matrix((a + a.conj().T) / 2, hpath)
        save_matrix(np.eye(8, dtype=complex) / 8, rpath)
        monkeypatch.setattr(cli, "ness_density", lambda *args: pytest.fail("solved"))
        assert run(["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "1",
                    "--split", spec, "--out", str(out)]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --split {spec!r}" if spec == "3:3"
                                       else "error: --split must look like dimA:dimB")

    def test_generic_parses_split_before_loading(self, tmp_path, capsys):
        assert run(["ness", "--hamiltonian", str(tmp_path / "absent.json"),
                    "--rho0", str(tmp_path / "absent2.json"), "--r", "1",
                    "--split", "2:x"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --split must look like dimA:dimB with positive "
                                "integers, got '2:x'\n")

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

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        out = tmp_path / "a.csv"
        assert run(["sweep", "--grid-r", "0.5:1:2", "--grid-alpha", "0:1:2",
                    "--threads", threads, "--out", str(out)]) == 4
        assert capsys.readouterr().err == "error: --threads must be >= 1\n"
        assert not out.exists()

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

    def test_rates_beyond_float_range_tend_to_the_pure_initial_state(self):
        proc = run_process(["sweep", "--grid-r", "1e100:1e300:3:log",
                            "--grid-alpha", "0:1:2", "--observables", "entropy"],
                           timeout=30, interpreter_flags=("-W", "error"))
        assert (proc.returncode, proc.stderr) == (0, "")
        entropy = [float(line.split(",")[3]) for line in proc.stdout.splitlines()[1:]]
        # the smaller eigenvalue is 1/(4 R^2) to round-off at R = 1e100
        lam = 0.25 / 1e100 / 1e100
        assert entropy[0] == pytest.approx(lam * (1.0 - math.log(lam)), rel=1e-12)
        assert entropy == [entropy[0], 0.0, 0.0] * 2


class TestBeyondFloatRange:
    # the stationary closed forms are finite for every finite R and alpha,
    # and tend to the initial state's values (entropy 0, fidelity 1) as
    # either grows.  Under -W error a numpy warning would end the run in a
    # traceback.
    @pytest.mark.parametrize("args", [
        ["sweep", "--grid-r", "1e100:1e300:3:log", "--grid-alpha", "0:1:2",
         "--observables", "entropy"],
        ["ness", "--R", "1e200", "--alpha", "1"],
        ["ness", "--R", "1", "--alpha", "1e200"],
    ])
    def test_limit_values_without_warning(self, args):
        proc = run_process(args, timeout=30, interpreter_flags=("-W", "error"))
        assert (proc.returncode, proc.stderr) == (0, "")
        header, *lines = proc.stdout.splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            if max(float(row["r"]), float(row["alpha"])) >= 1e200:
                assert float(row["entropy"]) == 0.0
                assert row["fidelity"] in ("", "1")

    def test_all_observables_over_600_decades(self):
        # every column in its range by construction, with no warning
        proc = run_process(["sweep", "--grid-r", "1e-300:1e300:13:log",
                            "--grid-alpha", "0:1e300:7"],
                           timeout=30, interpreter_flags=("-W", "error"))
        assert (proc.returncode, proc.stderr) == (0, "")
        header, *lines = proc.stdout.splitlines()
        assert len(lines) == 91
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            assert 0.0 <= float(row["entropy"]) <= math.log(2.0)
            assert all(0.0 <= float(row[name]) <= 1.0
                       for name in ("fidelity", "purity", "concurrence"))

    def test_energy_spread_beyond_float_range_is_a_config_error(self, tmp_path):
        # each energy is finite, E_max - E_min is not
        hpath, rpath = tmp_path / "h.json", tmp_path / "rho.json"
        save_matrix(np.diag([1e308, -1e308]), hpath)
        save_matrix(np.diag([0.0, 1.0]), rpath)
        for args in (["ness", "--R", "1", "--alpha", "1.7e308",
                      "--observables", "purity,concurrence"],
                     ["ness", "--hamiltonian", str(hpath), "--rho0", str(rpath), "--r", "1"]):
            proc = run_process(args, timeout=30, interpreter_flags=("-W", "error"))
            assert proc.returncode == 4
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestTransientBeyondFloatRange:
    # the transient closed form squares nothing that can overflow: finite
    # states, and no numpy warning (which -W error would turn into a
    # traceback)
    @pytest.mark.parametrize("args", [
        ["timeseries", "--R", "1", "--alpha", "1e103", "--grid-t", "0:1:2"],
        ["peak-r", "--t", "1", "--alpha", "1e103", "--r-bounds", "0.1:1"],
        ["timeseries", "--R", "1e-3", "--alpha", "1e160", "--grid-t", "0:1:2"],
        ["timeseries", "--R", "1e103", "--alpha", "1", "--grid-t", "0:1:2"],
        ["timeseries", "--R", "1e160", "--alpha", "1", "--grid-t", "0:1:2"],
    ])
    def test_finite_without_warning(self, args):
        if args[0] == "timeseries":
            args = args + ["--observables", "entropy"]
        proc = run_process(args, timeout=30, interpreter_flags=("-W", "error"))
        assert (proc.returncode, proc.stderr) == (0, "")
        if args[0] == "peak-r":
            values = [json.loads(proc.stdout)["s_star"]]
        else:
            header, *lines = proc.stdout.splitlines()
            values = [float(dict(zip(header.split(","), line.split(",")))["entropy"])
                      for line in lines]
        assert len(values) >= 1
        assert all(0.0 <= v <= math.log(2.0) for v in values)

    @pytest.mark.parametrize("args", [
        ["peak-r", "--t", "1", "--alpha", "-1", "--r-bounds", "0.1:1"],
        ["peak-r", "--t", "1", "--alpha", "nan", "--r-bounds", "0.1:1"],
        ["peak-r", "--t", "1", "--alpha", "inf", "--r-bounds", "0.1:1"],
        ["timeseries", "--R", "1", "--alpha", "nan", "--grid-t", "0:1:2"],
    ])
    def test_bad_coupling_is_a_config_error(self, args):
        proc = run_process(args, timeout=30, interpreter_flags=("-W", "error"))
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


    @pytest.mark.parametrize("observables", ["entropy", "fidelity", "entropy,fidelity"])
    def test_overflowing_phase_is_a_config_error(self, observables):
        # alpha t overflows at R = 0, where nothing damps the transient
        proc = run_process(["timeseries", "--R", "0", "--alpha", "1e300",
                            "--grid-t", "0:1e10:3", "--observables", observables],
                           timeout=30, interpreter_flags=("-W", "error"))
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestFailingRunsWriteNothing:
    # phases without digits at zero rate are refused by the phase budget,
    # and a stationary entropy of nan by write_table: both configuration
    # errors
    CASES = [
        (["timeseries", "--R", "0", "--alpha", "1", "--grid-t", "0:1e308:3",
          "--observables", "fidelity"], 4),
        (["ness", "--R", "1", "--alpha", "1"], 4),
    ]
    # the error line of each case's command, which names what failed
    ERRORS = {
        "timeseries": "error: the phases keep too few digits at t = 5e+307 (R = 0.0): their "
                      "rounding can move the transient by 2.6e+292 >= 1.5e-08 while "
                      "exp(-R t) > 0\n",
        "ness": "error: entropy is not finite at row 0: nan\n",
    }

    @pytest.fixture(autouse=True)
    def nan_stationary_entropy(self, monkeypatch):
        # the spin entropy is the one body every entropy column goes through
        monkeypatch.setattr(twospin, "_spin_entropy", lambda v: np.full(np.shape(v), np.nan))

    @pytest.mark.parametrize("args, code", CASES)
    def test_no_file_with_out(self, tmp_path, capsys, args, code):
        out = tmp_path / "never.csv"
        assert run(args + ["--out", str(out)]) == code
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("args, code", CASES)
    def test_empty_stdout_without_out(self, capsys, args, code):
        assert run(args) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.ERRORS[args[0]]

    def test_failed_write_removes_the_file(self, tmp_path, capsys, monkeypatch):
        # a write that fails part way, as on a full disk, leaves no file
        # that the run created; a path that existed before the run, such
        # as /dev/null, is not removed
        def failing_write(pairs, stream):
            stream.write('{"R": ')
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "write_json", failing_write)
        argv = ["mc-validate", "--R", "1", "--alpha", "1", "--t", "1", "--ntraj", "10"]
        out = tmp_path / "report.json"
        assert run(argv + ["--out", str(out)]) == 4
        assert not out.exists()
        existing = tmp_path / "existing.json"
        existing.write_text("{}\n")
        assert run(argv + ["--out", str(existing)]) == 4
        assert existing.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: No space left on device\n" * 2


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
        # the transient's phases overflow there, but it is damped to 0
        assert run(["timeseries", "--R", "1", "--alpha", "1", "--grid-t", "0:1e308:3"]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert float(last[3]) == pytest.approx(twospin.entropy_ness(TwoSpinParams(1.0, 1.0, 1.0)),
                                               abs=1e-15)


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

    @pytest.mark.parametrize("command", [["optimize", "--alpha", "2"], ["peak-r", "--t", "5"]])
    @pytest.mark.parametrize("bounds", ["a:1", "0.1:1:2", "0.1"])
    def test_unparsable_bounds_name_the_flag(self, capsys, command, bounds):
        assert run([*command, "--r-bounds", bounds]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "--r-bounds" in captured.err

    @pytest.mark.parametrize("command", [["optimize", "--alpha", "2"], ["peak-r", "--t", "5"]])
    def test_infinite_rate_bound_is_config_error(self, command):
        proc = run_process([*command, "--r-bounds", "0.01:inf"], timeout=20,
                           interpreter_flags=("-W", "error"))
        assert proc.returncode == 4
        assert proc.stderr == "error: need finite 0 < r_lo < r_hi, got (0.01, inf)\n"

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
        "0.05:0.3:-0.1:2",     # negative alpha bound
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
        # the curvature's first zero above alpha = 0.001 is a slope minimum,
        # not the point
        assert run(["critical", "--box", "0.05:0.3:0.001:2.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residual_slope"] <= 1e-12
        assert report["residual_curvature"] <= 1e-12
        r, alpha = report["r_c"], report["alpha_c"]
        assert abs(entropy_alpha_slope(r, alpha)) <= 1e-12
        assert abs(entropy_alpha_curvature(r, alpha)) <= 1e-12

    @pytest.mark.parametrize("box", [
        "1e-9:1e9:0:1e9",
        "1e-6:1e6:0:1e3",
        "5e-324:1.7e308:0:1.7e308",
        "2:3:5:6",             # holds no inflection point
    ])
    def test_extreme_box_exits_0_or_3(self, box):
        proc = run_process(["critical", "--box", box], timeout=20,
                           interpreter_flags=("-W", "error"))
        assert proc.returncode in (0, 3)
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            report = json.loads(proc.stdout)
            assert max(report["residual_slope"], report["residual_curvature"]) <= 1e-12
        else:
            assert proc.stdout == ""
            assert proc.stderr.startswith("solver failure:")

    def test_unbracketed_box_is_solver_failure(self):
        assert run(["critical", "--box", "0.2:0.3:0.8:2.0"]) == 3

    @pytest.mark.parametrize("box, code", [
        ("1e-9:1e9:0:1e9", 0), ("1e-6:1e6:0:1e3", 0), ("5e-324:1.7e308:0:1.7e308", 0),
        ("0.05:0.3:0:2", 0), ("0.12364:0.12366:1.278:1.2785", 0),
        ("2:3:5:6", 3), ("0.2:0.3:0.8:2", 3), ("0.1:0.3:1.5:2", 3),
    ])
    def test_exit_code_says_whether_the_box_holds_the_point(self, capsys, box, code):
        assert run(["critical", "--box", box]) == code
        captured = capsys.readouterr()
        if code == 0:
            report = json.loads(captured.out)
            assert (report["r_c"], report["alpha_c"]) == (0.12364917511714785,
                                                          1.2782375777265733)
            assert max(report["residual_slope"], report["residual_curvature"]) <= 1e-17
        else:
            assert captured.out == ""
            assert captured.err.startswith("solver failure: the box ")

    def test_fresh_process_finishes_within_two_seconds(self):
        start = time.perf_counter()
        proc = run_process(["critical"], timeout=30)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert elapsed < 2.0


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
        proc = run_process(["peak-r", "--t", "5", "--r-bounds", "1e-300:inf"],
                           timeout=10)
        assert proc.returncode == 4
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        # bounds at the ends of the float range are no error: the closed form
        # squares nothing that overflows
        proc = run_process(["peak-r", "--t", "5", "--r-bounds", "1e-300:1e300"],
                           timeout=10, interpreter_flags=("-W", "error"))
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        assert report["flag"] == "interior"
        assert report["r_star"] == pytest.approx(0.266278, abs=1e-4)


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

    def test_zero_rate_state_stays_a_state_while_the_phases_keep_digits(self):
        # rho0 conjugated by the phases exp(-i E t) is PSD to round-off
        # however inexact the phases (the per-level phases are checked in
        # test_reset_core's TestFiniteTimeStates)
        proc = run_process(["mc-validate", "--R", "0", "--alpha", "1", "--t", "1e6",
                            "--ntraj", "10", "--seed", "1"],
                           timeout=30, interpreter_flags=("-W", "error"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["passed"] is True
        # once the rounding of the phases can move the state by the closed
        # forms' budget, the engine refuses the time, with their message
        proc = run_process(["mc-validate", "--R", "0", "--alpha", "1", "--t", "1e9",
                            "--ntraj", "10"], timeout=30, interpreter_flags=("-W", "error"))
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: the phases keep too few digits at t = 1000000000.0 (R = 0.0): their "
            "rounding can move the transient by 1e-06 >= 1.5e-08 while exp(-R t) > 0\n")

    @pytest.mark.parametrize("t", ["1e5", "1e6"])
    def test_zero_rate_at_long_times_passes(self, capsys, t):
        rc = run(["mc-validate", "--R", "0", "--alpha", "1", "--t", t, "--ntraj", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("\n") == 1
        report = json.loads(out)
        assert report["passed"] is True and report["max_std_dev"] == 0

    def test_deterministic_mismatch_is_a_validation_failure(self, tmp_path, monkeypatch):
        # at rate 0 every entry is deterministic; one that is off is a
        # failed validation with a report that is valid JSON, not an error
        real = sweep.estimate_density

        def shifted(sys_, cfg):
            est = real(sys_, cfg)
            rho = est.rho_hat.copy()
            rho[0, 3] += 1e-3
            return dataclasses.replace(est, rho_hat=rho)

        monkeypatch.setattr(sweep, "estimate_density", shifted)
        out = tmp_path / "report.json"
        rc = run(["mc-validate", "--R", "0", "--alpha", "1", "--t", "1", "--ntraj", "10",
                  "--out", str(out)])
        assert rc == 2
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["max_std_dev"] == sys.float_info.max

    def test_non_finite_exact_matrix_is_config_error(self, capsys):
        # at rate 0 the phases E t keep no digits: the engine refuses the time
        rc = run(["mc-validate", "--R", "0", "--alpha", "1", "--t", "1e308",
                  "--ntraj", "10"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert captured.err.startswith("error: the phases keep too few digits at t = 1e+308 "
                                       "(R = 0.0): their rounding can move the transient by")

    @pytest.mark.parametrize("R", ["1", "0"])
    def test_one_trajectory_is_a_config_error(self, tmp_path, capsys, R):
        # one sample has no standard error, so at a positive rate every
        # entry would count as deterministic and fail the run
        out = tmp_path / "never.json"
        assert run(["mc-validate", "--R", R, "--alpha", "1", "--t", "1", "--ntraj", "1",
                    "--out", str(out)]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_traj must be >= 2 for a standard error, got 1\n"

    @pytest.mark.parametrize("R, t", [("0", "1"), ("1", "0"), ("1", "1")])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, R, t):
        # refused at every rate and time, also where no random stream is made
        out = tmp_path / "never.json"
        assert run(["mc-validate", "--R", R, "--alpha", "1", "--t", t, "--ntraj", "10",
                    "--seed", "-1", "--out", str(out)]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_rejects_bad_threshold(self, capsys, threshold):
        rc = run(["mc-validate", "--R", "1", "--alpha", "1", "--t", "1",
                  "--ntraj", "10", "--threshold", threshold])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert captured.err.startswith("error: threshold must be finite and > 0")


class TestConfigErrors:
    """Rows that exit 4 with one error line, empty stdout and no --out
    file; {h}, {rho}, {list} and {deep} name interchange files (a
    Hamiltonian, a state, a document holding a JSON list and one nested
    200000 lists deep)."""

    ROWS = [
        (["sweep", "--grid-r", "a:1:3", "--grid-alpha", "0:1:2"],
         "cannot parse --grid-r spec 'a:1:3'"),
        (["sweep", "--grid-r", "1:0.1:3", "--grid-alpha", "0:1:2"],
         "--grid-r needs finite lo <= hi and n >= 1, got '1:0.1:3'"),
        (["sweep", "--grid-r", "0.1:1:3", "--grid-alpha", "0:1:2", "--observables", "bogus"],
         "observables must be from ('entropy', 'fidelity', 'purity', 'concurrence'), "
         "got 'bogus'"),
        (["timeseries", "--R", "1", "--alpha", "1", "--grid-t", "0:1:3",
          "--observables", "purity"],
         "observables must be from ('entropy', 'fidelity'), got 'purity'"),
        (["ness", "--omega", "1", "--j", "1"],
         "physical parameters need all of --omega, --j, --r"),
        (["ness"], "missing parameters: give --R [--alpha] or --omega --j --r"),
        (["ness", "--rho0", "x.json", "--r", "1"],
         "generic mode needs both --hamiltonian and --rho0"),
        (["ness", "--hamiltonian", "{h}", "--rho0", "{rho}"],
         "generic mode needs a positive --r"),
        (["ness", "--hamiltonian", "{h}", "--rho0", "{rho}", "--r", "0"],
         "generic mode needs a positive --r"),
        (["timeseries", "--R", "0", "--alpha", "1e300", "--grid-t", "0:1e10:3"],
         "the phases keep too few digits at t = 5000000000.0 (R = 0.0): their rounding "
         "can move the transient by inf >= 1.5e-08 while exp(-R t) > 0"),
        (["ness", "--hamiltonian", "{list}", "--rho0", "{rho}", "--r", "1"],
         "matrix document must be a JSON object"),
        (["timeseries", "--R", "0", "--alpha", "1", "--grid-t", "0:1e16:2",
          "--observables", "fidelity"],
         "the phases keep too few digits at t = 1e+16 (R = 0.0): their rounding can move "
         "the transient by 5.1 >= 1.5e-08 while exp(-R t) > 0"),
        # the entropy column and peak-r take the same phase budget
        (["timeseries", "--R", "0", "--alpha", "1", "--grid-t", "0:1e16:2"],
         "the phases keep too few digits at t = 1e+16 (R = 0.0): their rounding can move "
         "the transient by 5.1 >= 1.5e-08 while exp(-R t) > 0"),
        (["peak-r", "--t", "1e17", "--alpha", "1", "--r-bounds", "1e-20:1"],
         "the phases keep too few digits at t = 1e+17 (R = 1e-20): their rounding can move "
         "the transient by 51 >= 1.5e-08 while exp(-R t) > 0"),
        (["ness", "--hamiltonian", "{h}", "--rho0", "{deep}", "--r", "1"],
         "{deep}: the document nests too deeply"),
        # a coupling the rate searches refuse is named as the flag that gave it
        (["optimize", "--alpha", "-1", "--r-bounds", "0.01:10"],
         "alpha must be finite and >= 0, got -1.0"),
        (["peak-r", "--t", "5", "--alpha", "nan", "--r-bounds", "0.001:3"],
         "alpha must be finite and >= 0, got nan"),
    ]

    @pytest.mark.parametrize("args, message", ROWS)
    def test_row(self, tmp_path, capsys, args, message):
        files = {"h": tmp_path / "h.json", "rho": tmp_path / "rho.json",
                 "list": tmp_path / "list.json", "deep": tmp_path / "deep.json"}
        save_matrix(np.diag([1.0, -1.0]), files["h"])
        save_matrix(np.diag([1.0, 0.0]), files["rho"])
        files["list"].write_text("[[1.0, 0.0]]\n")
        files["deep"].write_text("[" * 200000 + "]" * 200000)
        out = tmp_path / "never.out"
        argv = [arg.format(**files) for arg in args]
        message = message.format(**files)
        assert run(argv + ["--out", str(out)]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert run(argv) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # 10^15 points: numpy refuses the allocation at once, so nothing is allocated
    @pytest.mark.parametrize("args", [
        ["sweep", "--grid-r", "0.1:1:1000000000000000:log", "--grid-alpha", "0:1:1"],
        ["timeseries", "--R", "1", "--alpha", "1", "--grid-t", "0:1:1000000000000000"],
    ])
    def test_a_grid_numpy_cannot_allocate(self, capsys, args):
        assert run(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")
        assert captured.err.count("\n") == 1


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
