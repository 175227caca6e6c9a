import dataclasses
import math
import random
import re
import tracemalloc
from fractions import Fraction

import mpmath

import numpy as np
import pytest

from qreset import observables, sweep, twospin

from qreset.observables import fidelity_pure
from qreset.reset_core import ResetSpec, _phase_budget, reset_density
from qreset.sweep import (
    SolverError,
    SweepGrid,
    entropy_alpha_curvature,
    entropy_alpha_slope,
    find_entropy_peak_rate,
    find_inflection,
    mc_validate,
    optimize_concurrence,
    sweep_records,
    timeseries,
)
from qreset.twospin import (
    DOWN_DOWN,
    LN2,
    TwoSpinParams,
    concurrence_ness,
    entropy_at_time,
    entropy_ness,
    fidelity_ness,
    quantum_system,
)


class TestSweepGrid:
    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            SweepGrid(r_values=(), alpha_values=(0.0,))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SweepGrid(r_values=(0.0, 1.0), alpha_values=(0.0,))

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            SweepGrid(r_values=(2.0, 1.0), alpha_values=(0.0,))

    def test_rejects_unknown_observable(self):
        with pytest.raises(ValueError):
            SweepGrid(r_values=(1.0,), alpha_values=(0.0,), observables=("spin",))

    def test_canonicalizes_observable_order(self):
        g = SweepGrid(
            r_values=(1.0,),
            alpha_values=(0.0,),
            observables=("concurrence", "entropy"),
        )
        assert g.observables == ("entropy", "concurrence")

    @pytest.mark.parametrize("r, alpha, message", [
        ((1.0, math.nan, -1.0), (0.0,), "grid R values must be finite and > 0, got nan"),
        ((1.0, 2.0, -0.0, math.inf), (0.0,), "grid R values must be finite and > 0, got -0.0"),
        ((1.0,), (0.0, math.inf, -2.0), "grid alpha values must be finite and >= 0, got inf"),
        ((1.0,), (0.0, -5e-324), "grid alpha values must be finite and >= 0, got -5e-324"),
        ((1.0, 2.0), (1.0, 0.5), "grid axes must be ascending"),
    ])
    def test_messages_name_the_first_bad_value(self, r, alpha, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepGrid(r_values=r, alpha_values=alpha)

    @pytest.mark.parametrize("r, alpha", [(np.ones((2, 2)), (0.0,)), ((1.0,), np.zeros((1, 1))),
                                          (1.0, (0.0,))])
    def test_rejects_an_axis_that_is_not_1d(self, r, alpha):
        with pytest.raises(ValueError, match="grid axes must be 1-D"):
            SweepGrid(r_values=r, alpha_values=alpha)

    def test_axes_are_read_only_float64_copies(self):
        r = np.array([0.5, 1.0])
        g = SweepGrid(r_values=r, alpha_values=[0, 2])
        r[0] = 0.75
        for axis, expected in ((g.r_values, [0.5, 1.0]), (g.alpha_values, [0.0, 2.0])):
            assert axis.dtype == np.float64 and not axis.flags.writeable
            assert axis.tolist() == expected


def numpy_spacing(lo, hi, n, log):
    # numpy warns where a last product or power overflows before it is
    # replaced by hi; spaced forms neither
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.geomspace if log else np.linspace)(lo, hi, n)


def assert_bits_equal(lo, hi, n, log=False):
    got, expected = sweep.spaced(lo, hi, n, log), numpy_spacing(lo, hi, n, log)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (lo, hi, n, log)


class TestSpaced:
    """sweep.spaced(lo, hi, n, log) is np.linspace(lo, hi, n), or with log
    np.geomspace(lo, hi, n), bit for bit, from their arithmetic without
    their argument handling, so grids and the probe rounds do not change
    with it; it raises no numpy warning (the suite makes one an error)."""

    SMALLEST = 5e-324
    LARGEST = np.finfo(float).max

    @pytest.mark.parametrize("log", [False, True])
    def test_random_ends_over_the_float_range(self, log):
        rng = np.random.default_rng(35)
        mags = 10.0 ** rng.uniform(-323.0, 308.25, (4000, 2))
        if not log:
            mags *= rng.choice([-1.0, 1.0], mags.shape)
        ends = np.sort(mags, axis=1)
        if not log:
            # ends of either sign, whose widths reach the largest float
            ends = ends[np.isfinite(ends[:, 1] - ends[:, 0])]
        ns = rng.integers(1, 200, len(ends)).tolist()
        assert len(ends) > 3000
        for (lo, hi), n in zip(ends.tolist(), ns):
            assert_bits_equal(lo, hi, n, log)

    @pytest.mark.parametrize("log", [False, True])
    def test_one_point_and_equal_ends(self, log):
        for lo, hi in ((1.0, 10.0), (0.1, 0.1), (3.0, 3.0), (1e-300, 1e300), (7e307, 7e307)):
            for n in (1, 2, 3, 65):
                assert_bits_equal(lo, hi, n, log)
        for n in (1, 2, 5):
            assert_bits_equal(-2.5, -2.5, n)
            assert_bits_equal(0.0, 0.0, n)

    def test_negative_zero_lo(self):
        # np.linspace's one point is 0 * width + lo: 0.0, never -0.0
        for hi in (-0.0, 0.0, 1.0):
            for n in (1, 2, 3, 4):
                assert_bits_equal(-0.0, hi, n)
        assert math.copysign(1.0, sweep.spaced(-0.0, 1.0, 1)[0]) == 1.0

    def test_subnormal_ends(self):
        for lo, hi in ((self.SMALLEST, 1e-323), (self.SMALLEST, 3e-320), (-1e-323, 2e-323),
                       (self.SMALLEST, 1.0), (1e-320, 1e308), (self.SMALLEST, self.LARGEST)):
            for n in (1, 2, 3, 7, 65, 1000):
                assert_bits_equal(lo, hi, n)
                if lo > 0.0:
                    assert_bits_equal(lo, hi, n, log=True)
        # the step of (SMALLEST, 1e-323) over 3 points underflows to 0: its
        # points take np.linspace's branch for that
        assert (1e-323 - self.SMALLEST) / 2 == 0.0

    def test_overflowing_last_points_raise_no_warning(self):
        # np.linspace's last product and np.geomspace's last power overflow
        # here, and np.geomspace's interior powers of a bracket a few ulps
        # below the largest float
        half = self.LARGEST / 2
        for n in (2, 3, 4, 7, 65):
            assert_bits_equal(-half, half, n)
            assert_bits_equal(1.0, self.LARGEST, n, log=True)
            assert_bits_equal(np.nextafter(self.LARGEST, 0.0), self.LARGEST, n, log=True)
        assert np.isinf(sweep.spaced(np.nextafter(self.LARGEST, 0.0), self.LARGEST, 3, True)[1])


class TestProbes:
    """A probe round is sweep.spaced(a, b, 65, log=True): np.geomspace's
    probes bit for bit, so the probe rounds and the optimizers' output bytes
    do not change with it."""

    @staticmethod
    def brackets():
        rng = np.random.default_rng(29)
        # over the whole float range, with ends as Python floats and as the
        # numpy floats that later rounds take from the probes
        lo = 10.0 ** rng.uniform(-323.0, 308.0, 5000)
        hi = 10.0 ** rng.uniform(np.log10(lo), 308.25)
        wide = [(float(a), float(b)) for a, b in zip(lo, hi) if a < b]
        wide += [(np.float64(a), np.float64(b)) for a, b in wide[:2000]]
        # a few ulps wide, where the logs of the ends are often equal
        a = 10.0 ** rng.uniform(-300.0, 300.0, 3000)
        narrow = [(x, x * (1.0 + k * np.finfo(float).eps))
                  for x, k in zip(a.tolist(), rng.integers(1, 6, a.size).tolist())]
        edges = [(5e-324, 1.7e308), (5e-324, 1e-300), (1e300, 1.7e308), (5e-324, 1e-323),
                 (np.nextafter(1.7e308, 0.0), 1.7e308), (1e300, 1.0000000000000002e300)]
        return [(a, b) for a, b in wide + narrow + edges if a < b]

    def test_bits_equal_geomspace(self):
        brackets = self.brackets()
        assert len(brackets) >= 10_000
        equal_logs = 0
        for a, b in brackets:
            assert_bits_equal(a, b, sweep._PROBES, log=True)
            equal_logs += bool(np.log10(a) == np.log10(b))
        # the step == 0 branch
        assert equal_logs >= 100

    def test_equal_logs_give_a_degenerate_result(self):
        # the probes between the ends repeat one float, so the bracket is flat
        a, b = 1e300, 1.0000000000000002e300
        assert np.log10(a) == np.log10(b)
        assert np.unique(sweep.spaced(a, b, sweep._PROBES, log=True)[1:-1]).size == 1
        assert optimize_concurrence(7.0, a, b).flag == "degenerate"


class TestObservableRanges:
    """Every table column is in its theoretical range by construction
    (entropy in [0, ln 2], the others in [0, 1]), so no table is checked
    after it is computed.  The asserted slack is the rounding slack once
    allowed; on these grids the worst excess over the closed ranges is 0."""

    @staticmethod
    def check(table):
        for name in set(table) & {"entropy", "fidelity", "purity", "concurrence"}:
            column = table[name]
            lo, hi = (0.0, LN2 + 1e-9) if name == "entropy" else (-1e-12, 1.0 + 1e-12)
            assert not np.isnan(column).any(), name
            assert column.min() >= lo and column.max() <= hi, name

    @pytest.mark.filterwarnings("error")
    def test_sweep_over_600_decades(self):
        r = tuple(np.geomspace(1e-300, 1e300, 121))
        self.check(sweep_records(SweepGrid(r, (0.0, *np.geomspace(1e-300, 1e300, 60)))))

    @pytest.mark.filterwarnings("error")
    def test_sweep_random_decade_grids(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            r, alpha = np.sort(10.0 ** rng.uniform(-300.0, 300.0, (2, 40)), axis=1)
            self.check(sweep_records(SweepGrid(tuple(r), tuple(alpha))))

    @pytest.mark.filterwarnings("error")
    def test_sweep_float_range_corners(self):
        # an alpha near the largest float is refused: its energy spread is inf
        r = (5e-324, 2.2e-308, 1e-160, 1.0, 1e160, 8e307, np.finfo(float).max)
        alpha = (0.0, 5e-324, 2.2e-308, 1e-160, 1.0, 1e160, 8e307)
        self.check(sweep_records(SweepGrid(r, alpha)))

    @pytest.mark.filterwarnings("error")
    def test_timeseries(self):
        ts = np.unique(np.r_[np.linspace(0.0, 50.0, 201), np.geomspace(1e-12, 1e6, 200)])
        for R in (0.0, 1e-12, 0.1, 1.0, 10.0, 1e3):
            for alpha in (0.0, 0.3, 1.0, 10.0, 1e3):
                p = TwoSpinParams.from_dimensionless(R, alpha)
                self.check(timeseries(p, ts, ("entropy", "fidelity")))


class TestOneClosedFormPass:
    def test_a_block_evaluates_the_factors_once(self, monkeypatch):
        calls = []
        factors = twospin._ness_factors
        monkeypatch.setattr(twospin, "_ness_factors",
                            lambda R, alpha: calls.append(R.size) or factors(R, alpha))
        grid = SweepGrid(np.geomspace(0.1, 10.0, 7), np.linspace(0.0, 3.0, 5))
        table = sweep_records(grid)
        assert calls == [35]
        columns = twospin.ness_columns(table["r"], table["alpha"], ("entropy", "fidelity"))
        assert np.array_equal(table["entropy"], columns["entropy"])
        assert np.array_equal(table["fidelity"], columns["fidelity"])
        assert np.array_equal(table["purity"], table["fidelity"])


class TestRunSweep:
    def test_single_point_fidelity(self):
        grid = SweepGrid(
            r_values=(1.0,), alpha_values=(0.0,), observables=("fidelity",)
        )
        table = sweep_records(grid)
        assert list(table) == ["r", "alpha", "fidelity"]
        assert table["fidelity"][0] == pytest.approx(0.65, abs=1e-15)

    def test_uncoupled_concurrence_is_zero(self):
        grid = SweepGrid(
            r_values=(0.1, 1.0, 5.0),
            alpha_values=(0.0,),
            observables=("concurrence",),
        )
        assert np.all(sweep_records(grid)["concurrence"] <= 1e-10)

    def test_row_count_and_order(self):
        grid = SweepGrid(
            r_values=(0.5, 1.0), alpha_values=(0.0, 1.0, 2.0),
            observables=("entropy",),
        )
        table = sweep_records(grid)
        assert all(c.dtype == np.float64 and c.shape == (6,) for c in table.values())
        # alpha outer, rate inner
        assert list(zip(table["alpha"].tolist(), table["r"].tolist())) == [
            (0.0, 0.5), (0.0, 1.0), (1.0, 0.5), (1.0, 1.0), (2.0, 0.5), (2.0, 1.0)
        ]


class TestStackedEqualsPointwise:
    """The row-stacked engine reproduces, bit for bit, the columns built
    point by point from the public one-point functions (purity from the
    stationary fidelity to the pure initial state, which it equals)."""

    def test_sweep_records(self):
        # alpha = 0 takes the degeneracy branch of the stationary state
        grid = SweepGrid(
            r_values=tuple(np.geomspace(1e-3, 1e3, 31)),
            alpha_values=(0.0, 0.05, 0.5, 1.0, 2.5, 6.0, 12.0),
        )
        expected = {name: [] for name in ("r", "alpha", *grid.observables)}
        for alpha in grid.alpha_values:
            for r in grid.r_values:
                p = TwoSpinParams.from_dimensionless(r, alpha)
                for name, v in (("r", r), ("alpha", alpha), ("entropy", entropy_ness(p)),
                                ("fidelity", fidelity_ness(p)), ("purity", fidelity_ness(p)),
                                ("concurrence", concurrence_ness(p))):
                    expected[name].append(v)
        table = sweep_records(grid)
        assert list(table) == list(expected)
        for name, column in expected.items():
            assert np.array_equal(table[name], column), name

    def test_timeseries_fidelity(self):
        # the entropy column is the one-point closed form bit for bit; the
        # fidelity column comes from its own closed form, held to the engine
        # (reset_density + fidelity_pure) within the round-off of the
        # engine's phases, eps max|E| t, plus 2e-15
        eps = np.finfo(float).eps
        for R, alpha, omega in ((0.7, 1.3, 1.0), (1e-3, 12.0, 1.0), (2.0, 0.0, 2.5)):
            p = TwoSpinParams(omega=omega, j=alpha * omega, r=R * omega)
            ts = np.linspace(0.0, 25.0, 101)
            sys = quantum_system(p)
            expected = {
                "r": [p.R] * ts.size,
                "alpha": [p.alpha] * ts.size,
                "t": ts.tolist(),
                "entropy": [entropy_at_time(float(t), p) for t in ts],
            }
            engine = np.array([
                fidelity_pure(reset_density(sys, ResetSpec(p.r), float(t) / p.omega), DOWN_DOWN)
                for t in ts])
            # observables come out in canonical order, whatever the request's
            table = timeseries(p, ts, observables=("fidelity", "entropy"))
            assert list(table) == [*expected, "fidelity"]
            for name, column in expected.items():
                assert np.array_equal(table[name], column), name
            max_energy = np.abs(sys.eigensystem.eigenvalues).max()
            bound = 2e-15 + eps * max_energy * ts / p.omega
            assert np.all(np.abs(table["fidelity"] - engine) <= bound)
            assert table["t"][0] == 0.0 and table["fidelity"][0] == 1.0


class TestRowBlocks:
    """sweep_records evaluates the flat grid in blocks of sweep._BLOCK_POINTS
    points; the block size changes neither the table nor, past one block,
    the memory it takes."""

    def test_block_size_does_not_change_the_table(self, monkeypatch):
        # alpha = 0 takes the degeneracy branch of the stationary state, and
        # below R ~ 3e-4 the top pair of Wootters' spectrum nears at alpha = 6
        # and 12, where the closed form hands tau to LAPACK
        grid = SweepGrid(r_values=tuple(np.geomspace(1e-4, 1e3, 29)),
                         alpha_values=(0.0, 0.05, 0.5, 1.0, 2.5, 6.0, 12.0))
        handed, wootters, gap_rtol = [], observables._wootters, observables._CUBIC_GAP_RTOL
        monkeypatch.setattr(observables, "_wootters",
                            lambda tau: handed.append(tau.copy()) or wootters(tau))
        # every tau of the grid, in its order, and its relative top gap
        monkeypatch.setattr(observables, "_CUBIC_GAP_RTOL", math.inf)
        lapack = sweep_records(grid)
        monkeypatch.setattr(observables, "_CUBIC_GAP_RTOL", gap_rtol)
        (every,) = handed
        mu = np.linalg.svd(every, compute_uv=False)
        relative_gap = 1.0 - np.square(mu[:, 1] / mu[:, 0])
        assert np.all(np.abs(relative_gap / gap_rtol - 1.0) > 0.01)
        near = relative_gap <= gap_rtol
        assert np.count_nonzero(near) == 7
        tables, stacks = [], []
        n_r, n_points = len(grid.r_values), grid.r_values.size * grid.alpha_values.size
        for points in (n_r, n_points):  # one row per block, then the whole grid
            monkeypatch.setattr(sweep, "_BLOCK_POINTS", points)
            handed.clear()
            tables.append(sweep_records(grid))
            stacks.append([len(tau) for tau in handed])
            # LAPACK gets exactly the near-degenerate points, whatever the blocking
            assert np.concatenate(handed).tobytes() == every[near].tobytes()
        assert stacks == [[4, 3], [7]]
        assert np.abs(tables[1]["concurrence"] - lapack["concurrence"]).max() <= 1e-15
        one_row, whole = tables
        assert list(one_row) == list(whole)
        for name in whole:
            assert one_row[name].tobytes() == whole[name].tobytes(), name

    def test_no_eigendecomposition_on_the_factor_paths(self, monkeypatch):
        # the concurrence factor needs no eigensystem, and no factor a root of rho
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition on a factor path")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        grid = SweepGrid(r_values=(0.01, 1.0, 100.0), alpha_values=(0.0, 2.0),
                         observables=("purity", "concurrence"))
        assert sweep_records(grid)["concurrence"].shape == (6,)
        assert optimize_concurrence(2.0, 0.01, 10.0).flag == "interior"

    @staticmethod
    def temporaries(n_r, n_alpha):
        """tracemalloc's peak over sweep_records beyond the table it returns."""
        grid = SweepGrid(r_values=np.geomspace(0.01, 10.0, n_r),
                         alpha_values=np.linspace(0.0, 5.0, n_alpha))
        tracemalloc.start()
        try:
            table = sweep_records(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(column.nbytes for column in table.values())

    # a block's temporaries are about 1 KB a point, so about 3 MiB
    @pytest.mark.parametrize("n_alpha", [50, 500])
    def test_temporaries_stay_within_the_budget(self, n_alpha):
        assert self.temporaries(400, n_alpha) <= 4 * 2**20

    def test_one_long_row_is_many_blocks(self):
        assert self.temporaries(100_000, 1) <= 4 * 2**20


class TestTimeseries:
    def test_starts_at_zero_entropy(self):
        p = TwoSpinParams.from_dimensionless(0.5, 0.0)
        table = timeseries(p, [0.0, 1.0])
        assert list(table) == ["r", "alpha", "t", "entropy"]
        assert table["t"][0] == 0.0
        assert table["entropy"][0] == 0.0

    def test_long_time_reaches_stationary_value(self):
        from qreset.twospin import entropy_ness

        p = TwoSpinParams.from_dimensionless(0.5, 0.0)
        table = timeseries(p, [100.0])
        assert abs(table["entropy"][0] - entropy_ness(p)) < 1e-8

    def test_uncoupled_matches_simple_closed_form(self):
        def oracle(R, t):
            y = np.sqrt(
                (R * R + np.exp(-2 * R * t) + 2 * R * np.exp(-R * t) * np.sin(t))
                / (R * R + 1.0)
            )
            y = min(y, 1.0)
            s = LN2 - 0.5 * (1 + y) * np.log1p(y)
            if y < 1.0:
                s -= 0.5 * (1 - y) * np.log1p(-y)
            return s

        p = TwoSpinParams.from_dimensionless(0.7, 0.0)
        table = timeseries(p, np.linspace(0.0, 12.0, 25))
        for t, entropy in zip(table["t"], table["entropy"]):
            assert abs(entropy - oracle(0.7, t)) <= 1e-12

    def test_fidelity_observable(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        table = timeseries(p, [0.0, 2.0], observables=("entropy", "fidelity"))
        assert table["fidelity"][0] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= table["fidelity"][1] <= 1.0

    def test_rejects_unsorted_times(self):
        p = TwoSpinParams.from_dimensionless(1.0, 0.0)
        with pytest.raises(ValueError):
            timeseries(p, [2.0, 1.0])

    @pytest.mark.parametrize("ts", [[-1.0, 0.0], [0.0, math.nan], [0.0, 1.0, math.inf],
                                    (t for t in [0.0, 2.0, 1.0])])
    def test_rejects_negative_non_finite_or_unsorted_times(self, ts):
        p = TwoSpinParams.from_dimensionless(1.0, 0.0)
        with pytest.raises(ValueError, match="t values must be finite, >= 0, ascending"):
            timeseries(p, ts)

    @pytest.mark.parametrize("observables", [("purity",), ("entropy", "concurrence")])
    def test_rejects_stationary_only_observables(self, observables):
        p = TwoSpinParams.from_dimensionless(1.0, 0.0)
        bad = sorted(set(observables) - {"entropy"})
        with pytest.raises(ValueError) as info:
            timeseries(p, [0.0, 1.0], observables)
        assert str(info.value) == f"timeseries supports entropy/fidelity, got {bad}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("R, t_max", [(0.0, 1e300)])
    def test_rejects_states_beyond_phase_precision(self, R, t_max):
        # |omega t| >> 1/eps leaves the phases without digits: at R = 0
        # nothing damps the transient, and the phase budget refuses it
        p = TwoSpinParams.from_dimensionless(R, 1.0)
        with pytest.raises(ValueError):
            timeseries(p, [0.0, t_max / 2, t_max], observables=("fidelity",))

    def test_fidelity_needs_no_eigensolver(self, monkeypatch):
        # both columns come from the closed forms: no system is built, so
        # neither H nor rho0 is diagonalised
        calls = []

        def counted(name):
            solver = getattr(np.linalg, name)
            return lambda m: calls.append((name, m.shape)) or solver(m)

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        p = TwoSpinParams.from_dimensionless(0.5, 1.0)
        table = timeseries(p, np.linspace(0.0, 30.0, 401), ("entropy", "fidelity"))
        assert calls == []
        assert table["fidelity"][0] == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_positive_rate_settles_beyond_phase_precision(self, alpha):
        # at R t = 1e308 the phases omega t overflow, but exp(-R t) is
        # exactly 0 and the state is the stationary one to round-off
        p = TwoSpinParams.from_dimensionless(1.0, alpha)
        table = timeseries(p, [0.0, 5e307, 1e308], observables=("fidelity",))
        assert table["fidelity"][1:] == pytest.approx([fidelity_ness(p)] * 2, abs=1e-12)


class TestBracketedMax:
    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            sweep._bracketed_max(lambda x: -x * x, 0.5, 2.0, tol)
        with pytest.raises(ValueError):
            optimize_concurrence(2.0, 0.01, 10.0, tol=tol)
        with pytest.raises(ValueError):
            find_entropy_peak_rate(5.0, 0.3, 1e-3, 3.0, tol=tol)

    def test_tolerance_below_one_ulp_terminates(self):
        sizes = []

        def f(x):
            sizes.append(len(x))
            if len(sizes) > 100:
                raise RuntimeError("the probe rounds do not terminate")
            return -(x - 1.3) ** 2

        res = sweep._bracketed_max(f, 0.01, 10.0, tol=1e-300)
        assert res.x == pytest.approx(1.3, rel=4 * np.finfo(float).eps)
        assert set(sizes) == {65} and len(sizes) <= 10

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-10])
    @pytest.mark.parametrize("peak", [0.0123, 1.3, 7.77])
    def test_quadratic(self, peak, tol):
        res = sweep._bracketed_max(lambda x: -(x - peak) ** 2, 0.01, 10.0, tol)
        assert res.flag == "interior"
        assert abs(res.x - peak) <= tol / 2
        assert res.value == -(res.x - peak) ** 2


def recorded_solve(monkeypatch, solve, *args, **kwargs):
    """The solve's result and the (points, values) of every objective call
    its _bracketed_max makes."""
    seen = []
    bracketed_max = sweep._bracketed_max

    def recording(f, lo, hi, tol):
        def g(rates):
            values = f(rates)
            seen.append((np.array(rates), np.array(values)))
            return values

        return bracketed_max(g, lo, hi, tol)

    monkeypatch.setattr(sweep, "_bracketed_max", recording)
    return solve(*args, **kwargs), seen


class TestProbeRounds:
    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-300])
    @pytest.mark.parametrize("solve, args", [
        (optimize_concurrence, (3.3, 0.01, 10.0)),
        (optimize_concurrence, (7.0, 0.01, 10.0)),
        (optimize_concurrence, (11.5, 0.01, 10.0)),
        (find_entropy_peak_rate, (5.0, 0.3, 1e-3, 3.0)),
        (find_entropy_peak_rate, (3.0, 0.0, 1e-3, 3.0)),
        (find_entropy_peak_rate, (8.0, 0.45, 1e-3, 3.0)),
    ])
    def test_reports_the_best_probe(self, monkeypatch, solve, args, tol):
        res, seen = recorded_solve(monkeypatch, solve, *args, tol=tol)
        rates = np.concatenate([r for r, _ in seen])
        values = np.concatenate([v for _, v in seen])
        assert res.flag == "interior"
        assert res.value == values.max()
        assert res.x in rates[values == res.value]
        assert all(len(r) == 65 for r, _ in seen) and len(seen) <= 10

    @pytest.mark.parametrize("tol", [1e-8, 1e-300])
    def test_bracket_over_600_decades_finds_the_interior_peak(self, monkeypatch, tol):
        # the peak sits near 0.07, hundreds of decades from either end; the
        # constants are the 50-digit maximiser and maximum
        res, seen = recorded_solve(monkeypatch, optimize_concurrence,
                                   7.0, 1e-300, 1e300, tol=tol)
        assert res.flag == "interior"
        assert res.x == pytest.approx(0.071060783086884616, abs=5e-9)
        assert res.value == pytest.approx(0.49369797516266893, abs=1e-15)
        assert res.value == max(v.max() for _, v in seen)


class TestOptimizeConcurrence:
    def test_flat_zero_is_degenerate(self):
        res = optimize_concurrence(0.0, 0.01, 10.0)
        assert res.flag == "degenerate"
        assert res.value <= 1e-10

    def test_interior_maximum(self):
        res = optimize_concurrence(2.0, 0.01, 10.0)
        assert res.flag == "interior"
        from qreset.twospin import concurrence_ness

        for edge in (0.01, 10.0):
            assert res.value > concurrence_ness(
                TwoSpinParams.from_dimensionless(edge, 2.0)
            )
        # dense-sweep regression constants
        assert res.value == pytest.approx(0.432039, abs=2e-6)
        assert res.x == pytest.approx(0.234147, abs=1e-3)

    def test_boundary_flag(self):
        # peak for alpha=2 sits near R~0.23; a box to its right is boundary
        res = optimize_concurrence(2.0, 1.0, 10.0)
        assert res.flag == "boundary"
        assert res.x == 1.0

    def test_stationary_gradient(self):
        from qreset.twospin import concurrence_ness

        res = optimize_concurrence(2.0, 0.01, 10.0)
        h = 1e-6
        f = lambda r: concurrence_ness(TwoSpinParams.from_dimensionless(r, 2.0))
        grad = (f(res.x + h) - f(res.x - h)) / (2 * h)
        assert abs(grad) < 1e-5

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            optimize_concurrence(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            optimize_concurrence(1.0, 0.5, math.inf)
        # the coupling is checked before the bracket, by its name
        with pytest.raises(ValueError, match="alpha must be finite and >= 0, got -1.0"):
            optimize_concurrence(-1.0, 1.0, 0.5)

    @pytest.mark.filterwarnings("error")
    # the engine merges -gamma and -alpha from 1.6e4, the factor never
    @pytest.mark.parametrize("alpha", [0.0, 2.0, 3.3, 7.0, 10.0, 11.5,
                                       1.5e4, 1.58e4, 1.6e4, 1.7e4])
    def test_equals_the_point_by_point_path_bit_for_bit(self, monkeypatch, alpha):
        # every value the stacked objective hands the optimizer, and the
        # optimum, equal those of one system and one state per rate
        bracketed_max = sweep._bracketed_max
        res, seen = recorded_solve(monkeypatch, optimize_concurrence, alpha, 0.01, 10.0)
        point = lambda r: concurrence_ness(TwoSpinParams.from_dimensionless(r, alpha))
        assert len(seen[0][0]) == 65
        for rates, values in seen:
            assert values.tolist() == [point(float(r)) for r in rates]
        ref = bracketed_max(lambda rates: [point(r) for r in rates], 0.01, 10.0, 1e-8)
        assert (res.x, res.value, res.flag) == (ref.x, ref.value, ref.flag)

    def test_one_closed_form_call_per_probe_round(self, monkeypatch):
        # each round of 65 probes is one call at the one coupling
        calls = []
        real = twospin.concurrence_ness_stack
        monkeypatch.setattr(twospin, "concurrence_ness_stack", lambda alpha, rates: (
            calls.append((alpha.tolist(), len(rates))) or real(alpha, rates)))
        res, seen = recorded_solve(monkeypatch, optimize_concurrence, 2.0, 0.01, 10.0)
        assert res.flag == "interior" and len(seen) > 1
        assert calls == [([2.0], 65)] * len(seen)


class TestEntropyPeakRate:
    def test_peak_rate_decreases_with_time(self):
        stars = []
        for t in (1.0, 5.0, 20.0):
            res = find_entropy_peak_rate(t, 0.0, 1e-3, 3.0)
            assert res.flag == "interior"
            assert res.value <= LN2
            stars.append(res.x)
        assert stars[0] > stars[1] > stars[2]

    def test_regression_values(self):
        res = find_entropy_peak_rate(1.0, 0.0, 1e-3, 3.0)
        assert res.x == pytest.approx(1.130698, abs=1e-4)
        assert res.value == pytest.approx(0.141312, abs=1e-6)

    def test_long_time_peak_near_zero(self):
        res = find_entropy_peak_rate(200.0, 0.0, 1e-3, 3.0)
        assert res.x < 0.05
        assert res.x == pytest.approx(0.019959, abs=1e-4)

    def test_stationary_gradient(self):
        from qreset.twospin import entropy_at_time

        res = find_entropy_peak_rate(5.0, 0.0, 1e-3, 3.0)
        h = 1e-6
        f = lambda r: entropy_at_time(5.0, TwoSpinParams.from_dimensionless(r, 0.0))
        grad = (f(res.x + h) - f(res.x - h)) / (2 * h)
        assert abs(grad) < 1e-5

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            find_entropy_peak_rate(0.0, 0.0, 0.1, 1.0)

    def test_refuses_phases_without_digits(self):
        # the phase budget falls as the rate grows, so the lowest rate
        # decides; there R t = 1e-3 and nothing damps the transient
        with pytest.raises(ValueError, match=r"keep too few digits at t = 1e\+17 \(R = 1e-20\)"):
            find_entropy_peak_rate(1e17, 1.0, 1e-20, 1.0)
        # a bracket that is no bracket is refused as such
        with pytest.raises(ValueError, match="need finite 0 < r_lo < r_hi"):
            find_entropy_peak_rate(1e17, 1.0, math.nan, 1.0)

    @pytest.mark.parametrize("t, alpha", [(1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
                                          (math.nan, 0.0), (math.inf, 0.0)])
    def test_validates_once_at_entry(self, t, alpha, monkeypatch):
        calls = []
        monkeypatch.setattr(twospin, "finite_time_columns", lambda *a: calls.append(a))
        with pytest.raises(ValueError):
            find_entropy_peak_rate(t, alpha, 0.1, 1.0)
        assert calls == []

    def test_probes_go_in_one_call(self, monkeypatch):
        sizes = []
        body = twospin.finite_time_columns
        monkeypatch.setattr(twospin, "finite_time_columns", lambda t, R, alpha, observables: (
            sizes.append((R.size, observables)) or body(t, R, alpha, observables)))
        find_entropy_peak_rate(5.0, 0.3, 1e-3, 3.0)
        assert set(sizes) == {(65, ("entropy",))} and len(sizes) <= 10


# (R, alpha, dS/dalpha, d2S/dalpha2) from 60-digit arithmetic on the
# stationary entropy's closed form, differentiated numerically
ALPHA_DERIVATIVE_REFERENCE = [
    (0.1, 1.0, -0.0028624277349724340392, 0.056302125775329808771),
    (0.2, 1.5, -0.049152207358683623885, -0.060540036241342807759),
    (1.0, 0.5, -0.12979035325629670175, -0.26566109214840717736),
    (3.0, 7.0, -0.0026480035167969265428, 0.00095460749789143988686),
    (0.05, 30.0, -0.0088263412282111537685, 0.00057465794593222577311),
    # u = y^2 small: 2.6e-5, then below 1e-8 (the series branch)
    (0.001, 0.01, -0.0024990206298635292205, -0.24970631484049059879),
    (1e-6, 1e-4, -0.000024999999020829189146, -0.24999997062495939741),
    (1e-9, 1e-7, -2.4999999999999019698e-8, -0.24999999999997062496),
    # 1 - u ~ 1e-8: y nearly 1
    (10000.0, 2.0, -7.9227869785279063996e-15, -3.9613910179727585812e-15),
]
# root of dS/dalpha = d2S/dalpha2 = 0 in the default box, same arithmetic
CRITICAL_REFERENCE = (0.12364917511714784248, 1.27823757772657340072)


class TestEntropyAlphaDerivatives:
    @pytest.mark.parametrize("R, alpha, slope, curvature", ALPHA_DERIVATIVE_REFERENCE)
    def test_high_precision_reference(self, R, alpha, slope, curvature):
        assert entropy_alpha_slope(R, alpha) == pytest.approx(slope, rel=1e-12)
        assert entropy_alpha_curvature(R, alpha) == pytest.approx(curvature, rel=1e-12)

    @pytest.mark.parametrize("R, alpha", [(0.12, 1.3), (0.5, 0.2), (2.0, 4.0)])
    def test_matches_finite_differences_of_the_entropy(self, R, alpha):
        s = lambda a: entropy_ness(TwoSpinParams.from_dimensionless(R, a))
        h = 1e-4
        slope = (s(alpha + h) - s(alpha - h)) / (2 * h)
        curvature = (s(alpha + h) - 2 * s(alpha) + s(alpha - h)) / (h * h)
        assert entropy_alpha_slope(R, alpha) == pytest.approx(slope, abs=1e-7)
        assert entropy_alpha_curvature(R, alpha) == pytest.approx(curvature, abs=1e-5)

    def test_parity_in_alpha(self):
        for R, alpha in [(0.1, 1.0), (3.0, 7.0)]:
            assert entropy_alpha_slope(R, -alpha) == -entropy_alpha_slope(R, alpha)
            assert entropy_alpha_curvature(R, -alpha) == entropy_alpha_curvature(R, alpha)
        assert entropy_alpha_slope(0.3, 0.0) == 0.0
        assert entropy_alpha_curvature(0.3, 0.0) < 0.0

    @pytest.mark.parametrize("R", [5e-324, 1e-300, 1e-160, 1e-9, 1.0, 1e9, 1e77, 1e149])
    @pytest.mark.parametrize("alpha", [0.0, 5e-324, 1e-9, 1.0, 1e9, 1e77, 1e149])
    def test_finite_over_the_representable_range(self, R, alpha):
        # y rounds to 1 at large R, 1 - u reaches ~1e-298, u rounds to 0
        # at small R and alpha: none of it may raise or leave a non-finite value
        assert math.isfinite(entropy_alpha_slope(R, alpha))
        assert math.isfinite(entropy_alpha_curvature(R, alpha))

    @pytest.mark.parametrize("R", [1e-9, 1.0, 1e160, 1e300, 1.7e308])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1e160, 1.7e308])
    def test_never_raises_beyond_it(self, R, alpha):
        for value in (entropy_alpha_slope(R, alpha), entropy_alpha_curvature(R, alpha)):
            assert isinstance(value, float)

    @pytest.mark.parametrize("R, alpha", [(math.nan, 1.0), (math.inf, 1.0),
                                          (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_input_gives_nan(self, R, alpha):
        assert math.isnan(entropy_alpha_slope(R, alpha))
        assert math.isnan(entropy_alpha_curvature(R, alpha))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_zero_rate_is_the_vanishing_rate_limit(self, alpha):
        h = 1e-4
        s = twospin.entropy_zero_reset
        slope = (s(alpha + h) - s(alpha - h)) / (2 * h)
        assert entropy_alpha_slope(0.0, alpha) == pytest.approx(slope, abs=1e-7)
        assert entropy_alpha_slope(-1e-3, alpha) == entropy_alpha_slope(1e-3, alpha)


class TestFindInflection:
    def test_default_box(self):
        cp = find_inflection()
        assert cp.r_c == pytest.approx(0.12, abs=0.01)
        assert cp.alpha_c == pytest.approx(1.27, abs=0.01)
        assert cp.residuals[0] < 1e-7
        assert cp.residuals[1] < 1e-7

    def test_regression_values(self):
        cp = find_inflection()
        assert cp.r_c == pytest.approx(0.123649, abs=1e-5)
        assert cp.alpha_c == pytest.approx(1.278238, abs=1e-5)

    def test_high_precision_reference(self):
        cp = find_inflection()
        assert cp.r_c == pytest.approx(CRITICAL_REFERENCE[0], abs=1e-12)
        assert cp.alpha_c == pytest.approx(CRITICAL_REFERENCE[1], abs=1e-12)
        assert max(cp.residuals) <= 1e-12
        assert cp.residuals == (
            abs(entropy_alpha_slope(cp.r_c, cp.alpha_c)),
            abs(entropy_alpha_curvature(cp.r_c, cp.alpha_c)),
        )

    @pytest.mark.parametrize("box", [
        (0.05, 0.3, 0.0, 2.0),
        (0.05, 0.3, 0.001, 2.0),
        (0.1, 0.13, 1.2, 1.3),
        (0.12364, 0.12366, 1.278, 1.2785),
        (5e-324, 0.3, 0.8, 2.0),
        (1e-9, 1e9, 0.0, 1e9),
        (1e-6, 1e6, 0.0, 1e3),
        (5e-324, 1.7e308, 0.0, 1.7e308),
    ])
    def test_every_box_around_the_point_finds_it(self, box):
        cp = find_inflection(*box)
        assert cp.r_c == pytest.approx(CRITICAL_REFERENCE[0], abs=1e-13)
        assert cp.alpha_c == pytest.approx(CRITICAL_REFERENCE[1], abs=1e-12)
        assert max(cp.residuals) <= 1e-12

    def test_slope_negative_above_critical_rate(self):
        cp = find_inflection()
        for alpha in np.linspace(0.8, 2.0, 13):
            assert entropy_alpha_slope(cp.r_c + 0.01, float(alpha)) < 0.0

    def test_unbracketed_box_raises(self):
        with pytest.raises(SolverError):
            find_inflection(r_lo=0.2, r_hi=0.3)

    @pytest.mark.parametrize("box", [
        (2.0, 3.0, 5.0, 6.0),
        (0.1, 0.3, 1.5, 2.0),
    ])
    def test_box_without_the_point_raises_solver_error(self, box):
        with pytest.raises(SolverError, match="does not hold the inflection point"):
            find_inflection(*box)

    def test_the_box_is_closed(self):
        r_c, alpha_c = twospin.CRITICAL_R, twospin.CRITICAL_ALPHA
        for box in [(r_c, 0.3, 0.8, alpha_c), (0.05, r_c, alpha_c, 2.0)]:
            cp = find_inflection(*box)
            assert (cp.r_c, cp.alpha_c) == (r_c, alpha_c)
        for box in [(math.nextafter(r_c, 1.0), 0.3, 0.8, 2.0),
                    (0.05, math.nextafter(r_c, 0.0), 0.8, 2.0),
                    (0.05, 0.3, math.nextafter(alpha_c, 2.0), 2.0),
                    (0.05, 0.3, 0.8, math.nextafter(alpha_c, 0.0))]:
            with pytest.raises(SolverError):
                find_inflection(*box)

    @pytest.mark.parametrize("box", [
        (0.05, 0.3, 2.0, 0.8),
        (0.3, 0.05, 0.8, 2.0),
        (0.0, 0.3, 0.8, 2.0),
        (0.05, 0.3, -0.1, 2.0),
        (0.05, 0.3, 0.8, 0.8),
        (0.05, math.inf, 0.8, 2.0),
        (0.05, 0.3, math.nan, 2.0),
    ])
    def test_invalid_box_raises_value_error(self, box):
        with pytest.raises(ValueError):
            find_inflection(*box)

    def test_evaluation_budget(self, monkeypatch):
        # the point is exact: nothing is searched, and the one evaluation of
        # the closed form at the point gives both residuals
        calls = []
        real = twospin.entropy_ness_alpha_derivatives
        monkeypatch.setattr(twospin, "entropy_ness_alpha_derivatives",
                            lambda r, a: calls.append((r, a)) or real(r, a))
        find_inflection()
        assert calls == [(twospin.CRITICAL_R, twospin.CRITICAL_ALPHA)]


# dv/dA = -4 N(Q, A)/[(1 + Q)^6 (1 + c A)^3 (4 A + b)^3] with Q = R^2, A =
# alpha^2, c = 4 Q/(1 + Q)^2 and b = Q + 4 (see twospin.CRITICAL_R); the
# coefficients of N in A, highest power first, and of P, the factor of N's
# discriminant in A whose root is Q_c, highest first
def n_coefficients(Q):
    return [256 * Q**3 + 512 * Q**2,
            256 * Q**4 + 1792 * Q**3 + 1344 * Q**2,
            96 * Q**5 + 960 * Q**4 + 2448 * Q**3 + 1536 * Q**2 - 48 * Q,
            16 * Q**6 + 176 * Q**5 + 684 * Q**4 + 1152 * Q**3 + 656 * Q**2 + 24 * Q - 4,
            Q**7 + 10 * Q**6 + 39 * Q**5 + 80 * Q**4 + 95 * Q**3 + 66 * Q**2 + 25 * Q + 4]


P_COEFFICIENTS = [5184, 92304, 651376, 2326560, 4392312, 3965528, 850992, -633117,
                  -153719, 729, 27]


def n_value(Q, A):
    return sum(c * A**k for k, c in zip(range(4, -1, -1), n_coefficients(Q)))


class TestCriticalPointIsAlgebraic:
    """twospin.CRITICAL_R and CRITICAL_ALPHA are the correctly rounded
    double root of N in A at the root Q_c of P, and the only point with R >
    0, alpha >= 0: below Q_c, N has two positive roots in A (the entropy's
    minimum and maximum in alpha), above it none."""

    def test_dv_da_is_minus_four_n_over_a_positive_denominator(self):
        rng = random.Random(28)
        for _ in range(200):
            Q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            A = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
            # v = p s (2 - s) - 4 A w^2 (see twospin._ness_factors), with s
            # depending on A through k = A Q p^2 and w through 1/w = 4 A + Q + 4
            p = 1 / (1 + Q)
            s, w = 1 / (1 + 4 * A * Q * p**2), 1 / (4 * A + Q + 4)
            ds, dw = -4 * Q * p**2 * s**2, -4 * w**2
            dv = 2 * p * (1 - s) * ds - 4 * w**2 - 8 * A * w * dw
            c, b = 4 * Q * p**2, Q + 4
            assert dv == -4 * n_value(Q, A) / ((1 + Q)**6 * (1 + c * A)**3 * (4 * A + b)**3)

    def test_constants_are_the_double_root_correctly_rounded(self):
        with mpmath.workdps(50):
            Q_c = mpmath.findroot(lambda q: mpmath.polyval(P_COEFFICIENTS, q),
                                  mpmath.mpf(twospin.CRITICAL_R)**2)
            assert abs(mpmath.polyval(P_COEFFICIENTS, Q_c)) < mpmath.mpf(10)**-45
            n = n_coefficients(Q_c)
            dn = [4 * n[0], 3 * n[1], 2 * n[2], n[3]]
            A_c = mpmath.findroot(lambda a: mpmath.polyval(dn, a),
                                  mpmath.mpf(twospin.CRITICAL_ALPHA)**2)
            # N and dN/dA vanish together: A_c is a double root
            assert abs(mpmath.polyval(n, A_c)) < mpmath.mpf(10)**-45
            assert abs(mpmath.polyval(dn, A_c)) < mpmath.mpf(10)**-45
            for exact, rounded in ((mpmath.sqrt(Q_c), twospin.CRITICAL_R),
                                   (mpmath.sqrt(A_c), twospin.CRITICAL_ALPHA)):
                assert abs(exact - mpmath.mpf(rounded)) <= mpmath.mpf(math.ulp(rounded)) / 2
            # the 20-digit reference of the tests agrees
            assert abs(mpmath.sqrt(Q_c) - mpmath.mpf("0.12364917511714784248")) < 1e-20
            assert abs(mpmath.sqrt(A_c) - mpmath.mpf("1.27823757772657340072")) < 1e-20

    def test_positive_roots_in_a_only_below_the_critical_rate(self):
        Q_c = twospin.CRITICAL_R**2
        with mpmath.workdps(50):
            for Q in np.geomspace(1e-8, 1e6, 113).tolist():
                roots = mpmath.polyroots(n_coefficients(mpmath.mpf(Q)), maxsteps=200,
                                         extraprec=100)
                positive = [r for r in roots
                            if abs(mpmath.im(r)) < 1e-20 and mpmath.re(r) > 0]
                assert len(positive) == (2 if Q < Q_c else 0), Q

    def test_curvature_at_zero_coupling_is_never_zero(self):
        # at alpha = 0 the curvature is 2 S_u du/dA, a nonzero multiple of
        # N(Q, 0) = Q^7 + ... + 4 > 0, so alpha = 0 is never the point
        for R in np.geomspace(1e-8, 1e6, 57).tolist():
            assert entropy_alpha_curvature(R, 0.0) < 0.0


class TestMcValidate:
    def test_zero_rate_matches_exactly(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        p0 = TwoSpinParams(omega=1.0, j=1.0, r=0.0)
        report = mc_validate(p0, t=2.0, n_traj=100, seed=1)
        assert report.max_std_dev == 0.0
        assert report.passed

    def test_against_renewal_density(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        report = mc_validate(p, t=3.0, n_traj=5000, seed=11)
        assert report.passed
        assert report.max_std_dev <= 5.0

    def test_against_stationary_state(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        report = mc_validate(p, t=40.0, n_traj=5000, seed=12, against="ness")
        assert report.passed

    def test_threshold_failure_reported(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        report = mc_validate(p, t=3.0, n_traj=500, seed=13, threshold=1e-6)
        assert not report.passed

    def test_rejects_unknown_reference(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        with pytest.raises(ValueError):
            mc_validate(p, t=1.0, n_traj=10, seed=0, against="exact")

    @pytest.mark.parametrize("R", [1e-300, 1e-12, 1.0])
    @pytest.mark.parametrize("t", [1.0, 1e7, 1e13, 1e200])
    def test_both_references_refuse_by_one_phase_budget(self, R, t):
        # where few trajectories reset, every age is t, the standard errors
        # are 0 and the tolerance is 2b: the stationary comparison must
        # refuse where the finite-time one does, with its message
        p = TwoSpinParams.from_dimensionless(R, 1.0)

        def refusal(against):
            try:
                mc_validate(p, t=t, n_traj=10, seed=0, against=against)
            except ValueError as exc:
                return str(exc)
            return None

        assert refusal("ness") == refusal("reset")

    @pytest.mark.parametrize("t", [1e5, 1e6])
    def test_zero_rate_passes_at_long_times(self, t):
        # the trajectories are identical, so every standard error is 0 and
        # only the round-off of the phases E t separates them from the exact
        # matrix
        p0 = TwoSpinParams(omega=1.0, j=1.0, r=0.0)
        report = mc_validate(p0, t=t, n_traj=10, seed=0)
        assert report.passed
        assert report.max_std_dev == 0.0

    @pytest.mark.parametrize("offset, passed", [(0.5, True), (1.5, False)])
    def test_deterministic_entries_are_held_to_the_phase_roundoff(
            self, monkeypatch, offset, passed):
        p0 = TwoSpinParams(omega=2.0, j=2.0, r=0.0)
        t = 1e6  # rescaled; the physical time is t / omega
        # the documented tolerance, twice the engine's phase budget at the
        # physical time
        tol = 2.0 * float(_phase_budget(quantum_system(p0), 0.0, t / 2.0))
        assert tol > 100 * sweep.STDERR_FLOOR
        real = sweep.estimate_density

        def shifted(sys, cfg):
            est = real(sys, cfg)
            rho = est.rho_hat.copy()
            rho[0, 3] += offset * tol
            return dataclasses.replace(est, rho_hat=rho)

        monkeypatch.setattr(sweep, "estimate_density", shifted)
        report = mc_validate(p0, t=t, n_traj=10, seed=0)
        assert report.passed is passed
        # a miss reports the largest finite float, which JSON can hold
        assert report.max_std_dev == (0.0 if passed else np.finfo(float).max)

    @pytest.mark.parametrize("t, n_traj", [(1e12, 1_000_000), (1e15, 1000)])
    def test_biased_estimate_fails_at_positive_rate_and_long_times(
            self, monkeypatch, t, n_traj):
        # at a positive rate a trajectory's age is min(Exp(r), t), so no
        # phase round-off grows with t: a 10-stderr bias must fail however
        # long the run, and be measured in standard errors
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        real = sweep.estimate_density

        def biased(sys, cfg):
            est = real(sys, cfg)
            k = np.unravel_index(np.argmax(est.stderr_re), est.stderr_re.shape)
            rho = est.rho_hat.copy()
            rho[k] += 10.0 * est.stderr_re[k]
            return dataclasses.replace(est, rho_hat=rho)

        monkeypatch.setattr(sweep, "estimate_density", biased)
        for against in ("reset", "ness"):
            report = mc_validate(p, t=t, n_traj=n_traj, seed=0, against=against)
            assert not report.passed
            assert 5.0 < report.max_std_dev < 20.0
