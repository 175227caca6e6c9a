import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qreset import sweep, twospin

from qreset.observables import concurrence_factor_stack, fidelity_pure
from qreset.reset_core import ResetSpec, reset_density
from qreset.sweep import (
    BoundsError,
    SolverError,
    SweepGrid,
    check_box,
    entropy_alpha_curvature,
    entropy_alpha_slope,
    find_entropy_peak_rate,
    find_inflection,
    mc_validate,
    optimize_concurrence,
    sweep_records,
    timeseries,
    _check_bounds,
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


def table_of(**columns):
    return {name: np.array(values, dtype=float) for name, values in columns.items()}


class TestRecords:
    def test_bounds_flagging(self):
        with pytest.raises(BoundsError):
            _check_bounds(table_of(r=[1.0], alpha=[0.0], entropy=[5.0]))
        assert _check_bounds(table_of(r=[1.0], alpha=[0.0], fidelity=[0.3], purity=[1.0])) is None

    def test_names_the_first_bad_row_and_all_its_violations(self):
        table = table_of(r=[0.5, 1.0, 2.0], alpha=[0.0, 0.25, 3.0], entropy=[0.1, math.nan, 0.9],
                         fidelity=[0.5, 1.5, 2.0], purity=[0.5, 0.5, -1.0],
                         concurrence=[0.0, 1.0, 0.0])
        with pytest.raises(BoundsError) as err:
            _check_bounds(table)
        assert str(err.value) == (
            "record at (r=1.0, alpha=0.25): entropy nan outside [0, ln 2]; "
            "fidelity 1.5 outside [0, 1]"
        )

    @pytest.mark.parametrize("name, inside, outside", [
        ("entropy", (-1e-12, LN2 + 1e-9), (-2e-12, LN2 + 2e-9)),
        ("fidelity", (-1e-12, 1.0 + 1e-12), (-2e-12, 1.0 + 3e-12)),
        ("purity", (-1e-12, 1.0 + 1e-12), (-2e-12, 1.0 + 3e-12)),
        ("concurrence", (-1e-12, 1.0 + 1e-12), (math.nan, math.inf)),
    ])
    def test_slack_at_each_bound(self, name, inside, outside):
        _check_bounds({"r": np.ones(2), "alpha": np.zeros(2), name: np.array(inside)})
        for k, v in enumerate(outside):
            column = np.array(inside)
            column[k] = v
            with pytest.raises(BoundsError, match=f"^record at \\(r=1.0, alpha=0.0\\): {name} "):
                _check_bounds({"r": np.ones(2), "alpha": np.zeros(2), name: column})


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
        for R, alpha, omega in ((0.7, 1.3, 1.0), (1e-3, 12.0, 1.0), (2.0, 0.0, 2.5)):
            p = TwoSpinParams(omega=omega, j=alpha * omega, r=R * omega)
            ts = np.linspace(0.0, 25.0, 101)
            sys = quantum_system(p)
            expected = {
                "r": [p.R] * ts.size,
                "alpha": [p.alpha] * ts.size,
                "t": ts.tolist(),
                "entropy": [entropy_at_time(float(t), p) for t in ts],
                "fidelity": [
                    fidelity_pure(reset_density(sys, ResetSpec(p.r), float(t) / p.omega), DOWN_DOWN)
                    for t in ts
                ],
            }
            # observables come out in canonical order, whatever the request's
            table = timeseries(p, ts, observables=("fidelity", "entropy"))
            assert list(table) == list(expected)
            for name, column in expected.items():
                assert np.array_equal(table[name], column), name
            assert table["t"][0] == 0.0 and table["fidelity"][0] == 1.0


class TestRowBlocks:
    """sweep_records evaluates the grid in blocks of coupling rows sized to
    sweep._BLOCK_BYTES; the block size changes neither the table nor, past
    one block, the memory it takes."""

    def test_block_size_does_not_change_the_table(self, monkeypatch):
        # alpha = 0 takes the degeneracy branch of the stationary state
        grid = SweepGrid(r_values=tuple(np.geomspace(1e-3, 1e3, 23)),
                         alpha_values=(0.0, 0.05, 0.5, 1.0, 2.5, 6.0, 12.0))
        stacks = []
        counted = lambda factors: stacks.append(len(factors)) or concurrence_factor_stack(factors)
        monkeypatch.setattr(sweep, "concurrence_factor_stack", counted)
        tables = []
        for budget in (1, 10**12):  # one row per block, then the whole grid
            monkeypatch.setattr(sweep, "_BLOCK_BYTES", budget)
            tables.append(sweep_records(grid))
        assert stacks == [23] * 7 + [23 * 7]
        one_row, whole = tables
        assert list(one_row) == list(whole)
        for name in whole:
            assert one_row[name].tobytes() == whole[name].tobytes(), name

    def test_no_eigendecomposition_on_the_factor_paths(self, monkeypatch):
        # the eigensystems are closed forms and the factors need no root of rho
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition on a factor path")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        grid = SweepGrid(r_values=(0.01, 1.0, 100.0), alpha_values=(0.0, 2.0),
                         observables=("purity", "concurrence"))
        assert sweep_records(grid)["concurrence"].shape == (6,)
        assert optimize_concurrence(2.0, 0.01, 10.0).flag == "interior"

    @pytest.mark.parametrize("n_alpha", [50, 500])
    def test_temporaries_stay_within_the_budget(self, n_alpha):
        grid = SweepGrid(r_values=tuple(np.geomspace(0.01, 10.0, 400)),
                         alpha_values=tuple(np.linspace(0.0, 5.0, n_alpha)))
        tracemalloc.start()
        try:
            table = sweep_records(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = sum(column.nbytes for column in table.values())
        assert peak - table_bytes <= 2 * sweep._BLOCK_BYTES


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("R, t_max", [(0.0, 1e300)])
    def test_rejects_states_beyond_phase_precision(self, R, t_max):
        # |omega t| >> 1/eps leaves the renewal phases without digits: at
        # R = 0 nothing damps them and the matrices are not states
        p = TwoSpinParams.from_dimensionless(R, 1.0)
        with pytest.raises(ValueError):
            timeseries(p, [0.0, t_max / 2, t_max], observables=("fidelity",))

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

    @pytest.mark.parametrize("alpha", [0.0, 2.0, 3.3, 7.0, 10.0, 11.5])
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

    def test_builds_one_system_per_solve(self, monkeypatch):
        # the closed-form eigensystem of the one coupling serves every probe
        built = []
        real = twospin.eigensystem_array
        monkeypatch.setattr(twospin, "eigensystem_array",
                            lambda alpha: built.append(len(alpha)) or real(alpha))
        optimize_concurrence(2.0, 0.01, 10.0)
        assert built == [1]


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

    @pytest.mark.parametrize("t, alpha", [(1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
                                          (math.nan, 0.0), (math.inf, 0.0)])
    def test_validates_once_at_entry(self, t, alpha, monkeypatch):
        calls = []
        monkeypatch.setattr(twospin, "entropy_reset_array", lambda *a: calls.append(a))
        with pytest.raises(ValueError):
            find_entropy_peak_rate(t, alpha, 0.1, 1.0)
        assert calls == []

    def test_probes_go_in_one_call(self, monkeypatch):
        sizes = []
        body = twospin.entropy_reset_array
        monkeypatch.setattr(twospin, "entropy_reset_array",
                            lambda t, R, alpha: sizes.append(R.size) or body(t, R, alpha))
        find_entropy_peak_rate(5.0, 0.3, 1e-3, 3.0)
        assert set(sizes) == {65} and len(sizes) <= 10


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
        (0.05, 0.3, 0.001, 2.0),     # the first curvature zero has negative slope
        (0.1, 0.13, 1.2, 1.3),       # the slope's maximum leaves through alpha edges
        (0.12364, 0.12366, 1.278, 1.2785),
        (5e-324, 0.3, 0.8, 2.0),     # Newton is not tried at a subnormal rate
        (1e-9, 1e9, 0.0, 1e9),
        (1e-6, 1e6, 0.0, 1e3),
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
        (5e-324, 1.7e308, 0.0, 1.7e308),
    ])
    def test_box_without_the_point_raises_solver_error(self, box):
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
            check_box(*box)
        with pytest.raises(ValueError):
            find_inflection(*box)

    def test_evaluation_budget(self, monkeypatch):
        # the nested finite-difference solver this replaced made ~24k
        # entropy evaluations on the default box; each evaluation of the
        # closed form gives both residuals
        calls = []
        real = twospin.entropy_ness_alpha_derivatives
        monkeypatch.setattr(twospin, "entropy_ness_alpha_derivatives",
                            lambda r, a: calls.append(1) or real(r, a))
        find_inflection()
        assert len(calls) < 1000

    def test_scan_evaluates_each_point_once(self, monkeypatch):
        # the end nodes give both the curvature sign and the end slopes
        points = []
        real = twospin.entropy_ness_alpha_derivatives
        monkeypatch.setattr(twospin, "entropy_ness_alpha_derivatives",
                            lambda r, a: points.append((r, a)) or real(r, a))
        alphas = np.expm1(np.linspace(math.log1p(0.8), math.log1p(2.0), 65)).tolist()
        for r in (0.05, 0.12, 0.3):
            points.clear()
            sweep._slope_peak(r, alphas)
            assert len(points) == len(set(points)) >= len(alphas)


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
        energies = quantum_system(p0).eigensystem[0]
        # the documented tolerance, 4 eps max|E| t at the physical time
        tol = 4.0 * np.finfo(float).eps * np.abs(energies).max() * t / 2.0
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


class TestBoundsEnforcement:
    def test_sweep_aborts_on_violation(self, monkeypatch):
        monkeypatch.setattr(twospin, "fidelity_ness_array",
                            lambda R, alpha: np.full(R.shape, 1.5))
        grid = SweepGrid(r_values=(1.0,), alpha_values=(0.0,))
        with pytest.raises(BoundsError, match="fidelity 1.5 outside"):
            sweep_records(grid)

    def test_timeseries_aborts_on_violation(self, monkeypatch):
        monkeypatch.setattr(twospin, "entropy_reset_array",
                            lambda t, R, alpha: np.full(t.shape, 5.0))
        p = TwoSpinParams.from_dimensionless(1.0, 0.0)
        with pytest.raises(BoundsError, match="entropy 5.0 outside"):
            timeseries(p, [0.0, 1.0])
