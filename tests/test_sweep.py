import io

import numpy as np
import pytest

from qreset.observables import concurrence, fidelity_pure, purity
from qreset.reset_core import ResetSpec, ness_density, reset_density
from qreset.serialize import RecordWriter
from qreset.sweep import (
    BoundsError,
    ObservableRecord,
    SolverError,
    SweepGrid,
    entropy_alpha_slope,
    find_entropy_peak_rate,
    find_inflection,
    golden_section_max,
    mc_validate,
    optimize_concurrence,
    run_sweep,
    sweep_records,
    timeseries,
)
from qreset.twospin import (
    DOWN_DOWN,
    LN2,
    TwoSpinParams,
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


class TestRecords:
    def test_bounds_flagging(self):
        rec = ObservableRecord(r=1.0, alpha=0.0, entropy=5.0)
        assert rec.bounds_violations()
        rec = ObservableRecord(r=1.0, alpha=0.0, fidelity=0.3, purity=1.0)
        assert not rec.bounds_violations()


class TestRunSweep:
    def test_single_point_fidelity(self):
        grid = SweepGrid(
            r_values=(1.0,), alpha_values=(0.0,), observables=("fidelity",)
        )
        recs = sweep_records(grid)
        assert len(recs) == 1
        assert recs[0].fidelity == pytest.approx(0.65, abs=1e-15)
        assert recs[0].entropy is None

    def test_uncoupled_concurrence_is_zero(self):
        grid = SweepGrid(
            r_values=(0.1, 1.0, 5.0),
            alpha_values=(0.0,),
            observables=("concurrence",),
        )
        for rec in sweep_records(grid):
            assert rec.concurrence <= 1e-10

    def test_row_count_and_order(self):
        grid = SweepGrid(
            r_values=(0.5, 1.0), alpha_values=(0.0, 1.0, 2.0),
            observables=("entropy",),
        )
        sink = RecordWriter(io.StringIO(), "csv")
        assert run_sweep(grid, sink) == 6
        recs = sweep_records(grid)
        # alpha outer, rate inner
        assert [(r.alpha, r.r) for r in recs] == [
            (0.0, 0.5), (0.0, 1.0), (1.0, 0.5), (1.0, 1.0), (2.0, 0.5), (2.0, 1.0)
        ]

    def test_threads_do_not_change_results(self):
        grid = SweepGrid(
            r_values=(0.2, 1.0, 3.0), alpha_values=(0.0, 1.5),
        )
        assert sweep_records(grid, threads=1) == sweep_records(grid, threads=4)


class TestStackedEqualsPointwise:
    """The row-stacked engine reproduces, bit for bit, records built point
    by point from the public one-matrix functions."""

    def test_sweep_records(self):
        # alpha = 0 takes the degeneracy branch of the stationary state
        grid = SweepGrid(
            r_values=tuple(np.geomspace(1e-3, 1e3, 31)),
            alpha_values=(0.0, 0.05, 0.5, 1.0, 2.5, 6.0, 12.0),
        )
        expected = []
        for alpha in grid.alpha_values:
            for r in grid.r_values:
                p = TwoSpinParams.from_dimensionless(r, alpha)
                rho = ness_density(quantum_system(p), ResetSpec(p.r))
                expected.append(ObservableRecord(
                    r=r, alpha=alpha, entropy=entropy_ness(p),
                    fidelity=fidelity_ness(p), purity=purity(rho),
                    concurrence=concurrence(rho).value,
                ))
        assert sweep_records(grid) == expected

    def test_timeseries_fidelity(self):
        for R, alpha, omega in ((0.7, 1.3, 1.0), (1e-3, 12.0, 1.0), (2.0, 0.0, 2.5)):
            p = TwoSpinParams(omega=omega, j=alpha * omega, r=R * omega)
            ts = np.linspace(0.0, 25.0, 101)
            sys = quantum_system(p)
            expected = [
                ObservableRecord(
                    r=p.R, alpha=p.alpha, t=float(t), entropy=entropy_at_time(float(t), p),
                    fidelity=fidelity_pure(
                        reset_density(sys, ResetSpec(p.r), float(t) / p.omega), DOWN_DOWN),
                )
                for t in ts
            ]
            recs = timeseries(p, ts, observables=("entropy", "fidelity"))
            assert recs == expected
            assert recs[0].t == 0.0 and recs[0].fidelity == 1.0


class TestTimeseries:
    def test_starts_at_zero_entropy(self):
        p = TwoSpinParams.from_dimensionless(0.5, 0.0)
        recs = timeseries(p, [0.0, 1.0])
        assert recs[0].t == 0.0
        assert recs[0].entropy == 0.0

    def test_long_time_reaches_stationary_value(self):
        from qreset.twospin import entropy_ness

        p = TwoSpinParams.from_dimensionless(0.5, 0.0)
        recs = timeseries(p, [100.0])
        assert abs(recs[0].entropy - entropy_ness(p)) < 1e-8

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
        ts = np.linspace(0.0, 12.0, 25)
        for rec in timeseries(p, ts):
            assert abs(rec.entropy - oracle(0.7, rec.t)) <= 1e-12

    def test_fidelity_observable(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        recs = timeseries(p, [0.0, 2.0], observables=("entropy", "fidelity"))
        assert recs[0].fidelity == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= recs[1].fidelity <= 1.0

    def test_rejects_unsorted_times(self):
        p = TwoSpinParams.from_dimensionless(1.0, 0.0)
        with pytest.raises(ValueError):
            timeseries(p, [2.0, 1.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("R, t_max", [(0.0, 1e300), (1.0, 1e308)])
    def test_rejects_states_beyond_phase_precision(self, R, t_max):
        # |omega t| >> 1/eps leaves the renewal phases without digits: the
        # matrices are not states (R = 0) or not finite (omega t overflows)
        p = TwoSpinParams.from_dimensionless(R, 1.0)
        with pytest.raises(ValueError):
            timeseries(p, [0.0, t_max / 2, t_max], observables=("fidelity",))


class TestGoldenSection:
    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            golden_section_max(lambda x: -x * x, -1.0, 1.0, tol=tol)
        with pytest.raises(ValueError):
            optimize_concurrence(2.0, 0.01, 10.0, tol=tol)

    def test_tolerance_below_one_ulp_terminates(self):
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 1000:
                raise RuntimeError("golden section does not terminate")
            return -(x - 1.3) ** 2

        x, _ = golden_section_max(f, 0.0, 3.0, tol=1e-300)
        assert x == pytest.approx(1.3, abs=1e-8)
        assert len(calls) < 200

    def test_quadratic(self):
        x, v = golden_section_max(lambda x: -(x - 1.3) ** 2, 0.0, 3.0, tol=1e-10)
        assert x == pytest.approx(1.3, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-15)


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

    def test_slope_negative_above_critical_rate(self):
        cp = find_inflection()
        for alpha in np.linspace(0.8, 2.0, 13):
            assert entropy_alpha_slope(cp.r_c + 0.01, float(alpha)) < 0.0

    def test_unbracketed_box_raises(self):
        with pytest.raises(SolverError):
            find_inflection(r_lo=0.2, r_hi=0.3)


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


class TestBoundsEnforcement:
    def test_run_sweep_aborts_on_violation(self, monkeypatch):
        import qreset.sweep as sweep_mod

        def broken(grid, alpha):
            return [ObservableRecord(r=r, alpha=alpha, fidelity=1.5) for r in grid.r_values]

        monkeypatch.setattr(sweep_mod, "_row_records", broken)
        grid = SweepGrid(r_values=(1.0,), alpha_values=(0.0,))
        with pytest.raises(BoundsError):
            sweep_records(grid)
