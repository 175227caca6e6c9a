import csv
import importlib.util
import math
import pathlib

import mpmath
import numpy as np
import pytest

from qreset import observables, twospin
from qreset.observables import (
    concurrence_stack,
    purity,
    von_neumann_entropy,
)
from qreset.reset_core import (
    ResetSpec,
    _clustered,
    SubsystemSplit,
    ness_density,
    partial_trace,
    reset_density,
    unitary_evolve,
)
from qreset.twospin import (
    LN2,
    TwoSpinParams,
    concurrence_ness,
    concurrence_ness_stack,
    entropy_at_time,
    entropy_ness,
    entropy_zero_reset,
    fidelity_ness,
    hamiltonian,
    finite_time_columns,
    infidelity_reset_array,
    ness_columns,
    phase_budget,
    quantum_system,
    reduced_state_array,
    scaling_function,
)

SPLIT = SubsystemSplit(2, 2)


def ness_entropy(R, alpha):
    return ness_columns(R, alpha, ("entropy",))["entropy"]


def ness_fidelity(R, alpha):
    return ness_columns(R, alpha, ("fidelity",))["fidelity"]


def transient_entropy(t, R, alpha):
    return finite_time_columns(t, R, alpha, ("entropy",))["entropy"]


R_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0)
ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, 10.0)
T_GRID = (0.0, 0.3, 1.0, 3.0, 10.0)


def params(R, alpha):
    return TwoSpinParams.from_dimensionless(R, alpha)


def reduced_matrix(t, p):
    # [[up, c], [c*, 1 - up]] of the transient closed form at rescaled time t
    up, c = (x.item() for x in reduced_state_array(np.array(t), np.array(p.R), np.array(p.alpha)))
    return np.array([[up, c], [np.conj(c), 1.0 - up]])


def stationary_matrix(p):
    # exp(-R t) underflows to 0 at R t = 800, leaving the stationary part
    return reduced_matrix(800.0 / p.R, p)


def entropy_alpha0_closed_form(R, t):
    # uncoupled-pair time-dependent entropy through its simple y(t)
    y = np.sqrt(
        (R * R + np.exp(-2 * R * t) + 2 * R * np.exp(-R * t) * np.sin(t))
        / (R * R + 1.0)
    )
    y = min(y, 1.0)
    s = LN2 - 0.5 * (1 + y) * np.log1p(y)
    if y < 1.0:
        s -= 0.5 * (1 - y) * np.log1p(-y)
    return s


def stationary_entropy_alpha0(R):
    # compact closed form for the uncoupled pair
    s = np.sqrt(R * R + 1.0)
    return LN2 + 0.5 * np.log(1 + R * R) + (R / (2 * s)) * np.log((s - R) / (s + R))


class TestParams:
    def test_derived_quantities(self):
        p = TwoSpinParams(omega=2.0, j=3.0, r=0.5)
        assert p.R == 0.25
        assert p.alpha == 1.5
        assert p.gamma == pytest.approx(np.sqrt(3.25), abs=1e-15)

    def test_rejects_nonpositive_field(self):
        with pytest.raises(ValueError):
            TwoSpinParams(omega=0.0, j=1.0, r=1.0)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            TwoSpinParams(omega=1.0, j=-1.0, r=1.0)

    @pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_rate(self, r):
        with pytest.raises(ValueError, match=f"^r must be finite and >= 0, got {r}$"):
            TwoSpinParams(omega=1.0, j=1.0, r=r)


class TestHamiltonian:
    def test_ising_limit(self):
        h = hamiltonian(TwoSpinParams(omega=1e-12, j=1.0, r=0.0))
        assert np.abs(h - np.diag([-1.0, 1.0, 1.0, -1.0])).max() < 1e-11

    def test_free_spins_spectrum(self):
        h = hamiltonian(TwoSpinParams(omega=1.0, j=0.0, r=0.0))
        assert np.allclose(np.linalg.eigvalsh(h), [-1.0, 0.0, 0.0, 1.0], atol=1e-14)

    def test_coupled_spectrum(self):
        h = hamiltonian(params(1.0, 1.0))
        s2 = np.sqrt(2.0)
        assert np.allclose(np.linalg.eigvalsh(h), [-s2, -1.0, 1.0, s2], atol=1e-13)


class TestReducedState:
    # R = 0 is the reset-free evolution
    def test_t0_is_all_down(self):
        st = reduced_matrix(0.0, params(0.0, 1.0))
        assert st[0, 0] == 0.0
        assert st[0, 1] == 0.0

    def test_uncoupled_quarter_period(self):
        st = reduced_matrix(np.pi / 2.0, params(0.0, 0.0))
        assert st[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert st[0, 1] == pytest.approx(-0.5j, abs=1e-15)

    def test_matches_engine_on_grid(self):
        for alpha in ALPHA_GRID:
            p = params(0.0, alpha)
            sys = quantum_system(p)
            for t in T_GRID:
                engine = partial_trace(unitary_evolve(sys, t), SPLIT, "A")
                assert np.abs(engine - reduced_matrix(t, p)).max() < 1e-12


class TestReducedStateReset:
    def test_t0_is_all_down(self):
        # rho0 exactly, at every rate
        for R in (0.0, 1.0, 1e200):
            assert np.array_equal(reduced_matrix(0.0, params(R, 1.0)), [[0.0, 0.0], [0.0, 1.0]])

    def test_long_time_reaches_stationary(self):
        for R, alpha in [(0.5, 1.0), (1.0, 0.0), (2.0, 2.0)]:
            p = params(R, alpha)
            late = reduced_matrix(60.0 / R, p)
            assert np.abs(late - stationary_matrix(p)).max() < 1e-10
            # once exp(-R t) underflows, phases past the float range do not matter
            assert np.array_equal(reduced_matrix(1.7e308, p), stationary_matrix(p))

    def test_matches_engine_point(self):
        p = params(1.0, 1.0)
        engine = partial_trace(
            reset_density(quantum_system(p), ResetSpec(1.0), 2.0), SPLIT, "A"
        )
        assert np.abs(engine - reduced_matrix(2.0, p)).max() < 1e-10

    def test_oracle_equivalence_grid(self):
        # the module's core purpose: closed forms == generic engine
        for R in R_GRID:
            for alpha in ALPHA_GRID:
                p = params(R, alpha)
                sys = quantum_system(p)
                spec = ResetSpec(p.r)
                stat = partial_trace(ness_density(sys, spec), SPLIT, "A")
                assert np.abs(stat - stationary_matrix(p)).max() < 1e-10
                for t in T_GRID:
                    transient = partial_trace(unitary_evolve(sys, t), SPLIT, "A")
                    assert np.abs(transient - reduced_matrix(t, params(0.0, alpha))).max() < 1e-10
                    resetting = partial_trace(reset_density(sys, spec, t), SPLIT, "A")
                    assert np.abs(resetting - reduced_matrix(t, p)).max() < 1e-10

    def test_reduced_matrix_stays_psd(self):
        for R in R_GRID:
            for alpha in ALPHA_GRID:
                p = params(R, alpha)
                for t in T_GRID:
                    assert np.linalg.det(reduced_matrix(t, p)).real >= -1e-12

    def test_physical_units_rescaling(self):
        # omega != 1: rescaled closed forms match the engine run in
        # physical time with physical rate
        p = TwoSpinParams(omega=2.0, j=3.0, r=0.8)
        sys = quantum_system(p)
        for t in (0.5, 2.0, 7.0):
            engine = partial_trace(
                reset_density(sys, ResetSpec(p.r), t / p.omega), SPLIT, "A"
            )
            assert np.abs(engine - reduced_matrix(t, p)).max() < 1e-11


class TestReducedStateNess:
    def test_unit_point_values(self):
        st = stationary_matrix(params(1.0, 1.0))
        assert st[0, 0] == pytest.approx(0.125, abs=1e-15)
        assert st[0, 1] == pytest.approx(-1.0 / 9.0 - 0.125j, abs=1e-15)

    def test_fast_reset_pins_all_down(self):
        st = stationary_matrix(params(1e6, 1.0))
        assert abs(st[0, 0]) < 1e-11
        assert abs(st[0, 1]) < 1e-6

    def test_rejects_zero_rate(self):
        # there is no stationary state at R = 0: the one-point view refuses
        # it and names the rate -> 0+ limit instead
        with pytest.raises(ValueError, match="entropy_zero_reset"):
            entropy_ness(params(0.0, 1.0))

    def test_small_rate_approaches_zero_reset_limit(self):
        st = stationary_matrix(params(1e-6, 1.0))
        assert st[0, 0] == pytest.approx(0.5, abs=1e-11)
        assert st[0, 1] == pytest.approx(-0.125, abs=1e-6)


class TestZeroResetLimit:
    # the rate -> 0+ limit of the stationary state: [[1/2, c], [c*, 1/2]]
    # with c = -alpha/(4 (alpha^2 + 1)), here at R = 1e-300
    def test_uncoupled_is_maximally_mixed(self):
        st = stationary_matrix(params(1e-300, 0.0))
        assert st[0, 0] == 0.5
        assert abs(st[0, 1]) <= 1e-300

    def test_unit_coupling(self):
        st = stationary_matrix(params(1e-300, 1.0))
        assert st[0, 0] == 0.5
        assert st[0, 1].real == -0.125 and abs(st[0, 1].imag) <= 1e-300
        assert entropy_zero_reset(1.0) == ness_entropy(np.array([0.0]), np.array([1.0]))[0]

    def test_strong_coupling_coherence_decays(self):
        st = stationary_matrix(params(1e-300, 1e6))
        assert abs(st[0, 1]) < 1e-6
        assert abs(st[0, 1] + 1.0 / (4.0 * 1e6)) < 1e-12


class TestEntropyAtTime:
    def test_initially_zero(self):
        for R in (1.0, 1e200, 0.0):
            assert entropy_at_time(0.0, params(R, 1.0)) == 0.0

    def test_uncoupled_closed_form(self):
        for R in (0.1, 0.5, 1.0, 3.0):
            p = params(R, 0.0)
            for t in (0.2, 1.0, 4.0, 15.0):
                assert abs(
                    entropy_at_time(t, p) - entropy_alpha0_closed_form(R, t)
                ) <= 1e-12

    def test_long_time_is_stationary(self):
        for R, alpha in [(0.5, 0.0), (1.0, 1.0), (2.0, 3.0)]:
            p = params(R, alpha)
            assert abs(entropy_at_time(60.0 / R, p) - entropy_ness(p)) < 1e-9

    def test_matches_engine_entropy(self):
        p = params(0.7, 1.3)
        sys = quantum_system(p)
        for t in (0.5, 2.0, 8.0):
            reduced = partial_trace(reset_density(sys, ResetSpec(p.r), t), SPLIT, "A")
            assert abs(entropy_at_time(t, p) - von_neumann_entropy(reduced)) < 1e-11

    def test_refuses_the_times_timeseries_refuses(self):
        # at t = 1e16 the phase budget is 5.1, and t = inf is no time
        with pytest.raises(ValueError, match=r"keep too few digits at t = 1e\+16 \(R = 0.0\)"):
            entropy_at_time(1e16, params(0.0, 1.0))
        for R in (0.0, 1.0):
            with pytest.raises(ValueError, match="time must be >= 0 and finite, got inf"):
                entropy_at_time(math.inf, params(R, 1.0))


class TestTransientArrays:
    """The transient closed form over arrays: against a frozen 50-digit
    reference (tests/data/make_transient_reference.py writes the data),
    beyond the float range of its squares, and as the body of the one-point
    view.

    The scalar body it replaced measured worst errors of 2.2e-14 on the main
    points (the phases gamma t and P t rounded), 6.2e-15 on the short
    times and 1.1e-15 on the near-pure stationary states (R >= 1e2)."""

    DATA = pathlib.Path(__file__).parent / "data" / "transient_reference.csv"

    def test_matches_the_50_digit_reference(self):
        with open(self.DATA, newline="") as f:
            rows = np.array([[float(r[k]) for k in ("t", "R", "alpha", "entropy")]
                             for r in csv.DictReader(f)])
        assert rows.shape == (2400, 4)
        t, R, alpha, entropy = rows.T
        errors = np.abs(transient_entropy(t, R, alpha) - entropy)
        main, short, stationary = errors[:2000], errors[2000:2200], errors[2200:]
        assert main.max() <= 2.5e-15
        assert short.max() <= 5e-15
        assert stationary.max() <= 1e-18

    def test_one_point_view_is_the_array_body(self):
        rng = np.random.default_rng(7)
        t, alpha = rng.uniform(0.0, 40.0, 200), rng.uniform(0.0, 12.0, 200)
        R = 10.0 ** rng.uniform(-3.0, 3.0, 200)
        scalar = [entropy_at_time(*x) for x in zip(t.tolist(), map(params, R, alpha))]
        assert np.array_equal(transient_entropy(t, R, alpha), scalar)
        # one time column against scalar rate and coupling broadcasts
        assert np.array_equal(transient_entropy(t, R[0], alpha[0]),
                              transient_entropy(t, np.full(200, R[0]), np.full(200, alpha[0])))
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="time must be >= 0"):
                entropy_at_time(bad, params(1.0, 1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t, R, alpha", [
        (1.0, 1.0, 1e103), (1.0, 1e-3, 1e160), (1.0, 1e103, 1.0), (1.0, 1e160, 1.0),
        (1.0, 1e200, 1.0), (1.0, 0.0, 1e160), (0.5, 1e160, 1e160), (1e308, 1.0, 1.0)])
    def test_finite_beyond_the_square_root_of_the_float_range(self, t, R, alpha):
        up, coherence = reduced_state_array(np.array([t]), np.array([R]), np.array([alpha]))
        assert np.all(np.isfinite(up)) and np.all(np.isfinite(coherence))
        s = transient_entropy(np.array([t]), np.array([R]), np.array([alpha]))
        assert 0.0 <= s[0] <= LN2


class TestTransientFidelity:
    """1 - F of the finite-time closed form against the 50-digit reference
    (tests/data/make_transient_fidelity_reference.py writes the data).  1 - F
    keeps its relative digits up to the rounding of the phases, which
    phase_budget estimates: every row is within 2 (b + eps (1 - F)).  Per
    group, the worst |dF| and relative error of 1 - F measured when the
    closed form replaced the engine's column (the engine's own errors in
    parentheses; it refused 172 of the strong-coupling rows):

        standing-j  1.3e-19, 9.8e-17   (3.0e-15, 2.4e4)
        main        4.4e-15, 1.1e-14   (3.5e-14, 1.3e-9)
        short       5.5e-17, 6.5e-16   (2.6e-15, 1.2e8)
        strong      5.0e-17, 8.5e4     (8.9e-16, 1.6e18)

    In the strong group 1 - F is about 1/(8 alpha^2), while the phases
    round by eps alpha t: its absolute error is the budget's, its relative
    digits are gone."""

    DATA = pathlib.Path(__file__).parent / "data" / "transient_fidelity_reference.csv"
    # worst |dF| allowed per group
    F_ATOL = {"standing-j": 2e-19, "main": 1e-14, "short": 1e-16, "strong": 1e-16}

    @pytest.fixture(scope="class")
    def groups(self):
        with open(self.DATA, newline="") as f:
            rows = list(csv.DictReader(f))
        out = {}
        for row in rows:
            out.setdefault(row["group"], []).append(row)
        return out

    def test_matches_the_50_digit_reference(self, groups):
        eps = np.finfo(float).eps
        assert {name: len(rows) for name, rows in groups.items()} == {
            "standing-j": 1, "main": 800, "short": 200, "strong": 200}
        with mpmath.workdps(60):
            for name, rows in groups.items():
                t, R, alpha = (np.array([float(r[k]) for r in rows]) for k in ("t", "R", "alpha"))
                loss = infidelity_reset_array(t, R, alpha)
                fid = finite_time_columns(t, R, alpha, ("fidelity",))["fidelity"]
                budget = phase_budget(t, R, alpha)
                for k, row in enumerate(rows):
                    ref_loss = mpmath.mpf(row["one_minus_fidelity"])
                    d_loss = float(abs(mpmath.mpf(float(loss[k])) - ref_loss))
                    assert d_loss <= 2.0 * (budget[k] + eps * float(ref_loss)), (name, k)
                    d_fid = float(abs(mpmath.mpf(float(fid[k])) - mpmath.mpf(row["fidelity"])))
                    assert d_fid <= self.F_ATOL[name], (name, k)

    def test_short_time_keeps_relative_digits(self, groups):
        # Standing (j): 1 - F = 0.5 t^2 at t = 5e-10, where the engine's
        # basis round trip left 3.0e-15
        (row,) = groups["standing-j"]
        loss = infidelity_reset_array(5e-10, 1e-3, 1.0)
        assert (float(row["t"]), float(row["R"]), float(row["alpha"])) == (5e-10, 1e-3, 1.0)
        assert abs(loss / float(row["one_minus_fidelity"]) - 1.0) <= 1e-14

    @pytest.mark.filterwarnings("error")
    def test_exact_at_zero_and_stationary_once_damped(self):
        rng = np.random.default_rng(21)
        R = 10.0 ** rng.uniform(-3.0, 6.0, 400)
        alpha = np.where(np.arange(400) % 2, 10.0 ** rng.uniform(-3.0, 150.0, 400),
                         rng.uniform(0.0, 12.0, 400))
        assert np.all(infidelity_reset_array(0.0, R, alpha) == 0.0)
        # exp(-R t) is 0: the transient takes phase 0, and within 4 ulps the
        # row is the stationary fidelity
        fid = finite_time_columns(1e308, R, alpha, ("fidelity",))["fidelity"]
        ness = ness_fidelity(R, alpha)
        assert np.all(np.abs(fid - ness) <= 4.0 * np.spacing(ness))


class TestEntropyNess:
    def test_uncoupled_compact_form(self):
        for R in (0.01, 0.1, 1.0, 5.0, 20.0):
            assert abs(
                entropy_ness(params(R, 0.0)) - stationary_entropy_alpha0(R)
            ) <= 1e-12

    def test_uncoupled_small_rate_is_maximal(self):
        assert abs(entropy_ness(params(1e-4, 0.0)) - LN2) < 1e-6

    def test_unit_point_frozen_value(self):
        # high-precision reference evaluated independently (mpmath, 30 digits)
        assert entropy_ness(params(1.0, 0.0)) == pytest.approx(
            0.416495530699687451, abs=1e-14
        )
        assert entropy_ness(params(1.0, 1.0)) == pytest.approx(
            0.301138059240193543, abs=1e-14
        )

    def test_small_rate_matches_zero_reset_curve(self):
        for alpha in (0.3, 1.0, 4.0):
            assert abs(
                entropy_ness(params(1e-4, alpha)) - entropy_zero_reset(alpha)
            ) < 1e-6

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            entropy_ness(params(0.0, 1.0))


class TestEntropyZeroReset:
    def test_uncoupled_maximal(self):
        assert entropy_zero_reset(0.0) == LN2

    def test_unit_coupling_frozen_value(self):
        # ln2 - (5/8)ln(5/4) - (3/8)ln(3/4), mpmath reference
        assert entropy_zero_reset(1.0) == pytest.approx(
            0.661563238157982060, abs=1e-14
        )

    def test_small_coupling_expansion(self):
        alpha = 1e-3
        deficit = LN2 - entropy_zero_reset(alpha)
        assert abs(deficit - alpha**2 / 8.0) <= 1e-5 * deficit

    def test_large_coupling_expansion(self):
        alpha = 1e3
        deficit = LN2 - entropy_zero_reset(alpha)
        assert abs(deficit - 1.0 / (8.0 * alpha**2)) <= 1e-5 * deficit

    def test_nonmonotonic_with_interior_dip(self):
        alphas = np.linspace(0.0, 20.0, 200)
        vals = [entropy_zero_reset(a) for a in alphas]
        assert np.argmin(vals) not in (0, len(vals) - 1)

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
    def test_refuses_a_coupling_that_is_not_finite_and_non_negative(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must be finite and >= 0, got {alpha}"):
            entropy_zero_reset(alpha)


class TestScalingFunction:
    def test_origin(self):
        assert scaling_function(0.0) == LN2

    def test_small_z_branch(self):
        z = 1e-2
        assert abs(scaling_function(z) - (LN2 - 8.0 * z**4)) < 1e-9

    def test_large_z_asymptote_trend(self):
        # leading form (ln z)/(4 z^2): the ratio's excess over 1 is the
        # known subleading fraction (1 + ln 8)/(2 ln z), decaying slowly
        # (ln z / 4z) / z: 4 z^2 itself overflows beyond z ~ 6.7e153
        def leading(z):
            return np.log(z) / (4.0 * z) / z

        def ratio(z):
            return scaling_function(z) / leading(z)

        # frozen references at z=50 and z=1e8, computed independently with mpmath
        assert ratio(50.0) == pytest.approx(1.3934570792735116, abs=1e-10)
        assert ratio(1e8) == pytest.approx(1.0835865293059496868, abs=1e-10)
        zs = (50.0, 1e3, 1e6, 1e8, 1e154, 1e200)
        assert all(np.isfinite(scaling_function(z)) and scaling_function(z) >= 0.0
                   for z in zs)
        # at z = 1e200 both F (about 1.2e-398) and the leading form lie below
        # the smallest subnormal double, so F rounds to 0 and has no ratio
        assert scaling_function(1e200) == 0.0
        trend = [z for z in zs if leading(z) >= np.finfo(float).tiny]
        assert trend == [50.0, 1e3, 1e6, 1e8, 1e154]
        excesses = [ratio(z) - 1.0 for z in trend]
        assert all(e > 0 for e in excesses)
        assert excesses == sorted(excesses, reverse=True)
        for z, e in zip(trend, excesses):
            assert e == pytest.approx((1.0 + np.log(8.0)) / (2.0 * np.log(z)), rel=0.2)

    def test_infinite_z(self):
        assert scaling_function(float("inf")) == 0.0

    @pytest.mark.parametrize("z", [-1.0, math.nan, -math.inf])
    def test_refuses_a_negative_z_or_nan(self, z):
        with pytest.raises(ValueError, match=f"z must be >= 0, got {z}"):
            scaling_function(z)

    def test_two_term_form_up_to_underflow(self):
        # A2(z) = (2 ln z + 1 + ln 8)/(8 z^2) stays >= 1e-300 up to z ~ 3e150,
        # across the switch to the asymptotic branch at z = 1e150
        def two_term(z):
            return (2.0 * np.log(z) + 1.0 + np.log(8.0)) / (8.0 * z) / z

        for z in (1e12, 1e50, 1e100, 1e150, 1.5e150, 3e150):
            assert two_term(z) >= 1e-300
            assert abs(scaling_function(z) / two_term(z) - 1.0) <= 1e-6

    def test_collapse_of_exact_entropy(self):
        for z in (0.1, 1.0, 10.0):
            R = 1e-3
            assert abs(entropy_ness(params(R, z / R)) - scaling_function(z)) <= 1e-3


class TestFidelityNess:
    def test_zero_rate_uncoupled(self):
        assert fidelity_ness(params(0.0, 0.0)) == 0.375

    def test_zero_rate_limit_curve(self):
        for alpha in (0.0, 1.0, 3.0):
            expected = (3.0 + 4.0 * alpha**2) / (8.0 * (1.0 + alpha**2))
            assert fidelity_ness(params(0.0, alpha)) == pytest.approx(
                expected, abs=1e-15
            )
        assert fidelity_ness(params(0.0, 1.0)) == pytest.approx(7.0 / 16.0, abs=1e-15)

    def test_strong_coupling_zero_rate_is_half(self):
        assert fidelity_ness(params(0.0, 1e6)) == pytest.approx(0.5, abs=1e-11)

    def test_uncoupled_unit_rate(self):
        assert fidelity_ness(params(1.0, 0.0)) == pytest.approx(0.65, abs=1e-15)

    def test_unit_point(self):
        assert fidelity_ness(params(1.0, 1.0)) == pytest.approx(59.0 / 72.0, abs=1e-15)

    def test_monotone_in_rate_and_coupling(self):
        rs = np.concatenate([[1e-9], np.geomspace(0.01, 30.0, 40)])
        alphas = np.geomspace(0.01, 30.0, 40)
        for alpha in ALPHA_GRID:
            vals = [fidelity_ness(params(r, alpha)) for r in rs]
            assert np.all(np.diff(vals) >= -1e-15)
        for R in R_GRID:
            vals = [fidelity_ness(params(R, a)) for a in alphas]
            assert np.all(np.diff(vals) >= -1e-15)

    def test_bounded(self):
        for R in R_GRID:
            for alpha in ALPHA_GRID:
                f = fidelity_ness(params(R, alpha))
                assert 3.0 / 8.0 - 1e-9 <= f <= 1.0

    def test_matches_engine_diagonal_element(self):
        for R in R_GRID:
            for alpha in ALPHA_GRID:
                p = params(R, alpha)
                rho = ness_density(quantum_system(p), ResetSpec(p.r))
                assert abs(rho[3, 3].real - fidelity_ness(p)) < 1e-11


class TestArrayClosedForms:
    # S(R, alpha) from the stationary reduced matrix [[up, c], [c*, 1 - up]]
    # (the closed form of _ness_factors), evaluated with mpmath at 50 digits
    # for the binary values of these floats
    ENTROPY_REFERENCE = [
        (1e-4, 0.0, "0.6931471755599453510838979"),
        (1e-4, 1.0, "0.6615632331295415507946095"),
        (1e-4, 1e3, "0.6924072230952608567530743"),
        (0.1, 0.0, "0.6881884838510223643975665"),
        (0.1, 1.3, "0.6566998094501565622560823"),
        (0.3, 1e3, "0.00002096232287219415620701744"),
        (1.0, 0.0, "0.4164955306996874507318281"),
        (1.0, 1.0, "0.3011380592401935431930156"),
        (2.5, 0.5, "0.1457686762952419674397109"),
        (10.0, 3.0, "0.01349625255499239728101868"),
        (5.0, 1e3, "0.000001181995102355776018402183"),
    ]

    @staticmethod
    def random_points(n):
        # about a fifth of them lie where the state is nearly pure, with
        # entropies from 1e-15 down to 3e-20
        rng = np.random.default_rng(20230714)
        R = 10.0 ** rng.uniform(-5.0, 10.0, n)
        alpha = 10.0 ** rng.uniform(-5.0, 10.0, n)
        alpha[::10] = 0.0
        return R, alpha

    def test_entropy_matches_the_high_precision_reference(self):
        R, alpha, ref = zip(*self.ENTROPY_REFERENCE)
        got = ness_entropy(np.array(R), np.array(alpha))
        expected = np.array(ref, dtype=float)
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_scalar_entropy_is_a_view_of_the_array_body(self):
        R, alpha = self.random_points(200)
        scalar = [entropy_ness(params(r, a)) for r, a in zip(R.tolist(), alpha.tolist())]
        assert np.array_equal(ness_entropy(R, alpha), scalar)
        with pytest.raises(ValueError, match="needs r > 0"):
            entropy_ness(params(0.0, 1.0))

    @staticmethod
    def reference(R, alpha):
        # (entropy, fidelity) from the stationary reduced matrix
        # [[up, c], [c*, 1 - up]] (the closed form of _ness_factors),
        # evaluated with mpmath at 50 digits
        with mpmath.workdps(50):
            R, a = mpmath.mpf(R), mpmath.mpf(alpha)
            denom = 2 * ((1 + R**2) ** 2 + 4 * a**2 * R**2)
            up = (1 + R**2) / denom
            c2 = (a / (R**2 + 4 + 4 * a**2)) ** 2 + (R * (1 + R**2) / denom) ** 2
            v = 4 * (up * (1 - up) - c2)  # 1 - y^2
            lam = v / (2 * (1 + mpmath.sqrt(1 - v)))  # (1 - y)/2
            entropy = -(1 - lam) * mpmath.log(1 - lam) - lam * mpmath.log(lam)
            return float(entropy), float(1 - up - 1 / (2 * (4 * a**2 + R**2 + 4)))

    def test_matches_a_50_digit_reference_on_random_points(self):
        # the bounds are the measured errors of the bounded forms; the
        # float formulas they replaced were off by 1.8e-15 in entropy (all
        # digits of the smallest ones) and 2.2e-16 in fidelity
        R, alpha = self.random_points(2000)
        entropy, fidelity = map(np.array, zip(*map(self.reference, R.tolist(), alpha.tolist())))
        got = ness_entropy(R, alpha)
        assert np.max(np.abs(got - entropy)) <= 2.3e-16
        assert np.max(np.abs(got - entropy) / entropy) <= 6.5 * np.finfo(float).eps
        assert np.max(np.abs(ness_fidelity(R, alpha) - fidelity)) <= 1.7e-16
        assert [fidelity_ness(params(r, a)) for r, a in zip(R[:200], alpha[:200])] == \
            ness_fidelity(R[:200], alpha[:200]).tolist()

    def test_fidelity_at_zero_rate(self):
        assert ness_fidelity(np.array([0.0]), np.array([0.0]))[0] == 0.375

    @pytest.mark.parametrize("big", [1e155, 1e200, 1e300, 1.7e308])
    def test_finite_beyond_the_square_root_of_the_float_range(self, big):
        # R^2 or alpha^2 overflows; the state still tends to rho0 as R grows
        R = np.array([big, big, big, 1.0, 1e-3])
        alpha = np.array([0.0, 1.0, big, big, big])
        entropy, fidelity = ness_entropy(R, alpha), ness_fidelity(R, alpha)
        assert np.all((0.0 <= entropy) & (entropy <= LN2))
        assert np.all((0.0 <= fidelity) & (fidelity <= 1.0))
        assert np.array_equal(entropy[:3], [0.0, 0.0, 0.0])
        assert np.array_equal(fidelity[:3], [1.0, 1.0, 1.0])
        for r, a in zip(R.tolist(), alpha.tolist()):
            assert np.all(np.isfinite(stationary_matrix(params(r, a))))

    @pytest.mark.parametrize("z", [1e-3, 0.1, 1.0, 10.0, 1e3])
    def test_scaling_collapse_at_extreme_coupling(self, z):
        # alpha = 1e300, R = z 1e-300: alpha^2 overflows, alpha R = z does not
        got = ness_entropy(np.array([z * 1e-300]), np.array([1e300]))[0]
        expected = scaling_function(z)
        assert abs(got - expected) <= 2.0 * np.spacing(expected)


class TestPurityFidelityIdentity:
    def test_identity_on_grid(self):
        for R in R_GRID:
            for alpha in ALPHA_GRID:
                p = params(R, alpha)
                rho = ness_density(quantum_system(p), ResetSpec(p.r))
                assert abs(purity(rho) - fidelity_ness(p)) <= 1e-10


class TestNessColumns:
    """ness_columns is the one stationary entry: exactly the columns asked
    for, at each point of the broadcast of R and alpha."""

    R = np.geomspace(1e-3, 1e3, 7)
    ALPHA = np.array([0.0, 1e-9, 0.5, 2.0, 11.5, 1e8, 1e150, 1e300])
    SHAPE = (ALPHA.size, R.size)

    def test_exactly_the_columns_asked_for(self):
        every = ness_columns(self.R, self.ALPHA[:, None],
                             ("entropy", "fidelity", "purity", "concurrence"))
        assert list(every) == ["entropy", "fidelity", "purity", "concurrence"]
        assert all(column.shape == self.SHAPE for column in every.values())
        # rho0 is pure, so the purity is the fidelity array itself
        assert every["purity"] is every["fidelity"]
        for names in (("purity",), ("concurrence",), ("entropy", "concurrence")):
            columns = ness_columns(self.R, self.ALPHA[:, None], names)
            assert list(columns) == list(names)
            for name in names:
                assert columns[name].tobytes() == every[name].tobytes(), name
        assert np.array_equal(every["concurrence"],
                              concurrence_ness_stack(self.ALPHA[:, None], self.R))

    def test_flat_points_equal_the_grid(self):
        # a sweep block passes the grid's points flat, alpha outer
        grid = ness_columns(self.R, self.ALPHA[:, None], ("entropy", "fidelity", "concurrence"))
        flat = ness_columns(np.tile(self.R, self.ALPHA.size), np.repeat(self.ALPHA, self.R.size),
                            ("entropy", "fidelity", "concurrence"))
        for name in grid:
            assert flat[name].tobytes() == grid[name].ravel().tobytes(), name

    def test_concurrence_alone_evaluates_no_factors(self, monkeypatch):
        monkeypatch.setattr(twospin, "_ness_factors", lambda R, alpha: pytest.fail("factors"))
        columns = ness_columns(self.R, self.ALPHA[:, None], ("concurrence",))
        assert columns["concurrence"].shape == self.SHAPE

    def test_overflowing_spread_raises(self):
        with pytest.raises(ValueError, match="spread"):
            ness_columns(np.ones(2), np.array([1.0, 1e308]), ("entropy", "concurrence"))


class TestConcurrenceNess:
    def test_uncoupled_is_zero(self):
        for R in (0.1, 1.0, 10.0):
            assert concurrence_ness(params(R, 0.0)) <= 1e-10

    def test_nonmonotonic_in_rate(self):
        rs = np.geomspace(0.01, 10.0, 40)
        vals = [concurrence_ness(params(r, 2.0)) for r in rs]
        peak = int(np.argmax(vals))
        assert 0 < peak < len(rs) - 1
        assert vals[peak] > vals[0] and vals[peak] > vals[-1]

    def test_strong_coupling_peak_regression(self):
        # dense-sweep regression constants (peak location is quadratic-flat,
        # so it is pinned more loosely than the peak value)
        from qreset.sweep import optimize_concurrence

        res = optimize_concurrence(10.0, 0.01, 10.0)
        assert res.flag == "interior"
        assert 0.4 < res.value <= 0.5
        assert res.value == pytest.approx(0.496893, abs=2e-6)
        assert res.x == pytest.approx(0.049874, abs=1e-4)

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            concurrence_ness(params(0.0, 1.0))

    def test_overflowing_spread_raises_as_the_engine_does(self):
        with pytest.raises(ValueError, match="spread"):
            concurrence_ness_stack(np.array([1.0, 1e308]), np.ones(1))
        with pytest.raises(ValueError, match="spread"):
            quantum_system(params(0.0, 1e308))

    def test_stacked_couplings_equal_one_at_a_time(self):
        alphas = np.array([0.0, 1e-9, 0.3, 1.0, 2.0, 11.5, 1e8, 1e150, 1e300])
        rates = np.geomspace(1e-3, 1e3, 7)
        stack = concurrence_ness_stack(alphas[:, None], rates)
        assert np.array_equal(concurrence_ness_stack(alphas.reshape(3, 3)[..., None], rates),
                              stack.reshape(3, 3, 7))
        for alpha, values in zip(alphas, stack):
            one = concurrence_ness_stack(np.array([alpha]), rates)
            assert np.array_equal(values, one)


class TestConcurrenceReference:
    """Stationary concurrence against a frozen 50-digit reference
    (tests/data/make_concurrence_reference.py writes the data).

    The parent of the factor path -- an eigh of rho and of the spin-flipped
    rho, their square roots and one SVD -- measured a worst error of 1.9e-14
    on the README ranges and 3.4e-9 on the near-pure states (R = 1e3); the
    closed-form factor measures 5.5e-16 and 3.7e-16.  On the strong
    couplings at small rates it measures 2.2e-16 with the gap of -gamma and
    -alpha taken as 1/(gamma + alpha), and measured 1.2e-9 with the
    difference of the rounded energies.  On the stronger couplings from
    1.55e4 it measures 1.7e-16, where the factor that took its gaps from
    the engine's degeneracy rule measured 0.498."""

    DATA = pathlib.Path(__file__).parent / "data" / "concurrence_reference.csv"

    def test_matches_the_50_digit_reference(self):
        with open(self.DATA, newline="") as f:
            rows = [(float(r["R"]), float(r["alpha"]), float(r["concurrence"]))
                    for r in csv.DictReader(f)]
        assert len(rows) == 740
        errors = np.array([abs(concurrence_ness(params(R, a)) - c) for R, a, c in rows])
        near_pure = np.array([R >= 1e2 for R, _, _ in rows])
        index = np.arange(len(rows))
        strong, stronger = (index >= 620) & (index < 680), index >= 680
        assert near_pure.sum() == 120
        assert errors[~near_pure & ~strong & ~stronger].max() <= 1e-14
        assert errors[near_pure].max() <= 1e-15
        assert errors[strong].max() <= 1e-15
        assert errors[stronger].max() <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_uncoupled_pair_is_separable_at_every_rate(self):
        rates = np.r_[5e-324, np.geomspace(1e-300, 1e300, 61), 1.7e308]
        assert np.all(concurrence_ness_stack(np.zeros(1), rates) <= 1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1.5e4, 1.58e4, 1.6e4, 1.7e4])
    def test_the_clustering_edge(self, alpha):
        # a degeneracy rule of 1e-9 relative merged the levels -gamma and
        # -alpha from 1.6e4 on; the engine's rule, at eigh's round-off,
        # keeps them apart across that edge (and through 1e6, below).  The
        # factor takes their gap as 1/(gamma + alpha) and meets the 50-digit
        # concurrence on both sides
        sys = quantum_system(params(1.0, alpha))
        clustered = _clustered(sys.eigensystem.eigenvalues)
        assert clustered[0] < clustered[1]
        rates = np.geomspace(1e-12, 1e12, 13)
        body = concurrence_ness_stack(np.array([alpha]), rates)
        spec = importlib.util.spec_from_file_location(
            "reference", self.DATA.parent / "make_concurrence_reference.py")
        reference = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reference)
        exact = np.array([float(reference.concurrence(r, alpha)) for r in rates])
        assert np.abs(body - exact).max() <= 1e-15
        # the engine's eigh of H carries eps ||H||/gap ~ 1e-7 into the
        # vectors of the pair 1/(gamma + alpha) apart, and its eigh of a
        # near-pure rho keeps about 1e-10 of the concurrence
        engine = concurrence_stack(np.array([ness_density(sys, ResetSpec(r)) for r in rates]))
        assert np.abs(body - engine[0]).max() <= 1e-6

    @pytest.mark.filterwarnings("error")
    def test_the_pair_stays_apart_through_a_million(self):
        # the gap 1/(gamma + alpha) ~ 1/(2 alpha) meets the tolerance
        # DEGENERACY_RTOL ||E||_2 ~ 128 eps alpha near alpha = 4.2e6
        for alpha in np.geomspace(1.6e4, 1e6, 9):
            clustered = _clustered(quantum_system(params(1.0, alpha)).eigensystem.eigenvalues)
            assert clustered[0] < clustered[1]


class TestUfuncClamp:
    """The closed forms clamp with np.minimum(np.maximum(x, lo), hi) rather
    than np.clip, whose argument handling costs about twice as much.  Over
    the values below the two give the same bits, but for the sign of a zero
    at a bound of 0, where numpy releases differ in clip (2.x keeps -0.0);
    _spin_entropy's bits are the same either way."""

    TINY = float(np.finfo(float).smallest_subnormal)
    NORMAL = float(np.finfo(float).tiny)
    SPECIAL = np.array([0.0, -0.0, TINY, -TINY, 3 * TINY, -3 * TINY, NORMAL, -NORMAL,
                        np.nextafter(NORMAL, 0.0), -np.nextafter(NORMAL, 0.0),
                        np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                        np.nextafter(-1.0, 0.0), -1.0, np.nextafter(-1.0, -2.0),
                        np.nan, -np.nan, np.inf, -np.inf, 0.5, -0.5, 1.7e308, -1.7e308])

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    def values(self):
        # lengths that take numpy's vector loops and their scalar tails
        rng = np.random.default_rng(7)
        return [rng.permutation(np.tile(self.SPECIAL, n))[:size]
                for n, size in ((1, 1), (1, 7), (3, 64), (50, 1000))] + [self.SPECIAL]

    def test_arccos_clamp_equals_clip(self):
        for x in self.values():
            clamp = np.minimum(np.maximum(x, -1.0), 1.0)
            assert np.array_equal(self.bits(clamp), self.bits(np.clip(x, -1.0, 1.0)))

    def test_unit_clamp_equals_clip_but_for_the_sign_of_zero(self):
        for x in self.values():
            clamp, clip = np.minimum(np.maximum(x, 0.0), 1.0), np.clip(x, 0.0, 1.0)
            same = self.bits(clamp) == self.bits(clip)
            assert np.all(same | ((clamp == 0.0) & (clip == 0.0)))

    def test_spin_entropy_equals_the_clip_body(self):
        def clip_body(v):
            v = np.clip(v, 0.0, 1.0)
            lam = 0.5 * v / (1.0 + np.sqrt(1.0 - v))
            log_lam = np.log(lam, out=np.zeros_like(lam), where=lam > 0.0)
            return (lam - 1.0) * np.log1p(-lam) - lam * log_lam

        rng = np.random.default_rng(8)
        samples = self.values() + [rng.uniform(-0.1, 1.1, 5000),
                                   np.r_[rng.uniform(-1e-300, 1e-300, 500),
                                         1.0 + rng.uniform(-1e-15, 1e-15, 500)]]
        with np.errstate(all="ignore"):
            for v in samples:
                assert np.array_equal(self.bits(twospin._spin_entropy(v)),
                                      self.bits(clip_body(v)))


class TestWootters3x3:
    """observables._wootters_3x3, the closed form of Wootters' rule for the
    symmetric 3 x 3 tau of concurrence_ness_stack, against _wootters (one
    LAPACK svd a point) on the same tau."""

    WIDE_ALPHAS = np.r_[0.0, np.geomspace(1e-6, 1e6, 161)]
    WIDE_RATES = np.geomspace(1e-300, 1e300, 421)

    @staticmethod
    def entries(alphas, rates):
        """The stacked tau, its entries 00, 01, 02, 11, 12 and 22 along the
        first axis, that concurrence_ness_stack hands the closed form at the
        grid."""
        seen, closed_form = [], observables._wootters_3x3
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(twospin, "_wootters_3x3",
                          lambda tau: seen.append(tau.copy()) or closed_form(tau))
            concurrence_ness_stack(alphas[:, None], rates)
        return seen[0]

    @staticmethod
    def full(entries):
        (t00, t01, t02, t11, t12, t22) = entries
        return np.stack([np.stack(row, axis=-1) for row in
                         ((t00, t01, t02), (t01, t11, t12), (t02, t12, t22))], axis=-2)

    @staticmethod
    def closed_form(entries):
        """The closed form's values and how many points it gave LAPACK."""
        handed, wootters = [], observables._wootters
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(observables, "_wootters",
                          lambda tau: handed.append(len(tau)) or wootters(tau))
            return observables._wootters_3x3(entries), sum(handed)

    @pytest.mark.filterwarnings("error")
    def test_agrees_with_lapack_over_600_decades(self):
        entries = self.entries(self.WIDE_ALPHAS, self.WIDE_RATES)
        values, _ = self.closed_form(entries)
        assert np.abs(values - observables._wootters(self.full(entries))[0]).max() <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_both_branches_agree_where_the_top_pair_nears(self):
        # as R -> 0 at large alpha the top pair of the spectrum merges
        entries = self.entries(np.geomspace(3.0, 1e4, 31), np.geomspace(1e-8, 1e-2, 61))
        values, handed = self.closed_form(entries)
        assert 0 < handed < values.size
        assert np.abs(values - observables._wootters(self.full(entries))[0]).max() <= 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e300, 1e306])
    def test_scaled_tau(self, scale):
        # the closed form scales each point by a power of two, so neither
        # its sixth powers nor LAPACK's see the scale
        entries = self.entries(np.array([0.0, 0.5, 2.0, 6.0, 12.0]), np.geomspace(1e-3, 20.0, 9))
        scaled = entries * scale
        values, handed = self.closed_form(scaled)
        lapack = observables._wootters(self.full(scaled))[0]
        tiny = np.finfo(float).smallest_subnormal
        assert np.all(np.abs(values - lapack) <= 1e-15 * scale + 4 * tiny)
        # tau = 0 goes to LAPACK; normal scales leave the gaps as they were
        if scale == 0.0 or scale >= 1e-300:
            assert handed == (values.size if scale == 0.0 else 0)

    def test_no_lapack_over_the_benchmark_domain(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("svd in the stationary concurrence")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        values = concurrence_ness_stack(np.linspace(0.0, 12.0, 241)[:, None],
                                        np.geomspace(1e-3, 20.0, 301))
        assert values.shape == (241, 301)
