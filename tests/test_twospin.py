import math

import mpmath
import numpy as np
import pytest

from qreset.observables import purity, von_neumann_entropy
from qreset.reset_core import (
    ResetSpec,
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
    entropy_at_time,
    entropy_ness,
    entropy_ness_array,
    entropy_zero_reset,
    fidelity_ness,
    fidelity_ness_array,
    hamiltonian,
    quantum_system,
    reduced_state,
    reduced_state_ness,
    reduced_state_reset,
    reduced_state_zero_reset,
    scaling_function,
)

SPLIT = SubsystemSplit(2, 2)

R_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0)
ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, 10.0)
T_GRID = (0.0, 0.3, 1.0, 3.0, 10.0)


def params(R, alpha):
    return TwoSpinParams.from_dimensionless(R, alpha)


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
    def test_t0_is_all_down(self):
        st = reduced_state(0.0, params(1.0, 1.0))
        assert st.up == 0.0
        assert st.coherence == 0.0

    def test_uncoupled_quarter_period(self):
        st = reduced_state(np.pi / 2.0, params(1.0, 0.0))
        assert st.up == pytest.approx(0.5, abs=1e-15)
        assert st.coherence == pytest.approx(-0.5j, abs=1e-15)

    def test_matches_engine_on_grid(self):
        for alpha in ALPHA_GRID:
            p = params(1.0, alpha)
            sys = quantum_system(p)
            for t in T_GRID:
                engine = partial_trace(unitary_evolve(sys, t), SPLIT, "A")
                assert np.abs(engine - reduced_state(t, p).matrix).max() < 1e-12


class TestReducedStateReset:
    def test_t0_is_all_down(self):
        st = reduced_state_reset(0.0, params(1.0, 1.0))
        assert abs(st.up) < 1e-15
        assert abs(st.coherence) < 1e-15

    def test_long_time_reaches_stationary(self):
        for R, alpha in [(0.5, 1.0), (1.0, 0.0), (2.0, 2.0)]:
            p = params(R, alpha)
            late = reduced_state_reset(60.0 / R, p)
            stat = reduced_state_ness(p)
            assert abs(late.up - stat.up) < 1e-10
            assert abs(late.coherence - stat.coherence) < 1e-10

    def test_matches_engine_point(self):
        p = params(1.0, 1.0)
        engine = partial_trace(
            reset_density(quantum_system(p), ResetSpec(1.0), 2.0), SPLIT, "A"
        )
        assert np.abs(engine - reduced_state_reset(2.0, p).matrix).max() < 1e-10

    def test_oracle_equivalence_grid(self):
        # the module's core purpose: closed forms == generic engine
        for R in R_GRID:
            for alpha in ALPHA_GRID:
                p = params(R, alpha)
                sys = quantum_system(p)
                spec = ResetSpec(p.r)
                stat = partial_trace(ness_density(sys, spec), SPLIT, "A")
                assert np.abs(stat - reduced_state_ness(p).matrix).max() < 1e-10
                for t in T_GRID:
                    transient = partial_trace(unitary_evolve(sys, t), SPLIT, "A")
                    assert (
                        np.abs(transient - reduced_state(t, p).matrix).max() < 1e-10
                    )
                    resetting = partial_trace(reset_density(sys, spec, t), SPLIT, "A")
                    assert (
                        np.abs(resetting - reduced_state_reset(t, p).matrix).max()
                        < 1e-10
                    )

    def test_reduced_matrix_stays_psd(self):
        for R in R_GRID:
            for alpha in ALPHA_GRID:
                p = params(R, alpha)
                for t in T_GRID:
                    assert reduced_state_reset(t, p).determinant >= -1e-12

    def test_physical_units_rescaling(self):
        # omega != 1: rescaled closed forms match the engine run in
        # physical time with physical rate
        p = TwoSpinParams(omega=2.0, j=3.0, r=0.8)
        sys = quantum_system(p)
        for t in (0.5, 2.0, 7.0):
            engine = partial_trace(
                reset_density(sys, ResetSpec(p.r), t / p.omega), SPLIT, "A"
            )
            assert np.abs(engine - reduced_state_reset(t, p).matrix).max() < 1e-11


class TestReducedStateNess:
    def test_unit_point_values(self):
        st = reduced_state_ness(params(1.0, 1.0))
        assert st.up == pytest.approx(0.125, abs=1e-15)
        assert st.coherence == pytest.approx(-1.0 / 9.0 - 0.125j, abs=1e-15)

    def test_fast_reset_pins_all_down(self):
        st = reduced_state_ness(params(1e6, 1.0))
        assert abs(st.up) < 1e-11
        assert abs(st.coherence) < 1e-6

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            reduced_state_ness(params(0.0, 1.0))

    def test_small_rate_approaches_zero_reset_limit(self):
        st = reduced_state_ness(params(1e-6, 1.0))
        assert st.up == pytest.approx(0.5, abs=1e-11)
        assert st.coherence == pytest.approx(-0.125, abs=1e-6)


class TestZeroResetLimit:
    def test_uncoupled_is_maximally_mixed(self):
        st = reduced_state_zero_reset(0.0)
        assert st.up == 0.5
        assert st.coherence == 0.0

    def test_unit_coupling(self):
        st = reduced_state_zero_reset(1.0)
        assert st.up == 0.5
        assert st.coherence == -0.125

    def test_strong_coupling_coherence_decays(self):
        st = reduced_state_zero_reset(1e6)
        assert abs(st.coherence) < 1e-6
        assert abs(st.coherence + 1.0 / (4.0 * 1e6)) < 1e-12


class TestEntropyAtTime:
    def test_initially_zero(self):
        assert entropy_at_time(0.0, params(1.0, 1.0)) == 0.0

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
    # (reduced_state_ness's closed form), evaluated with mpmath at 50 digits
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
        got = entropy_ness_array(np.array(R), np.array(alpha))
        expected = np.array(ref, dtype=float)
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_scalar_entropy_is_a_view_of_the_array_body(self):
        R, alpha = self.random_points(200)
        scalar = [entropy_ness(params(r, a)) for r, a in zip(R.tolist(), alpha.tolist())]
        assert np.array_equal(entropy_ness_array(R, alpha), scalar)
        with pytest.raises(ValueError, match="needs r > 0"):
            entropy_ness(params(0.0, 1.0))

    @staticmethod
    def reference(R, alpha):
        # (entropy, fidelity) from the stationary reduced matrix
        # [[up, c], [c*, 1 - up]] (reduced_state_ness's closed form),
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
        got = entropy_ness_array(R, alpha)
        assert np.max(np.abs(got - entropy)) <= 2.3e-16
        assert np.max(np.abs(got - entropy) / entropy) <= 6.5 * np.finfo(float).eps
        assert np.max(np.abs(fidelity_ness_array(R, alpha) - fidelity)) <= 1.7e-16
        assert [fidelity_ness(params(r, a)) for r, a in zip(R[:200], alpha[:200])] == \
            fidelity_ness_array(R[:200], alpha[:200]).tolist()

    def test_fidelity_at_zero_rate(self):
        assert fidelity_ness_array(np.array([0.0]), np.array([0.0]))[0] == 0.375

    @pytest.mark.parametrize("big", [1e155, 1e200, 1e300, 1.7e308])
    def test_finite_beyond_the_square_root_of_the_float_range(self, big):
        # R^2 or alpha^2 overflows; the state still tends to rho0 as R grows
        R = np.array([big, big, big, 1.0, 1e-3])
        alpha = np.array([0.0, 1.0, big, big, big])
        entropy, fidelity = entropy_ness_array(R, alpha), fidelity_ness_array(R, alpha)
        assert np.all((0.0 <= entropy) & (entropy <= LN2))
        assert np.all((0.0 <= fidelity) & (fidelity <= 1.0))
        assert np.array_equal(entropy[:3], [0.0, 0.0, 0.0])
        assert np.array_equal(fidelity[:3], [1.0, 1.0, 1.0])
        for r, a in zip(R.tolist(), alpha.tolist()):
            state = reduced_state_ness(params(r, a))
            assert math.isfinite(state.up) and np.isfinite(state.coherence)

    @pytest.mark.parametrize("z", [1e-3, 0.1, 1.0, 10.0, 1e3])
    def test_scaling_collapse_at_extreme_coupling(self, z):
        # alpha = 1e300, R = z 1e-300: alpha^2 overflows, alpha R = z does not
        got = entropy_ness_array(np.array([z * 1e-300]), np.array([1e300]))[0]
        expected = scaling_function(z)
        assert abs(got - expected) <= 2.0 * np.spacing(expected)


class TestPurityFidelityIdentity:
    def test_identity_on_grid(self):
        for R in R_GRID:
            for alpha in ALPHA_GRID:
                p = params(R, alpha)
                rho = ness_density(quantum_system(p), ResetSpec(p.r))
                assert abs(purity(rho) - fidelity_ness(p)) <= 1e-10


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
