import re

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from qreset.cmatrix import hermitize
from qreset.reset_core import (
    DEGENERACY_RTOL,
    PHASE_BUDGET,
    QuantumSystem,
    ResetSpec,
    SubsystemSplit,
    _clustered,
    ness_density,
    partial_trace,
    reset_density,
    reset_density_stack,
    unitary_evolve,
)
from qreset.twospin import (
    TwoSpinParams,
    _ness_cholesky,
    infidelity_reset_array,
    phase_budget,
    quantum_system,
    reduced_state_array,
)

SPLIT = SubsystemSplit(2, 2)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
DOWN_DOWN = np.kron(DOWN, DOWN)
BELL = (np.kron(UP, UP) + np.kron(DOWN, DOWN)) / np.sqrt(2.0)


def two_spin_system(R=1.0, alpha=1.0):
    return quantum_system(TwoSpinParams.from_dimensionless(R, alpha))


def reduced_matrix(t, R, alpha):
    # [[up, c], [c*, 1 - up]] of the two-spin transient closed form
    up, c = (x.item() for x in reduced_state_array(np.array(t), np.array(R), np.array(alpha)))
    return np.array([[up, c], [np.conj(c), 1.0 - up]])


def random_pure(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def assert_valid_density(rho, tol=1e-12):
    assert np.linalg.norm(rho - rho.conj().T) <= tol
    assert abs(np.trace(rho) - 1.0) <= tol
    assert np.linalg.eigvalsh(hermitize(rho))[0] >= -tol


class TestQuantumSystem:
    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError):
            QuantumSystem(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2) / 2)

    def test_rejects_bad_rho0(self):
        h = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            QuantumSystem(h, np.eye(2, dtype=complex))  # trace 2

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            QuantumSystem(np.eye(2, dtype=complex), np.eye(4, dtype=complex) / 4)

    def test_rejects_an_energy_spread_beyond_float_range(self):
        # each energy is finite, E_max - E_min is not
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="energy spread"):
            QuantumSystem(np.diag([1e308, -1e308]), rho0)
        with pytest.raises(ValueError, match="energy spread"):
            two_spin_system(1.0, 1.7e308)
        assert QuantumSystem(np.diag([8e307, -8e307]), rho0).dim == 2

    def test_degeneracy_tolerance_is_relative_and_finite(self):
        # _clustered's tolerance is DEGENERACY_RTOL ||E||_2, and ||E||_2 of
        # the system's energies is ||h||_F
        rng = np.random.default_rng(44)
        h = hermitize(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        rho0 = np.eye(6, dtype=complex) / 6
        energies = QuantumSystem(h, rho0).eigensystem.eigenvalues
        assert np.linalg.norm(energies) == pytest.approx(np.linalg.norm(h), rel=1e-15)
        # plant a gap of (1 -+ 1e-14) tolerances above a level at exactly 0,
        # so that the gap itself is exact
        for factor, joined in ((1.0 - 1e-14, True), (1.0 + 1e-14, False)):
            e = energies - energies[0]
            for _ in range(3):
                e[1] = factor * DEGENERACY_RTOL * np.linalg.norm(e)
            expected = np.r_[e[0], e[0] if joined else e[1], e[2:]]
            assert np.array_equal(_clustered(e), expected)
            # the unscaled norm of these energies overflows; the scaled one
            # does not, and the rule holds at the new scale
            assert np.array_equal(_clustered(e * 1e306), expected * 1e306)
        assert np.array_equal(_clustered(QuantumSystem(np.zeros((6, 6)), rho0)
                                         .eigensystem.eigenvalues), np.zeros(6))

    @pytest.mark.filterwarnings("error")
    def test_clusters_within_half_a_tolerance_and_not_within_two(self):
        # one stack: each member takes its own tolerance DEGENERACY_RTOL ||E||
        members = []
        for factor, scale in ((0.5, 1.0), (2.0, 1.0), (0.5, 1e3), (2.0, 1e-3)):
            e = scale * np.array([-1.0, -1.0, 0.5, 3.0])
            for _ in range(3):
                e[1] = e[0] + factor * DEGENERACY_RTOL * np.linalg.norm(e)
            members.append(e)
        clustered = _clustered(np.array(members))
        for factor, e, c in zip((0.5, 2.0, 0.5, 2.0), members, clustered):
            assert c[1] == (e[0] if factor < 1.0 else e[1])
            assert np.array_equal(c[[0, 2, 3]], e[[0, 2, 3]])

    @pytest.mark.filterwarnings("error")
    def test_a_stack_clusters_as_its_members_alone(self):
        # members apart by up to 600 decades of scale, and all-zero energies
        rng = np.random.default_rng(45)
        a = hermitize(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        random = [np.linalg.eigvalsh(a * scale) for scale in (1.0, 1e306, 1e-300)]
        # the two-spin energies -gamma, -alpha, alpha, gamma
        alpha = np.array([0.0, 1e-9, 1.0, 1e300])
        gamma = np.hypot(alpha, 1.0)
        closed = np.stack([-gamma, -alpha, alpha, gamma], axis=-1)
        stack = np.array([*closed, *random, np.zeros(4)])
        clustered = _clustered(stack)
        for energies, c in zip(stack, clustered):
            assert np.array_equal(c, _clustered(energies))
        assert np.array_equal(clustered[-1], np.zeros(4))
        # alpha = 0 and 1e300 have degenerate pairs, the others none
        assert [int(np.count_nonzero(np.diff(c) == 0.0)) for c in clustered] == [
            1, 0, 0, 2, 0, 0, 0, 3]

    @pytest.mark.filterwarnings("error")
    def test_exact_degeneracies_cluster(self):
        # eigh's eigenvalues are exact for H + dH with ||dH||_2 of order eps
        # ||H||_2: repeated levels of a diagonal H rotated by a random
        # unitary come out a few eps ||E||_2 apart, and cluster
        rng = np.random.default_rng(46)
        repeats = 0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            levels = np.sort(rng.integers(-2, 3, size=d) * 10.0 ** rng.uniform(-3.0, 3.0))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            h = hermitize(q @ np.diag(levels) @ q.conj().T)
            clustered = _clustered(QuantumSystem(h, np.eye(d) / d).eigensystem.eigenvalues)
            assert np.array_equal(np.diff(clustered) == 0.0, np.diff(levels) == 0.0)
            repeats += int(np.count_nonzero(np.diff(levels) == 0.0))
        assert repeats > 100

    @pytest.mark.filterwarnings("error")
    def test_a_gap_of_a_thousand_tolerances_stays_apart(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            levels = np.sort(rng.normal(size=d)) * 10.0 ** rng.uniform(-3.0, 3.0)
            for _ in range(3):
                levels[1] = levels[0] + 1e3 * DEGENERACY_RTOL * np.linalg.norm(levels)
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            h = hermitize(q @ np.diag(levels) @ q.conj().T)
            clustered = _clustered(QuantumSystem(h, np.eye(d) / d).eigensystem.eigenvalues)
            assert np.all(np.diff(clustered) > 0.0)

    def test_immutable(self):
        sys = two_spin_system()
        with pytest.raises(ValueError):
            sys.hamiltonian[0, 0] = 9.0
        with pytest.raises(ValueError):
            sys.rho0_factor[0, 0] = 9.0

    def test_rho0_factor_keeps_the_nonzero_columns(self):
        rng = np.random.default_rng(45)
        h = hermitize(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        a = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        f = QuantumSystem(h, rho0).rho0_factor
        assert f.shape == (8, 2)
        assert np.abs(f @ f.conj().T - rho0).max() <= 1e-15
        assert two_spin_system().rho0_factor.shape == (4, 1)

    def test_rejects_a_rho0_that_is_not_psd(self):
        with pytest.raises(ValueError, match="density matrix not PSD"):
            QuantumSystem(np.eye(2, dtype=complex), np.diag([1.2, -0.2]).astype(complex))


def ising_ring(L, J, h):
    """Periodic transverse-field Ising H -J sum Z_i Z_i+1 - h sum X_i, spin 0
    slowest, as perfbench/oracle.py's ising_chain builds it: real, with a
    degenerate spectrum."""
    states = np.arange(2**L)
    z = 1.0 - 2.0 * ((states[:, None] >> (L - 1 - np.arange(L))) & 1)
    H = np.diag(-J * np.sum(z * np.roll(z, -1, axis=1), axis=1)).astype(complex)
    for i in range(L):
        H[states, states ^ (1 << (L - 1 - i))] -= h
    return H


class TestRealSolver:
    """A Hamiltonian whose imaginary parts are all exactly zero is
    diagonalised by the real solver.  Its states equal the complex solver's
    to 8 d eps, and a state at time t to 8 d eps (1 + max|E| t), since the
    two solvers' energies differ in their last digits and the phases E t
    carry that; measured worst: 1.5 d eps (L = 5 ring) and 1.0 d eps.
    """

    RATES = (1e-3, 0.7, 40.0)
    TIMES = np.array([0.0, 1e-6, 0.3, 2.0, 25.0])

    def hamiltonians(self):
        rng = np.random.default_rng(230)
        for d in (2, 3, 5, 16):
            a = rng.normal(size=(d, d))
            yield (a + a.T) / 2
        for L, J, h in ((3, 1.1, 0.7), (4, 0.9, 1.3), (5, 1.0, 0.4)):
            yield ising_ring(L, J, h)

    @staticmethod
    def reference(h, rho0, rate, ts):
        """ness_density and reset_density_stack from the complex solver's
        eigensystem, formed here."""
        energies, v = np.linalg.eigh(h.astype(complex))
        rho_e = v.conj().T @ rho0 @ v

        def computational(kernel):
            return hermitize(v @ (rho_e * kernel) @ v.conj().T)

        def kernels(e):
            s = rate + 1j * (e[:, None] - e[None, :])
            return rate / s, (s - rate) / s

        k, _ = kernels(_clustered(energies))
        k_raw, u = kernels(energies)
        phase = np.exp(-1j * energies * ts[:, None])
        stack = [computational(k_raw + u * np.exp(-rate * t) * np.outer(p, p.conj()))
                 for t, p in zip(ts, phase)]
        stack[0] = rho0
        return computational(k), np.array(stack)

    def test_states_equal_the_complex_solvers(self):
        rng = np.random.default_rng(231)
        for h in self.hamiltonians():
            d = h.shape[0]
            psi = random_pure(rng, d)
            for rho0 in (random_density(rng, d), np.outer(psi, psi.conj())):
                sys = QuantumSystem(h, rho0)
                v = sys.eigensystem.eigenvectors
                assert v.dtype == np.complex128
                assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-14
                bound = 8 * d * np.finfo(float).eps
                phase = np.abs(sys.eigensystem.eigenvalues).max() * self.TIMES
                for rate in self.RATES:
                    ness, stack = self.reference(h, sys.rho0, rate, self.TIMES)
                    assert np.abs(ness_density(sys, ResetSpec(rate)) - ness).max() <= bound
                    error = np.abs(reset_density_stack(sys, rate, self.TIMES) - stack)
                    assert np.all(error.max(axis=(1, 2)) <= bound * (1.0 + phase))

    @pytest.mark.parametrize("entry", [(0, 2), (1, 1)])
    def test_any_imaginary_part_takes_the_complex_solver(self, monkeypatch, entry):
        # an off-diagonal pair, or a diagonal part far inside the Hermitian tolerance
        h = ising_ring(3, 1.1, 0.7)
        i, j = entry
        h[i, j] += 1e-3j if i != j else 1e-30j
        h[j, i] = h[i, j].conjugate() if i != j else h[i, j]
        rho0 = np.eye(8, dtype=complex) / 8
        received = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            received.append(a.dtype)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        QuantumSystem(h, rho0)
        # rho0's eigendecomposition, then the Hamiltonian's
        assert received == [np.complex128, np.complex128]
        received.clear()
        QuantumSystem(h.real, rho0)
        assert received == [np.complex128, np.float64]


class TestResetSpec:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResetSpec(-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ResetSpec(float("nan"))


class TestUnitaryEvolve:
    def test_t0_is_rho0(self):
        sys = two_spin_system()
        assert np.array_equal(unitary_evolve(sys, 0.0), sys.rho0)

    def test_eigenstate_is_stationary(self):
        sys = two_spin_system()
        w, v = sys.eigensystem
        proj = np.outer(v[:, 0], v[:, 0].conj())
        fixed = QuantumSystem(sys.hamiltonian, proj)
        for t in (0.3, 1.7, 9.0):
            assert np.abs(unitary_evolve(fixed, t) - proj).max() < 1e-13

    def test_matches_expm(self):
        sys = two_spin_system(alpha=0.7)
        for t in (0.4, 2.2):
            u = expm(-1j * sys.hamiltonian * t)
            expected = u @ sys.rho0 @ u.conj().T
            assert np.abs(unitary_evolve(sys, t) - expected).max() < 1e-12

    def test_matches_two_spin_closed_form(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        sys = quantum_system(p)
        reduced = partial_trace(unitary_evolve(sys, 0.7), SPLIT, "A")
        assert np.abs(reduced - reduced_matrix(0.7, 0.0, p.alpha)).max() < 1e-12

    def test_preserves_density_properties(self):
        sys = two_spin_system(alpha=2.0)
        for t in (0.5, 3.0, 12.0):
            assert_valid_density(unitary_evolve(sys, t))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            unitary_evolve(two_spin_system(), -1.0)

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_views_leave_the_time_check_to_the_stack(self, t):
        sys = two_spin_system()
        with pytest.raises(ValueError, match="times must be"):
            unitary_evolve(sys, t)
        with pytest.raises(ValueError, match="times must be"):
            reset_density(sys, ResetSpec(1.0), t)


class TestResetDensity:
    def test_rate_zero_equals_unitary(self):
        for sys in (two_spin_system(), two_spin_system(alpha=0.0)):
            for t in (0.0, 1e-9, 0.9, 4.0, 1e5):
                assert np.array_equal(reset_density(sys, ResetSpec(0.0), t),
                                      unitary_evolve(sys, t))

    def test_t0_is_rho0(self):
        sys = two_spin_system()
        assert np.array_equal(reset_density(sys, ResetSpec(1.0), 0.0), sys.rho0)

    def test_matches_appendix_closed_form(self):
        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        sys = quantum_system(p)
        reduced = partial_trace(reset_density(sys, ResetSpec(1.0), 2.0), SPLIT, "A")
        assert np.abs(reduced - reduced_matrix(2.0, 1.0, 1.0)).max() < 1e-10

    def test_preserves_density_properties(self):
        for R, alpha in [(0.1, 0.0), (1.0, 1.0), (5.0, 2.0)]:
            sys = two_spin_system(R, alpha)
            for t in (0.2, 1.0, 7.0):
                assert_valid_density(reset_density(sys, ResetSpec(R), t))

    @pytest.mark.filterwarnings("error")
    def test_short_times_are_first_order(self):
        # rho0 - i t [H, rho0] to round-off, at every rate: the kernel's
        # terms are bounded by 1, so no series is needed as r t and omega t
        # go to 0.  The reference is taken in the engine's energy basis,
        # whose round trip alone costs up to 3e-15 on these systems.
        ts = np.array([5e-324, 1e-300, 1e-12, 1e-9])
        rng = np.random.default_rng(61)
        systems = [two_spin_system(1.0, 1.0), two_spin_system(1.0, 0.0)]
        for d in (2, 3, 4, 6):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            systems.append(QuantumSystem(a + a.conj().T, random_density(rng, d)))
        for sys in systems:
            energies, v = sys.eigensystem
            rho_e = v.conj().T @ sys.rho0 @ v
            commutator = (energies[:, None] - energies[None, :]) * rho_e
            expected = v @ (rho_e - 1j * ts[:, None, None] * commutator) @ v.conj().T
            for rate in (0.0, 1e-3, 1.0):
                got = reset_density_stack(sys, rate, ts)
                assert np.abs(got - expected).max() <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_damped_past_underflow_is_the_stationary_state(self):
        # exp(-r t) is 0 from r t = 746 on, and at t = 1e308 the phases
        # E t overflow: the transient takes the phase at t = 0 and drops out
        for alpha in (0.5, 1.0, 3.0):
            sys = two_spin_system(1.0, alpha)
            ts = np.array([800.0, 1e300, 1e308])
            for rate in (1.0, 10.0):
                ness = ness_density(sys, ResetSpec(rate))
                for rho in reset_density_stack(sys, rate, ts):
                    assert np.array_equal(rho, ness)

    def test_renewal_consistency(self):
        # reset_density -> ness exponentially: deviation <= C exp(-r t)
        # with C measured over a couple of oscillation periods
        for R, alpha in [(0.5, 1.0), (1.0, 0.5), (2.0, 2.0)]:
            sys = two_spin_system(R, alpha)
            ness = ness_density(sys, ResetSpec(R))
            dev = lambda t: np.abs(
                reset_density(sys, ResetSpec(R), t) - ness
            ).max()
            c = 2.0 * max(
                dev(t) * np.exp(R * t) for t in np.linspace(0.5, 6.0, 23)
            )
            for t in (8.0, 12.0, 20.0):
                assert dev(t) <= c * np.exp(-R * t)


class TestFiniteTimeStates:
    """Every state that reset_density_stack returns is Hermitian, of unit
    trace and PSD to round-off, so no caller checks it again; where the
    first-order rounding of its phases, b = 2 eps sum |rho0_e U| max|E| t
    exp(-r t), reaches PHASE_BUDGET it raises instead, naming the first
    such time."""

    T_TWO_SPIN = np.r_[0.0, np.geomspace(1e-3, 1e16, 39)]
    T_RANDOM = np.r_[0.0, np.geomspace(1e-3, 1e17, 41)]

    @staticmethod
    def budget(sys, rate, ts):
        """b at the times ts, from the energies, the vectors and rho0."""
        energies, v = sys.eigensystem
        rho0_e = v.conj().T @ sys.rho0 @ v
        omega = energies[:, None] - energies
        with np.errstate(all="ignore"):
            u = np.where(omega == 0.0, 0.0, 1j * omega / (rate + 1j * omega))
            damp = np.exp(-rate * ts)
            live = np.where(damp > 0.0, ts, 0.0)
            weight = 2.0 * np.finfo(float).eps * np.abs(rho0_e * u).sum()
            return weight * (np.abs(energies).max() * live) * damp

    @classmethod
    def check(cls, sys, rate, ts):
        """Assert the rule on the whole grid, then the states on the times
        it keeps (all of them if it returns)."""
        kept = cls.budget(sys, rate, ts) < PHASE_BUDGET
        if kept.all():
            rho = reset_density_stack(sys, rate, ts)
        else:
            first = re.escape(f"digits at t = {float(ts[np.argmin(kept)])} (R = {float(rate)}):")
            with pytest.raises(ValueError, match=first):
                reset_density_stack(sys, rate, ts)
            rho = reset_density_stack(sys, rate, ts[kept])
        assert np.abs(rho - rho.conj().swapaxes(-1, -2)).max() <= 1e-15
        assert np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max() <= 1e-13
        # the worst on these grids is -1.6e-16
        assert np.linalg.eigvalsh(rho)[:, 0].min() >= -1e-14
        return kept

    @pytest.mark.filterwarnings("error")
    def test_two_spin_scan(self):
        refused = 0
        for R in np.r_[0.0, np.geomspace(1e-12, 1.0, 13)]:
            for alpha in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                kept = self.check(two_spin_system(R, alpha), R, self.T_TWO_SPIN)
                refused += int(not kept.all())
        # every coupling refuses a time at rates 0 .. 1e-8, and alpha = 10
        # at 1e-7; from 1e-6 on exp(-r t) damps the transient before its
        # phases reach the budget
        assert refused == 6 * 7 + 1

    def test_per_level_phases_at_rate_zero(self):
        # phases formed pair by pair once gave an eigenvalue of -4.47e-8 at
        # t = 1e9; 1e7 is the largest decade the rule keeps here (it refuses
        # from t = 1.43e7)
        assert self.check(two_spin_system(0.0, 1.0), 0.0, np.array([1e7])).all()

    @pytest.mark.filterwarnings("error")
    def test_random_systems(self):
        rng = np.random.default_rng(2024)
        ranks = set()
        for _ in range(200):
            d = int(rng.integers(2, 9))
            rank = int(rng.integers(1, d + 1))
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            f = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            rho0 = f @ f.conj().T
            sys = QuantumSystem((a + a.conj().T) / 2, rho0 / np.trace(rho0).real)
            self.check(sys, 10.0 ** rng.uniform(-12.0, 2.0), self.T_RANDOM)
            ranks.add((d, rank))
        assert {(d, k) for d in (2, 8) for k in (1, d)} <= ranks

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rate, ts, first", [
        (0.0, [0.0, 1e6, 1e16, 1e17], "1e+16"),
        (0.0, [1e308], "1e+308"),
        (1e-300, [0.0, 1e17], "1e+17"),
    ])
    def test_refuses_phases_without_digits(self, rate, ts, first):
        sys = two_spin_system(rate, 1.0)
        with pytest.raises(ValueError) as err:
            reset_density_stack(sys, rate, ts)
        # the closed forms' message, with the engine's budget
        message = str(err.value)
        assert message.startswith(f"the phases keep too few digits at t = {first} "
                                  f"(R = {rate}): their rounding can move the transient by ")
        assert message.endswith(" >= 1.5e-08 while exp(-R t) > 0")
        # the one-matrix views refuse the last time, which keeps too few digits too
        last = re.escape(f"digits at t = {float(ts[-1])} ")
        with pytest.raises(ValueError, match=last):
            reset_density(sys, ResetSpec(rate), ts[-1])
        if rate == 0.0:
            with pytest.raises(ValueError, match=last):
                unitary_evolve(sys, ts[-1])

    @pytest.mark.filterwarnings("error")
    def test_a_stationary_rho0_refuses_a_phase_past_the_float_range(self):
        # rho0 is diagonal in the energy basis, so the budget's sum is 0;
        # max|E| t = 2e308 overflows, and 0 * inf = nan refuses the time
        # rather than accepting it and returning nan
        sys = QuantumSystem(np.diag([2.0, 0.0, 0.0, -2.0]), np.outer(DOWN_DOWN, DOWN_DOWN))
        assert np.array_equal(reset_density_stack(sys, 0.0, [1e307])[0], sys.rho0)
        with pytest.raises(ValueError, match=re.escape("t = 1e+308 (R = 0.0): their "
                                                       "rounding can move the transient by nan")):
            reset_density_stack(sys, 0.0, [1e308])

    @pytest.mark.filterwarnings("error")
    def test_the_engine_is_within_the_closed_forms_budget(self):
        # on the two-spin H the engine never keeps a time that the closed
        # forms refuse, and where both keep it their <dd|rho|dd> agree
        # within twice the two budgets (at most 0.77 of it, over 2941
        # times); above alpha = 10 the engine's stationary error (eps
        # max|E|/gap in its eigenvectors) dominates
        ts = np.geomspace(1e-2, 1e12, 57)
        worst, compared = 0.0, 0
        for R in np.r_[0.0, np.geomspace(1e-9, 1.0, 10)]:
            for alpha in (0.0, 0.3, 1.0, 3.0, 10.0):
                sys = two_spin_system(R, alpha)
                engine = self.budget(sys, R, ts)
                closed = phase_budget(ts, R, alpha)
                assert not np.any((engine < PHASE_BUDGET) & ~(closed < PHASE_BUDGET))
                for t in ts[~(closed < PHASE_BUDGET)]:
                    with pytest.raises(ValueError, match="keep too few digits"):
                        reset_density_stack(sys, R, [t])
                both = (engine < PHASE_BUDGET) & (closed < PHASE_BUDGET)
                if not both.any():
                    continue
                dd = reset_density_stack(sys, R, ts[both])[:, 3, 3].real
                gap = np.abs(dd - (1.0 - infidelity_reset_array(ts[both], R, alpha)))
                bound = 2.0 * (engine[both] + closed[both]) + 4e-15
                worst = max(worst, float((gap / bound).max()))
                compared += int(both.sum())
        assert worst <= 1.0
        assert compared >= 2900


class TestNessDensity:
    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            ness_density(two_spin_system(), ResetSpec(0.0))

    def test_energy_diagonal_rho0_is_fixed_point(self):
        sys = two_spin_system()
        w, v = sys.eigensystem
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        rho0 = (v * weights) @ v.conj().T
        fixed = QuantumSystem(sys.hamiltonian, rho0)
        out = ness_density(fixed, ResetSpec(0.7))
        assert np.abs(out - rho0).max() < 1e-13

    def test_large_rate_pins_to_rho0(self):
        sys = two_spin_system()
        rate = 1e6 * np.linalg.norm(sys.hamiltonian)
        out = ness_density(sys, ResetSpec(rate))
        assert np.abs(out - sys.rho0).max() < 1e-5

    def test_down_down_element_is_fidelity(self):
        from qreset.twospin import fidelity_ness

        p = TwoSpinParams.from_dimensionless(1.0, 1.0)
        rho = ness_density(quantum_system(p), ResetSpec(1.0))
        assert abs(rho[3, 3].real - fidelity_ness(p)) < 1e-12

    def test_preserves_density_properties(self):
        for R, alpha in [(0.01, 0.0), (0.5, 1.0), (10.0, 10.0)]:
            assert_valid_density(
                ness_density(two_spin_system(R, alpha), ResetSpec(R))
            )

    def test_laplace_quadrature_identity(self):
        # independent route: rho(tau) by scipy expm, Laplace integral by
        # composite Simpson, refined until converged to 1e-8
        rate = 1.0
        sys = two_spin_system(1.0, 1.0)
        h = sys.hamiltonian
        t_max = 40.0 / rate

        def quadrature(n):
            taus = np.linspace(0.0, t_max, n)
            step = taus[1] - taus[0]
            vals = np.empty((n, 4, 4), dtype=complex)
            for k, tau in enumerate(taus):
                u = expm(-1j * h * tau)
                vals[k] = np.exp(-rate * tau) * (u @ sys.rho0 @ u.conj().T)
            weights = np.ones(n)
            weights[1:-1:2] = 4.0
            weights[2:-1:2] = 2.0
            return rate * step / 3.0 * np.tensordot(weights, vals, axes=(0, 0))

        coarse = quadrature(8001)
        fine = quadrature(16001)
        assert np.abs(fine - coarse).max() < 1e-8
        assert np.abs(fine - ness_density(sys, ResetSpec(rate))).max() < 1e-7

    def test_non_commuting_limits(self):
        sys = two_spin_system(1.0, 1.0)
        w, v = sys.eigensystem
        to_energy = lambda m: v.conj().T @ m @ v
        rho0_e = to_energy(sys.rho0)
        off = ~np.eye(4, dtype=bool)
        # r = 0 at finite t: pure oscillation, moduli unchanged
        for t in (1.0, 5.0, 25.0):
            rho_e = to_energy(reset_density(sys, ResetSpec(0.0), t))
            assert np.abs(np.abs(rho_e[off]) - np.abs(rho0_e[off])).max() < 1e-12
        # t -> infinity first, then r -> 0: off-diagonals gone
        tiny = 1e-8 * np.linalg.norm(sys.hamiltonian)
        rho_e = to_energy(ness_density(sys, ResetSpec(tiny)))
        assert np.abs(rho_e[off]).max() <= 1e-7


class TestStacks:
    """Each stack member equals, bit for bit, the one-matrix function."""

    def test_reset_density_stack(self):
        sys = two_spin_system(0.4, 1.5)
        ts = np.array([0.0, 1e-12, 0.3, 2.0, 40.0])
        stack = reset_density_stack(sys, 0.4, ts)
        assert np.array_equal(stack[0], sys.rho0)
        for t, rho in zip(ts, stack):
            assert np.array_equal(rho, reset_density(sys, ResetSpec(0.4), float(t)))

    def test_stacks_reject_bad_arguments(self):
        sys = two_spin_system()
        with pytest.raises(ValueError):
            ness_density(sys, ResetSpec(0.0))
        with pytest.raises(ValueError):
            ness_density(sys, ResetSpec(np.nan))
        with pytest.raises(ValueError):
            reset_density_stack(sys, 1.0, [0.5, -1.0])
        with pytest.raises(ValueError):
            reset_density_stack(sys, 1.0, [np.inf])


class TestNessFactor:
    """twospin._ness_cholesky gives the lower-triangular W_e of W = V3 W_e, V3
    the closed-form eigenvectors of the levels that carry |dd>, and W W^dagger
    is the stationary state."""

    RATES = np.r_[5e-324, 1e-300, 1e-12, 1e-9, np.geomspace(1e-3, 1e3, 13), 1e300, 1.7e308]
    # the engine merges the levels -gamma and -alpha into one cluster from
    # alpha ~ 1.6e4 (see TestConcurrenceReference in test_twospin.py)
    ALPHAS = np.array([0.0, 2.0, 1.5e4, 1.58e4, 1.6e4, 1.7e4, 1e6, 1e8])

    @staticmethod
    def factor(alphas, rates):
        """(alpha, n, 3, 3) W_e on the grid of couplings by rates, and
        (alpha, 4, 3) V3, whose columns are the eigenvectors at -gamma, -alpha
        and gamma: the symmetric-sector vectors mixed with the ratio t = 1/(gamma
        + alpha), and (|uu> - |dd>)/sqrt2."""
        gamma = np.hypot(alphas, 1.0)
        t = 1.0 / (gamma + alphas)
        entries = np.broadcast_arrays(*_ness_cholesky(t[:, None], 2.0 * gamma[:, None], rates))
        w = np.zeros(entries[0].shape + (3, 3), dtype=complex)
        rows, cols = np.tril_indices(3)
        w[..., rows, cols] = np.stack(entries, axis=-1)
        n = 1.0 / np.sqrt(2.0 + 2.0 * t * t)
        half, zero = np.full_like(n, np.sqrt(0.5)), np.zeros_like(n)
        v3 = np.stack([np.stack(row, axis=-1) for row in (
            (n, half, t * n), (-t * n, zero, n), (-t * n, zero, n), (n, -half, t * n))], axis=-2)
        return w, v3

    @staticmethod
    def exact_state(alpha, rate, digits=50):
        """The stationary state at the given digits: rho0 in the energy basis
        of an mpmath eigh of H times R/(R + i omega), in the computational
        basis."""
        with mpmath.workdps(digits):
            j, o2 = mpmath.mpf(alpha), mpmath.mpf(1) / 2
            energies, v = mpmath.eigsy(mpmath.matrix([[-j, o2, o2, 0], [o2, j, 0, o2],
                                                      [o2, 0, j, o2], [0, o2, o2, -j]]))
            r = mpmath.mpf(rate)
            rho_e = mpmath.matrix(4, 4)
            for i in range(4):
                for k in range(4):
                    rho_e[i, k] = v[3, i] * v[3, k] * r / (r + 1j * (energies[i] - energies[k]))
            rho = v * rho_e * v.T
            return np.array([[complex(rho[i, k]) for k in range(4)] for i in range(4)])

    @pytest.mark.filterwarnings("error")
    def test_factor_equals_the_density_stack(self):
        # the factor takes the gap of -gamma and -alpha as 1/(gamma + alpha)
        # and meets the 50-digit state within 5.6e-16 on both sides of the
        # engine's cluster edge; the engine takes the difference of the
        # rounded energies, 2e-10 off at alpha = 1.5e4, and is O(1) off at
        # small rates from 1.6e4, where its cluster sets that gap to 0
        w_e, v3 = self.factor(self.ALPHAS, self.RATES)
        factors = v3[:, None] @ w_e
        for alpha, w in zip(self.ALPHAS, factors):
            rho = w @ w.conj().swapaxes(-1, -2)
            ness = [self.exact_state(alpha, rate) for rate in self.RATES]
            assert np.abs(rho - ness).max() <= 1e-15
            if alpha <= 2.0:
                sys = two_spin_system(1.0, alpha)
                ness = [ness_density(sys, ResetSpec(rate)) for rate in self.RATES]
                assert np.abs(rho - ness).max() <= 1e-14

    @pytest.mark.filterwarnings("error")
    def test_an_underflowing_pivot_zeroes_column_one(self):
        # no two of the levels that carry |dd> are degenerate, but the pivot
        # c1' = c1 i t/(R + i t) underflows to exactly 0 where t/R does, t =
        # 1/(gamma + alpha), as at (alpha, R) = (1e150, 1e300); column 1 is
        # then zero, and the factor meets the state at the digits that
        # resolve the gap t
        alphas, rates = np.array([1e8, 1e150, 1e300]), np.array([1.0, 1e300, 1.7e308])
        w_e, v3 = self.factor(alphas, rates)
        pivot = w_e[..., 1, 1] != 0.0
        assert pivot.tolist() == [[True] * 3, [True, False, False], [True, False, False]]
        assert np.all(w_e[~pivot][..., 1] == 0.0)
        factors = v3[:, None] @ w_e
        for alpha, w in zip(alphas, factors):
            rho = w @ w.conj().swapaxes(-1, -2)
            ness = [self.exact_state(alpha, rate, digits=700) for rate in rates]
            assert np.abs(rho - ness).max() <= 1e-15


class TestPartialTrace:
    def test_product_state(self):
        rho = np.outer(DOWN_DOWN, DOWN_DOWN.conj())
        assert np.allclose(
            partial_trace(rho, SPLIT, "A"), np.outer(DOWN, DOWN.conj()), atol=1e-15
        )

    def test_bell_state(self):
        rho = np.outer(BELL, BELL.conj())
        assert np.allclose(partial_trace(rho, SPLIT, "A"), np.eye(2) / 2, atol=1e-15)

    def test_ness_reduction_values(self):
        rho = ness_density(two_spin_system(1.0, 1.0), ResetSpec(1.0))
        reduced = partial_trace(rho, SPLIT, "A")
        assert abs(reduced[0, 0] - 0.125) < 1e-12
        assert abs(reduced[0, 1] - (-1.0 / 9.0 - 0.125j)) < 1e-12

    def test_kron_factorization(self):
        rng = np.random.default_rng(21)
        for da, db in [(2, 2), (2, 3), (3, 2)]:
            a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
            b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
            rho_a, rho_b = a @ a.conj().T, b @ b.conj().T
            joint = np.kron(rho_a, rho_b)
            got = partial_trace(joint, SubsystemSplit(da, db), "A")
            assert np.abs(got - rho_a * np.trace(rho_b)).max() < 1e-14 * max(
                1.0, np.abs(joint).max()
            )

    def test_keep_b(self):
        rng = np.random.default_rng(22)
        rho = random_density(rng, 6)
        split = SubsystemSplit(2, 3)
        a_part = partial_trace(rho, split, "A")
        b_part = partial_trace(rho, split, "B")
        assert abs(np.trace(a_part) - 1.0) < 1e-13
        assert abs(np.trace(b_part) - 1.0) < 1e-13
        assert b_part.shape == (3, 3)

    def test_trace_preserved(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng, 4)
        reduced = partial_trace(rho, SPLIT, "A")
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4, dtype=complex) / 4, SubsystemSplit(2, 3))

    def test_bad_keep(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4, dtype=complex) / 4, SPLIT, "C")
