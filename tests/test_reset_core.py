import numpy as np
import pytest
from scipy.linalg import expm

from qreset.cmatrix import hermitize
from qreset.reset_core import (
    DEGENERACY_RTOL,
    QuantumSystem,
    ResetSpec,
    SubsystemSplit,
    ness_density,
    ness_density_stack,
    ness_factor_stack,
    partial_trace,
    reset_density,
    reset_density_stack,
    unitary_evolve,
)
from qreset.twospin import TwoSpinParams, quantum_system, reduced_state_array

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


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def ising_ring(L, g):
    """Periodic transverse-field Ising chain -sum Z_i Z_i+1 - g sum X_i, spin
    0 slowest: its translations and reflection make the spectrum degenerate."""
    states = np.arange(2**L)
    z = 1.0 - 2.0 * ((states[:, None] >> np.arange(L)[::-1]) & 1)
    h = np.diag(-np.sum(z * np.roll(z, -1, axis=1), axis=1)).astype(complex)
    for i in range(L):
        h[states, states ^ (1 << i)] -= g
    return h


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
        rng = np.random.default_rng(44)
        h = hermitize(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        rho0 = np.eye(6, dtype=complex) / 6
        tol = QuantumSystem(h, rho0).degeneracy_tol
        assert tol == pytest.approx(DEGENERACY_RTOL * np.linalg.norm(h), rel=1e-15)
        # the unscaled norm of this h overflows; its scaled one does not
        huge = QuantumSystem(h * 1e306, rho0).degeneracy_tol
        assert np.isfinite(huge)
        assert huge == pytest.approx(tol * 1e306, rel=1e-14)
        assert QuantumSystem(np.zeros((6, 6)), rho0).degeneracy_tol == 0.0

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
                assert np.array_equal(reset_density_stack(sys, rate, ts),
                                      ness_density_stack(sys, np.full(3, rate)))

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

    def test_ness_density_stack(self):
        for alpha in (0.0, 0.7, 12.0):
            sys = two_spin_system(1.0, alpha)
            rates = np.geomspace(1e-3, 1e3, 9)
            stack = ness_density_stack(sys, rates)
            assert stack.shape == (9, 4, 4)
            for rate, rho in zip(rates, stack):
                assert np.array_equal(rho, ness_density(sys, ResetSpec(float(rate))))

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
            ness_density_stack(sys, [1.0, 0.0])
        with pytest.raises(ValueError):
            ness_density_stack(sys, [1.0, np.nan])
        with pytest.raises(ValueError):
            reset_density_stack(sys, 1.0, [0.5, -1.0])
        with pytest.raises(ValueError):
            reset_density_stack(sys, 1.0, [np.inf])


class TestNessFactor:
    """ness_factor_stack gives W with W W^dagger the stationary state."""

    RATES = np.r_[5e-324, 1e-300, 1e-12, 1e-9, np.geomspace(1e-3, 1e3, 13), 1e300, 1.7e308]

    @staticmethod
    def pure_systems():
        """(system, psi) pairs with rho0 = |psi><psi|."""
        rng = np.random.default_rng(61)
        for d in (2, 3, 4, 6):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            yield QuantumSystem(a + a.conj().T, np.outer(psi, psi.conj())), psi
        for alpha in (0.0, 2.0):
            yield two_spin_system(1.0, alpha), DOWN_DOWN
        for L, g in ((4, 1.0), (5, 0.6)):
            # a product state tilted off the axes overlaps every symmetry sector
            one = np.array([np.cos(0.4), np.exp(0.7j) * np.sin(0.4)])
            psi = np.ones(1, dtype=complex)
            for _ in range(L):
                psi = np.kron(psi, one)
            yield QuantumSystem(ising_ring(L, g), np.outer(psi, psi.conj())), psi
        # four levels 0.6 tolerances apart chain into one cluster, so the
        # pairs two gaps apart are degenerate too; the tolerance
        # DEGENERACY_RTOL ||H||_F depends weakly on the spacing
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        delta = 0.0
        for _ in range(3):
            levels = 1.0 + delta * np.arange(4)
            delta = 0.6 * DEGENERACY_RTOL * np.linalg.norm(levels)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        yield QuantumSystem(hermitize((q * levels) @ q.conj().T), np.outer(psi, psi.conj())), psi

    def factor(self, sys, psi):
        return ness_factor_stack(sys.eigensystem, sys.degeneracy_tol, psi, self.RATES)

    @pytest.mark.filterwarnings("error")
    def test_factor_equals_the_density_stack(self):
        for sys, psi in self.pure_systems():
            w = self.factor(sys, psi)
            assert w.shape == (self.RATES.size, sys.dim, sys.dim)
            rho = w @ w.conj().swapaxes(-1, -2)
            assert np.abs(rho - ness_density_stack(sys, self.RATES)).max() <= 1e-14

    def test_a_degenerate_cluster_has_at_most_one_nonzero_column(self):
        seen = 0
        for sys, psi in self.pure_systems():
            energies = sys.eigensystem.eigenvalues
            starts = np.r_[0, np.flatnonzero(np.diff(energies) > sys.degeneracy_tol) + 1]
            w = self.factor(sys, psi)
            for lo, hi in zip(starts, np.r_[starts[1:], sys.dim]):
                nonzero = np.any(w[:, :, lo:hi] != 0.0, axis=1).sum(axis=-1)
                assert np.all(nonzero <= 1)
                seen += hi - lo - 1
        assert seen >= 10  # the rings and the uncoupled pair are degenerate


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
