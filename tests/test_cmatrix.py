import numpy as np
import pytest
from helpers import random_density, random_pure

from qreset.cmatrix import (
    HermitianEigensystem,
    as_cmatrix,
    as_density_matrix,
    density_factor,
    density_spectrum,
    hermitian_eig,
    hermitize,
    max_entry,
    psd_factor_stack,
    psd_sqrt,
    require_hermitian,
)
from qreset.reset_core import QuantumSystem
from qreset.twospin import TwoSpinParams, quantum_system

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(a)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_cmatrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            as_cmatrix(m)

    def test_rejects_inf_imag(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1j * np.inf
        with pytest.raises(ValueError):
            as_cmatrix(m)

    def test_copies_input(self):
        src = np.eye(2, dtype=complex)
        out = as_cmatrix(src)
        out[0, 0] = 5.0
        assert src[0, 0] == 1.0


class TestRequireHermitian:
    def test_rejects_non_hermitian_whose_norm_overflows(self):
        # both Frobenius norms of the unscaled matrix overflow to inf
        a = np.array([[1e300, 1e300], [-1e300, 1e300]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(a)

    def test_accepts_hermitian_near_float_max(self):
        big = 1.7e308
        a = np.array([[big, big - 1j * big], [big + 1j * big, -big]])
        require_hermitian(a)  # no overflow warning either (warnings are errors)

    def test_judged_relative_to_largest_entry(self):
        # an unscaled norm floor once accepted this subnormal matrix
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(np.array([[0.0, 1e-311], [0.0, 0.0]], dtype=complex))
        require_hermitian(np.array([[1e-311, 0.0], [0.0, -1e-311]], dtype=complex))
        require_hermitian(np.zeros((3, 3), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            require_hermitian(np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex))

    def test_max_entry(self):
        assert max_entry(np.array([[1.0 - 3j, -2.0], [0.5j, 2.5]])) == 3.0
        assert max_entry(np.zeros((2, 2))) == 0.0
        assert np.isnan(max_entry(np.array([[1.0, np.nan]])))

    def test_real_matrix_judged_as_given(self):
        # a real input within tolerance passes and is left as given
        a = np.array([[1.0, 1e-17], [0.0, 1.0]])
        require_hermitian(a)
        assert a.tolist() == [[1.0, 1e-17], [0.0, 1.0]]
        with pytest.raises(ValueError, match=r"deviation 1\.414e\+00"):
            require_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestHermitianEig:
    def test_identity(self):
        es = hermitian_eig(I2)
        assert isinstance(es, HermitianEigensystem)
        assert np.allclose(es.eigenvalues, [1.0, 1.0])

    def test_sigma_y(self):
        es = hermitian_eig(SY)
        assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_two_spin_spectrum(self):
        # block-diagonalizing by spin-swap symmetry gives -sqrt(2), -1, 1, sqrt(2)
        h = np.array(
            [
                [-1.0, 0.5, 0.5, 0.0],
                [0.5, 1.0, 0.0, 0.5],
                [0.5, 0.0, 1.0, 0.5],
                [0.0, 0.5, 0.5, -1.0],
            ],
            dtype=complex,
        )
        es = hermitian_eig(h)
        s2 = np.sqrt(2.0)
        assert np.allclose(es.eigenvalues, [-s2, -1.0, 1.0, s2], atol=1e-13)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            hermitian_eig(m)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4, 8, 16):
            a = random_hermitian(rng, dim)
            w, v = hermitian_eig(a)
            scale = np.linalg.norm(a)
            assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-12 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-12
            assert np.all(np.diff(w) >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 6)
        w1, v1 = hermitian_eig(a)
        w2, v2 = hermitian_eig(a)
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(I4), I4, atol=1e-15)

    def test_diagonal(self):
        d = np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex)
        assert np.allclose(psd_sqrt(d), np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_reconstructs_density_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_density(rng, 4)
            s = psd_sqrt(rho)
            assert np.linalg.norm(s @ s - rho) < 1e-12
            assert np.linalg.norm(s - s.conj().T) < 1e-13
            assert np.linalg.eigvalsh(s)[0] >= -1e-13

    def test_reconstruction_tolerance_general(self):
        rng = np.random.default_rng(8)
        for dim in (2, 4, 8):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            psd = a @ a.conj().T
            s = psd_sqrt(psd)
            bound = 1e-11 * max(1.0, np.linalg.norm(psd))
            assert np.linalg.norm(s @ s - psd) <= bound

    def test_clips_round_off_negatives(self):
        d = np.diag([1.0, -0.5e-10, 0.5, 0.25]).astype(complex)
        s = psd_sqrt(d)
        assert s[1, 1].real == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -0.1]).astype(complex))

    def test_stack_equals_one_by_one(self):
        rng = np.random.default_rng(10)
        stack = np.array([random_density(rng, 4) for _ in range(6)])
        factors, v = psd_factor_stack(stack.copy())
        roots = hermitize(factors @ v.conj().swapaxes(-1, -2))
        for rho, root in zip(stack, roots):
            assert np.array_equal(root, psd_sqrt(rho))

    def test_stack_with_one_indefinite_member_raises(self):
        rng = np.random.default_rng(11)
        stack = np.array([random_density(rng, 4) for _ in range(5)])
        stack[3] = np.diag([0.7, 0.4, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="not PSD"):
            psd_factor_stack(stack)


class TestDensityValidation:
    def test_accepts_density(self):
        rng = np.random.default_rng(9)
        as_density_matrix(random_density(rng, 4))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            as_density_matrix(2 * I2)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            as_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            as_density_matrix(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))

    def test_spectrum_is_clamped_and_ascending(self):
        # eigenvalues just below zero (inside PSD_CLIP_TOL) are round-off
        m, w = density_spectrum(np.diag([1.0 + 1e-12, -1e-12]).astype(complex))
        assert np.array_equal(w, [0.0, 1.0])
        assert np.array_equal(m, np.diag([1.0 + 1e-12, -1e-12]))

    def test_one_eigvalsh_per_validated_matrix(self, monkeypatch):
        import qreset.cmatrix as cmatrix_mod
        from qreset.observables import von_neumann_entropy

        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(cmatrix_mod.np.linalg, "eigvalsh", counted)
        rho = random_density(np.random.default_rng(12), 4)
        as_density_matrix(rho)
        density_spectrum(rho)
        von_neumann_entropy(rho)
        assert calls == [(4, 4)] * 3


def product_vector(rng, n_qubits):
    psi = np.ones(1, dtype=complex)
    for _ in range(n_qubits):
        psi = np.kron(psi, random_pure(rng, 2))
    return psi


def near_pure(rng, dim, second):
    # (1 - second) psi psi^dagger + second phi phi^dagger, psi orthogonal to phi
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
    return ((1.0 - second) * np.outer(q[:, 0], q[:, 0].conj())
            + second * np.outer(q[:, 1], q[:, 1].conj()))


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices handed to np.linalg.eigh."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestRankOneFactor:
    """density_factor's rank-one route: a matrix whose residual after the
    column through its largest diagonal entry is within PSD_NULL_RTOL ||f||^2
    gives that one column with no eigendecomposition; any other matrix takes
    one eigh, with today's checks and messages."""

    PURE = ([("random", d) for d in (2, 3, 4, 8, 16, 64, 256)]
            + [("product", d) for d in (2, 4, 16, 256)] + [("uniform", 256)])

    @pytest.mark.parametrize("kind, dim", PURE)
    def test_pure_states_take_one_column(self, eigh_calls, kind, dim):
        rng = np.random.default_rng(dim)
        if kind == "random":
            psi = random_pure(rng, dim)
        elif kind == "product":
            psi = product_vector(rng, dim.bit_length() - 1)
        else:
            # every rho0_pp is 1/256: the tolerance scales with ||f||^2
            # (here 1), not with the pivot
            psi = np.full(dim, 1.0 / 16.0, dtype=complex)
        rho = np.outer(psi, psi.conj())
        m, f = density_factor(rho)
        assert eigh_calls == []
        assert f.shape == (dim, 1)
        assert np.array_equal(m, rho)
        assert np.abs(f @ f.conj().T - rho).max() <= 1e-15
        assert abs(np.vdot(f, f).real - 1.0) <= 1e-14
        # f is psi up to a phase
        assert abs(abs(np.vdot(f[:, 0], psi)) - 1.0) <= 1e-14

    @pytest.mark.parametrize("second, columns, eighs", [(1e-16, 1, 0), (1e-12, 2, 1)])
    def test_near_pure_mixture(self, eigh_calls, second, columns, eighs):
        rho = near_pure(np.random.default_rng(31), 8, second)
        _, f = density_factor(rho)
        assert f.shape == (8, columns)
        assert eigh_calls == [(8, 8)] * eighs
        assert np.abs(f @ f.conj().T - rho).max() <= 1e-15

    def test_a_negative_diagonal_entry_is_refused_by_the_eigh_route(self, eigh_calls):
        rho = np.diag([1.0 + 1e-9, 0.0, 0.0, -1e-9]).astype(complex)
        with pytest.raises(ValueError, match=r"^density matrix not PSD: eigenvalue -1\.000e-09$"):
            density_factor(rho)
        assert eigh_calls == [(4, 4)]

    def test_a_round_off_negative_eigenvalue_is_flattened(self, eigh_calls):
        _, f = density_factor(np.diag([1.0 + 1e-12, 0.0, -1e-12]).astype(complex))
        assert eigh_calls == [(3, 3)]
        assert np.array_equal(np.abs(f[:, 0]), [1.0 + 5e-13, 0.0, 0.0])

    @pytest.mark.parametrize("bad, message", [
        # rank one but not Hermitian: psi phi^dagger with unit trace
        ("non-Hermitian", "density matrix is not Hermitian"),
        ("twice", "density matrix trace is"),
    ])
    def test_the_checks_before_it_come_first(self, eigh_calls, bad, message):
        rng = np.random.default_rng(32)
        psi, phi = random_pure(rng, 4), random_pure(rng, 4)
        if bad == "non-Hermitian":
            rho = np.outer(psi, phi.conj()) / np.vdot(phi, psi)
        else:
            rho = 2.0 * np.outer(psi, psi.conj())
        with pytest.raises(ValueError, match=message):
            density_factor(rho)
        assert eigh_calls == []

    def test_overflowing_residual_takes_the_eigh_route(self, eigh_calls):
        # Hermitian with unit trace, entries far beyond the diagonal
        rho = np.array([[0.5, 1e200], [1e200, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="density matrix not PSD"):
            density_factor(rho)
        assert eigh_calls == [(2, 2)]

    def test_generic_system_of_a_pure_rho0_takes_only_the_hamiltonians_eigh(
            self, eigh_calls):
        rng = np.random.default_rng(33)
        h = hermitize(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        psi = random_pure(rng, 16)
        sys = QuantumSystem(h, np.outer(psi, psi.conj()))
        assert eigh_calls == [(16, 16)]
        assert sys.rho0_factor.shape == (16, 1)

    def test_two_spin_system_takes_only_the_hamiltonians_eigh(self, eigh_calls):
        sys = quantum_system(TwoSpinParams.from_dimensionless(0.3, 1.7))
        assert eigh_calls == [(4, 4)]
        assert np.array_equal(sys.rho0_factor, [[0.0], [0.0], [0.0], [1.0]])
