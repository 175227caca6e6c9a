import numpy as np
import pytest

from qreset.cmatrix import (
    HermitianEigensystem,
    adjoint,
    as_cmatrix,
    as_density_matrix,
    hermitian_eig,
    hermitize,
    kron,
    mat_mul,
    psd_sqrt,
    psd_sqrt_stack,
    trace,
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)

# sigma_y (x) sigma_y expanded by hand: anti-diagonal (-1, 1, 1, -1)
SYSY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(a)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


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


class TestMatMul:
    def test_identity(self):
        assert np.array_equal(mat_mul(I2, I2), I2)

    def test_pauli_involution(self):
        assert np.allclose(mat_mul(SY, SY), I2, atol=1e-15)

    def test_spin_flip_involution(self):
        assert np.allclose(mat_mul(SYSY, SYSY), I4, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(I2, I4)

    def test_trace_cyclicity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert abs(trace(mat_mul(a, b)) - trace(mat_mul(b, a))) < 1e-13


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(adjoint(I2), I2)

    def test_sigma_y_hermitian(self):
        assert np.array_equal(adjoint(SY), SY)

    def test_diag_imag(self):
        assert np.array_equal(
            adjoint(np.diag([1j, -1j])), np.diag([-1j, 1j])
        )


class TestTrace:
    def test_identity(self):
        assert trace(I4) == 4.0

    def test_sigma_y(self):
        assert trace(SY) == 0.0


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), I4)

    def test_sigma_y_pair(self):
        assert np.allclose(kron(SY, SY), SYSY, atol=0)

    def test_projector_blocks(self):
        assert np.array_equal(
            kron(np.diag([1.0, 0.0]).astype(complex), I2),
            np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
        )

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            lhs = kron(kron(a, b), c)
            rhs = kron(a, kron(b, c))
            assert np.abs(lhs - rhs).max() < 1e-15 * max(np.abs(lhs).max(), 1.0)


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
        roots = psd_sqrt_stack(stack.copy())
        for rho, root in zip(stack, roots):
            assert np.array_equal(root, psd_sqrt(rho))

    def test_stack_with_one_indefinite_member_raises(self):
        rng = np.random.default_rng(11)
        stack = np.array([random_density(rng, 4) for _ in range(5)])
        stack[3] = np.diag([0.7, 0.4, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt_stack(stack)


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
