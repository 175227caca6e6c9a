"""Correlation and distance measures on density matrices.

von Neumann entropy, Uhlmann fidelity (general and pure-reference),
purity, and the two-qubit concurrence in Wootters' closed form.

Purity, fidelity and concurrence each have one body that works on a
(..., d, d) stack of density matrices (``purity_stack``,
``fidelity_factor_stack``, ``concurrence_stack``).  The purity is the sum
of |rho_ij|^2, which is tr(rho^2) for the Hermitian states it is given,
in O(d^2) and with no matrix product.  Fidelity and
concurrence are computed from factors in every case.  The fidelity of
rho = W W^dagger to sigma = F F^dagger is the squared sum of the singular
values of W^dagger F: F may be any factor, such as the nonzero columns that
``QuantumSystem.rho0_factor`` keeps, and ``fidelity`` takes it from one
eigendecomposition of sigma.  A pure sigma (one column) needs no factor of
rho: the fidelity is F^dagger rho F.  Concurrence takes a stack of factors
W, rho = W W^dagger (``concurrence_factor_stack``): Wootters' spectrum is
the singular values of tau = W^T (sigma_y x sigma_y) W, and ``_wootters``
applies the rule to a stack of tau by one LAPACK svd of each.  The
symmetric 3 x 3 tau of ``twospin`` takes the rule in closed form
(``_wootters_3x3``): the largest singular value from the trigonometric
cubic, the sum of the other two from |det tau| and ||adj tau||_F, and
``_wootters`` only where the top pair nearly meets.
Those bodies trust their input, as the states ``reset_core`` builds may
be, and check only what an eigendecomposition gives for free; the
one-matrix functions validate their arguments and call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cmatrix import as_density_matrix, density_spectrum, psd_factor_stack
from .reset_core import SubsystemSplit, partial_trace

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
# sigma_y (x) sigma_y: the two-qubit spin-flip conjugator, a real involution.
_SPIN_FLIP_OP = np.kron(_SIGMA_Y, _SIGMA_Y).real


def von_neumann_entropy(rho) -> float:
    """-tr(rho ln rho) in nats, with the 0 ln 0 = 0 convention."""
    _, w = density_spectrum(rho)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def purity(rho) -> float:
    """tr(rho^2); one for pure states, 1/dim for maximally mixed."""
    return float(purity_stack(as_density_matrix(rho)))


def purity_stack(rho: np.ndarray) -> np.ndarray:
    """tr(rho^2) of each matrix in a (..., d, d) stack, as the sum of
    |rho_ij|^2: it trusts its input to be Hermitian, for which the two are
    equal, and a sum of non-negative terms cannot cancel."""
    return (np.square(rho.real) + np.square(rho.imag)).sum(axis=(-2, -1))


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Symmetric in its arguments; equals one iff the states coincide.
    Evaluated from factors rho = W W^dagger and sigma = F F^dagger as the
    squared nuclear norm of W^dagger F, whose squared singular values are
    the nonzero spectrum of sqrt(sigma) rho sqrt(sigma), so no square root
    of a matrix is taken.  The singular values are taken directly: as roots
    of the eigenvalues of F^dagger rho F the small ones would keep only
    half their digits.
    """
    rho = as_density_matrix(rho)
    sigma = as_density_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return float(fidelity_factor_stack(rho, psd_factor_stack(sigma)[0]))


def fidelity_factor_stack(rho: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity of each density matrix in a (..., d, d) stack to
    sigma = F F^dagger, for factors F of shape (..., d, k).

    For k > 1 it is (sum s)^2 over the singular values s of W^dagger F,
    with W from one eigendecomposition of each rho and the PSD check that
    comes with it (see ``psd_factor_stack``).  A pure sigma (k = 1) needs
    no factor of rho: the fidelity is the real part of the 1 x 1 matrix
    F^dagger rho F, clipped into [0, 1] and trusted like the other bodies.
    """
    if f.shape[-1] == 1:
        return np.clip((f.conj().swapaxes(-1, -2) @ rho @ f)[..., 0, 0].real, 0.0, 1.0)
    w = psd_factor_stack(rho)[0]
    s = np.linalg.svd(w.conj().swapaxes(-1, -2) @ f, compute_uv=False)
    return np.clip(s.sum(axis=-1) ** 2, 0.0, 1.0)


def fidelity_pure(rho, psi) -> float:
    """Fidelity against a pure reference state: the real part of
    <psi| rho |psi> (see :func:`fidelity_factor_stack`)."""
    rho = as_density_matrix(rho)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != rho.shape[0]:
        raise ValueError("state vector dimension does not match the matrix")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state vector norm is {norm}, expected 1")
    return float(fidelity_factor_stack(rho, psi[:, None]))


def spin_flip(rho) -> np.ndarray:
    """Two-qubit spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    rho = as_density_matrix(rho)
    if rho.shape[0] != 4:
        raise ValueError(f"spin flip needs a two-qubit (4x4) state, got {rho.shape}")
    return _SPIN_FLIP_OP @ rho.conj() @ _SPIN_FLIP_OP


@dataclass(frozen=True)
class ConcurrenceValue:
    """Concurrence together with the descending spectrum it came from."""

    value: float
    mu: tuple[float, float, float, float]


def concurrence(rho) -> ConcurrenceValue:
    """Wootters concurrence of a two-qubit density matrix.

    max(0, mu1 - mu2 - mu3 - mu4) over the descending eigenvalues mu_i of
    sqrt(sqrt(rho) rho_tilde sqrt(rho)), rho_tilde = S rho* S with
    S = sigma_y x sigma_y.  For any factor rho = W W^dagger the mu_i are
    the singular values of tau = W^T S W (the nonzero eigenvalues of
    rho rho_tilde are those of tau^dagger tau), real and nonnegative by
    construction.  W = V sqrt(w) comes from one eigendecomposition of rho;
    no root of rho_tilde is taken.

    References
    ----------
    .. [1] W. K. Wootters, "Entanglement of formation of an arbitrary state
       of two qubits", Phys. Rev. Lett. 80, 2245 (1998).
    """
    rho = as_density_matrix(rho)
    values, mu = concurrence_stack(rho)
    return ConcurrenceValue(value=float(values), mu=tuple(float(m) for m in mu))


def concurrence_stack(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence of each two-qubit density matrix in a (..., 4, 4) stack.

    Returns the values and, along a last axis of four, the descending
    spectra mu (see :func:`concurrence`).  One eigendecomposition of each
    matrix, with its PSD check, gives the factor.
    """
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs a two-qubit (4x4) state, got {rho.shape}")
    return concurrence_factor_stack(psd_factor_stack(rho)[0])


def concurrence_factor_stack(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence of each rho = W W^dagger for a (..., 4, 4) stack of
    factors W: the values and the descending singular values mu of
    tau = W^T S W (see :func:`concurrence`)."""
    return _wootters(w.swapaxes(-1, -2) @ (_SPIN_FLIP_OP @ w))


def _wootters(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence max(0, mu_1 - mu_2 - ... - mu_k), subtracted in that order,
    and the descending singular values mu of each tau in a (..., k, k) stack."""
    mu = np.linalg.svd(tau, compute_uv=False)
    gap = np.subtract.reduce(mu, axis=-1)
    return np.where(gap > 0.0, gap, 0.0), mu


# A symmetric 3 x 3 matrix is kept as its upper triangle in row order, the
# entries 00, 01, 02, 11, 12 and 22; this is where each of the nine is.
_SYMMETRIC_3 = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_ROWS, _COLS = np.triu_indices(3)
_DIAGONAL, _OFF_DIAGONAL = [0, 3, 5], [1, 2, 4]
# (tau^dagger tau)_ij = sum_k conj(tau_ki) tau_kj: rows i and j of the symmetric tau
_GRAM = _SYMMETRIC_3[_ROWS], _SYMMETRIC_3[_COLS]
# the cofactor tau_{i+1,j+1} tau_{i+2,j+2} - tau_{i+1,j+2} tau_{i+2,j+1}, indices mod 3
_COFACTOR = tuple(_SYMMETRIC_3[(_ROWS + a) % 3, (_COLS + b) % 3]
                  for a, b in ((1, 1), (2, 2), (1, 2), (2, 1)))
# The closed form hands LAPACK the points where lambda_1 - lambda_2 <= this
# times lambda_1.  The cubic's top two roots meet there: a rounding d of
# arccos's argument moves lambda_1 by about (2/27) d lambda_1 over the
# relative gap, and d is a few eps.  At 0.05 that is a few eps of lambda_1,
# about the error of LAPACK's singular values; at relative gaps of 0.01 to
# 0.03 the two differed by up to 4e-15 mu_1.  Every two-spin state with R >=
# 1e-3 and alpha <= 12 has a gap above 0.06; it closes as R -> 0 at strong
# coupling, where the top pair merges.
_CUBIC_GAP_RTOL = 0.05


def _wootters_3x3(t00, t01, t02, t11, t12, t22) -> np.ndarray:
    """Concurrence max(0, mu_1 - mu_2 - mu_3) of each symmetric 3 x 3 tau,
    given by the broadcastable arrays of its entries 00, 01, 02, 11, 12 and
    22, in closed form: the value of ``_wootters`` without a LAPACK call a
    point, except where its top pair of singular values nearly meets.

    Each point is scaled by the power of two at its largest |Re| or |Im|, so
    the sixth powers below neither overflow nor underflow and the scaling is
    exact.  lambda_1 = mu_1^2 is the largest eigenvalue of G = tau^dagger
    tau by the trigonometric cubic: with m = tr G/3, K = G - m I and p =
    tr K^2/6, lambda_1 = m + 2 sqrt(p) cos(phi), phi = arccos(det K/(2
    p^(3/2)))/3, and lambda_1 - lambda_2 = 2 sqrt(3 p) sin(pi/3 - phi).  The
    rest of the spectrum comes from the sums of non-negative terms c2 =
    ||adj tau||_F^2 = lambda_1 (lambda_2 + lambda_3) + lambda_2 lambda_3 and
    |det tau| = mu_1 mu_2 mu_3, so that mu_2 + mu_3 = sqrt((c2 - |det
    tau|^2/lambda_1)/lambda_1 + 2 |det tau|/mu_1) carries an error relative
    to mu_1, not to tr G, where tau is near rank one.  Where the gap is at
    most _CUBIC_GAP_RTOL lambda_1, tau = 0 and G = m I among them, the
    unscaled tau goes to ``_wootters``.  No numpy warning.
    """
    tau = np.stack(np.broadcast_arrays(t00, t01, t02, t11, t12, t22), dtype=complex)
    shape = tau.shape[1:]
    tau = tau.reshape(6, -1)
    # real and imaginary parts interleaved along the last axis
    parts = tau.view(float)
    largest = np.abs(parts).max(axis=0)
    _, exponent = np.frexp(np.maximum(largest[0::2], largest[1::2]))
    a = np.ldexp(parts, np.repeat(-exponent, 2)).view(complex)
    with np.errstate(all="ignore"):
        g = (a[_GRAM[0]].conj() * a[_GRAM[1]]).sum(axis=1)
        adj = a[_COFACTOR[0]] * a[_COFACTOR[1]] - a[_COFACTOR[2]] * a[_COFACTOR[3]]
        det = np.abs(a[0] * adj[0] + a[1] * adj[1] + a[2] * adj[2])
        minors = np.square(adj.real) + np.square(adj.imag)
        c2 = minors[_DIAGONAL].sum(axis=0) + 2.0 * minors[_OFF_DIAGONAL].sum(axis=0)
        diagonal, off = g[_DIAGONAL].real, g[_OFF_DIAGONAL]
        m = diagonal.sum(axis=0) / 3.0
        (k0, k1, k2), (g01, g02, g12) = diagonal - m, off
        o01, o02, o12 = np.square(off.real) + np.square(off.imag)
        p = (k0 * k0 + k1 * k1 + k2 * k2 + 2.0 * (o01 + o02 + o12)) / 6.0
        det_k = (k0 * k1 * k2 + 2.0 * (g01 * g12 * g02.conj()).real
                 - k0 * o12 - k1 * o02 - k2 * o01)
        root_p = np.sqrt(p)
        phi = np.arccos(np.clip(det_k / (2.0 * p * root_p), -1.0, 1.0)) / 3.0
        lam1 = m + 2.0 * root_p * np.cos(phi)
        gap = (2.0 * math.sqrt(3.0)) * root_p * np.sin(math.pi / 3.0 - phi)
        mu1 = np.sqrt(lam1)
        rest = np.sqrt(np.maximum((c2 - det * det / lam1) / lam1, 0.0) + 2.0 * det / mu1)
        value = np.ldexp(np.maximum(mu1 - rest, 0.0), exponent)
        near = ~(gap > _CUBIC_GAP_RTOL * lam1)
    if near.any():
        value[near] = _wootters(np.moveaxis(tau[:, near][_SYMMETRIC_3], -1, 0))[0]
    return value.reshape(shape)


def concurrence_pure(rho, split: SubsystemSplit) -> float:
    """Concurrence of a pure two-qubit state via its reduced-state purity.

    sqrt(2 (1 - tr rho_A^2)); only valid when rho is pure.
    """
    rho = as_density_matrix(rho)
    p = float(np.trace(rho @ rho).real)
    if p < 1.0 - 1e-10:
        raise ValueError(f"state is not pure (purity {p})")
    rho_a = partial_trace(rho, split, "A")
    tr2 = float(np.trace(rho_a @ rho_a).real)
    return float(np.sqrt(max(2.0 * (1.0 - tr2), 0.0)))
