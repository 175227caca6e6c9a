"""Correlation and distance measures on density matrices.

von Neumann entropy, Uhlmann fidelity (general and pure-reference),
purity, and the two-qubit concurrence in Wootters' closed form.

Purity, pure-state fidelity and concurrence each have one body that works
on a (..., d, d) stack of density matrices (``purity_stack``,
``fidelity_pure_stack``, ``concurrence_stack``).  Those bodies trust their
input, as stacks built from a validated system may be; the one-matrix
functions validate their argument and call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmatrix import as_density_matrix, density_spectrum, psd_sqrt_stack
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
    """tr(rho^2) of each matrix in a (..., d, d) stack."""
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Symmetric in its arguments; equals one iff the states coincide.
    Evaluated as the squared nuclear norm of sqrt(rho) sqrt(sigma), which
    is the same quantity (A A^dag = sqrt(rho) sigma sqrt(rho) for
    A = sqrt(rho) sqrt(sigma)) without the square-root-of-round-off noise
    the nested-sqrt form picks up near zero eigenvalues.
    """
    rho = as_density_matrix(rho)
    sigma = as_density_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    crossed = psd_sqrt_stack(rho) @ psd_sqrt_stack(sigma)
    f = float(np.linalg.svd(crossed, compute_uv=False).sum()) ** 2
    return min(max(f, 0.0), 1.0)


def fidelity_pure(rho, psi) -> float:
    """Fidelity against a pure reference state: <psi| rho |psi>."""
    rho = as_density_matrix(rho)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != rho.shape[0]:
        raise ValueError("state vector dimension does not match the matrix")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state vector norm is {norm}, expected 1")
    return float(fidelity_pure_stack(rho, psi))


def fidelity_pure_stack(rho: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<psi| rho |psi> for each matrix in a (..., d, d) stack and a unit
    vector psi; an expectation with an imaginary part raises."""
    val = psi.conj() @ rho @ psi
    worst = float(np.max(np.abs(val.imag), initial=0.0))
    if worst > 1e-12:
        raise ValueError(f"expectation has imaginary part {worst:.3e}")
    return np.clip(val.real, 0.0, 1.0)


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
    sqrt(sqrt(rho) rho_tilde sqrt(rho)).  The mu_i are evaluated as the
    singular values of sqrt(rho) sqrt(rho_tilde) -- the identical spectrum,
    real and nonnegative by construction, and free of the sqrt-of-round-off
    noise that taking a second PSD root of a near-singular product causes.

    References
    ----------
    .. [1] https://en.wikipedia.org/wiki/Concurrence_(quantum_computing)
    """
    rho = as_density_matrix(rho)
    values, mu = concurrence_stack(rho)
    return ConcurrenceValue(value=float(values), mu=tuple(float(m) for m in mu))


def concurrence_stack(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence of each two-qubit density matrix in a (..., 4, 4) stack.

    Returns the values and, along a last axis of four, the descending
    spectra mu (see :func:`concurrence`).
    """
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs a two-qubit (4x4) state, got {rho.shape}")
    flipped = _SPIN_FLIP_OP @ rho.conj() @ _SPIN_FLIP_OP
    crossed = psd_sqrt_stack(rho) @ psd_sqrt_stack(flipped)
    mu = np.linalg.svd(crossed, compute_uv=False)
    gap = mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3]
    return np.where(gap > 0.0, gap, 0.0), mu


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
