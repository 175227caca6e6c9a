"""Dense complex linear algebra for small Hermitian problems.

All routines operate on square complex numpy arrays of modest dimension:
validation, Hermitian eigendecomposition and the positive-semidefinite
matrix square root.  Inputs are validated against the module tolerances;
violations raise ValueError instead of propagating garbage downstream.
This module is the one place that says what a valid density matrix is
(``density_spectrum``) for what enters from outside; the states that
``reset_core`` builds are PSD by construction and are not checked again.

``psd_factor_stack`` is the one body of a PSD matrix's factor V sqrt(w):
it works on a stack of matrices with shape (..., d, d) and trusts its
input, as stacks built from a validated system may be.  ``psd_sqrt``
validates one matrix and takes its square root from that factor.
``density_factor`` validates a density matrix and keeps the nonzero
columns of its factor: a rank-one matrix gives its d x 1 factor from one
column in O(d^2), any other takes one eigendecomposition.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Matrices produced by the closed-form pipelines are Hermitian to round-off;
# anything worse than this (relative, Frobenius) indicates an upstream bug.
HERMITICITY_RTOL = 1e-10

# Absolute window in which eigenvalues of nominally-PSD matrices may dip
# below zero before we call the input genuinely non-PSD.
PSD_CLIP_TOL = 1e-10

# Eigenvalues below this fraction of the largest one are round-off images
# of exact zeros (eigh resolves the null space only to ~10 ulp); flatten_null
# sets them to zero so factors and square roots of rank-deficient matrices
# stay exactly rank-deficient instead of acquiring sqrt(eps)-sized ghost
# directions.
PSD_NULL_RTOL = 1e-14

# Allowed deviation of a density matrix trace from one.
TRACE_ATOL = 1e-10


class HermitianEigensystem(NamedTuple):
    """Eigenvalues in ascending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_cmatrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square, finite complex matrix (copy)."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dagger) / 2 of a matrix or of each matrix in a
    (..., d, d) stack; removes round-off asymmetry."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def max_entry(a: np.ndarray) -> float:
    """Largest magnitude of a real or imaginary part of an entry of ``a``
    (nan if any part is nan).  Norms of ``a`` divided by it are at most
    about the matrix size, so they cannot overflow."""
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    return float(np.abs(parts).max(initial=0.0))


def require_hermitian(a: np.ndarray, what: str = "matrix") -> None:
    """Raise unless ``a`` is Hermitian to ``HERMITICITY_RTOL`` (relative,
    Frobenius), judged on ``a`` scaled by its largest entry."""
    scale = max_entry(a)
    if not math.isfinite(scale):
        raise ValueError(f"{what} entries must be finite")
    b = a / max(scale, 1e-300)
    dev = float(np.linalg.norm(b - b.conj().T))
    if not dev <= HERMITICITY_RTOL * float(np.linalg.norm(b)):
        raise ValueError(f"{what} is not Hermitian (deviation {dev * scale:.3e})")


def hermitian_eig(a: np.ndarray) -> HermitianEigensystem:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending eigenvalues and a unitary whose columns are the
    corresponding orthonormal eigenvectors.  Deterministic for identical
    input; within a degenerate cluster the basis choice is arbitrary and
    callers must not rely on it.
    """
    a = as_cmatrix(a)
    require_hermitian(a)
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return HermitianEigensystem(eigenvalues, eigenvectors)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian positive-semidefinite matrix.

    Eigenvalues within ``PSD_CLIP_TOL`` below zero are clamped to zero
    before taking the root; anything lower raises, since it signals a
    genuinely non-PSD input upstream.
    """
    a = as_cmatrix(a)
    require_hermitian(a, "psd_sqrt input")
    factor, v = psd_factor_stack(a)
    return hermitize(factor @ v.conj().T)


def psd_factor_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor W = V sqrt(w), with W W^dagger = a, of each Hermitian PSD
    matrix in a (..., d, d) stack, and the eigenvectors V.  The input is
    trusted to be finite and Hermitian.  The PSD check comes with the
    eigendecomposition and is kept for every member: one smallest
    eigenvalue below ``-PSD_CLIP_TOL`` anywhere in the stack raises.
    Eigenvalues below PSD_NULL_RTOL of the largest flatten to exact zeros."""
    w, v = np.linalg.eigh(a)
    _require_psd_spectrum(w, "psd_sqrt input")
    return v * np.sqrt(flatten_null(w))[..., None, :], v


def flatten_null(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., d) of PSD matrices, with those below
    PSD_NULL_RTOL of the largest (negative round-off included) set to exact
    zeros in place; returns ``w``."""
    w[w < PSD_NULL_RTOL * np.maximum(w[..., -1:], 0.0)] = 0.0
    return w


def as_density_matrix(rho) -> np.ndarray:
    """Validate ``rho`` as a density matrix: Hermitian, PSD, unit trace."""
    return density_spectrum(rho)[0]


def density_spectrum(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``rho`` as a density matrix (Hermitian, PSD, unit trace).

    Returns the validated copy and its ascending eigenvalues clamped into
    [0, 1]; the PSD check and the spectrum come from one ``eigvalsh``.
    """
    m = _hermitian_unit_trace(rho)
    w = np.linalg.eigvalsh(m)
    _require_psd_spectrum(w, "density matrix")
    return m, np.clip(w, 0.0, 1.0)


def density_factor(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``rho`` as a density matrix (see :func:`density_spectrum`).

    Returns the validated copy and its factor F, F F^dagger = rho, with
    only the nonzero columns kept.  A rank-one rho takes the d x 1 factor
    of :func:`_rank_one_factor`, with no eigendecomposition; any other
    takes F = V sqrt(w) from one ``eigh``, which also makes the PSD check,
    with the eigenvalues flattened as in :func:`psd_factor_stack`.
    """
    m = _hermitian_unit_trace(rho)
    f = _rank_one_factor(m)
    if f is not None:
        return m, f
    w, v = np.linalg.eigh(m)
    _require_psd_spectrum(w, "density matrix")
    keep = flatten_null(w) > 0.0
    return m, v[:, keep] * np.sqrt(w[keep])


def _rank_one_factor(m: np.ndarray) -> np.ndarray | None:
    """f = m[:, p] / sqrt(m_pp), p the largest diagonal entry (positive,
    since the trace is one), as a d x 1 factor of the Hermitian ``m`` if the
    residual R = m - f f^dagger has ||R||_F <= PSD_NULL_RTOL ||f||^2, else
    None.  By Weyl every other eigenvalue of m is then within ||R||_F of
    0: eigh would pass the PSD check and flatten them to zeros."""
    diagonal = m.real.diagonal()
    p = int(np.argmax(diagonal))
    f = m[:, p:p + 1] / math.sqrt(diagonal[p])
    with np.errstate(over="ignore", invalid="ignore"):
        # entries far beyond the diagonal overflow: m is then not rank one
        r = f * f.conj().T
        np.subtract(m, r, out=r)
        residual = math.sqrt(np.vdot(r.view(float), r.view(float)))
        weight = float(np.vdot(f.view(float), f.view(float)))
    if math.isfinite(weight) and residual <= PSD_NULL_RTOL * weight:
        return f
    return None


def _hermitian_unit_trace(rho) -> np.ndarray:
    m = as_cmatrix(rho)
    require_hermitian(m, "density matrix")
    tr = np.trace(m)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace is {tr}, expected 1")
    return m


def _require_psd_spectrum(w: np.ndarray, what: str) -> None:
    # ascending eigenvalues along the last axis, one row per stack member
    lowest = float(w[..., 0].min(initial=0.0))
    if lowest < -PSD_CLIP_TOL:
        raise ValueError(f"{what} not PSD: eigenvalue {lowest:.3e}")
