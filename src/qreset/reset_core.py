"""Renewal dynamics of a closed quantum system under Poissonian resetting.

A system evolves unitarily from an initial density matrix rho0 and is
interrupted at Poisson rate ``r``, each interruption restarting it from
rho0.  Averaging over reset histories gives the renewal form

    rho_r(t) = exp(-r t) rho(t) + r * integral_0^t exp(-r tau) rho(tau) dtau

with rho(t) the reset-free evolution.  As t -> infinity this relaxes to a
mixed stationary state.  Everything here is evaluated spectrally in the
energy eigenbasis -- no time stepping -- so results are exact to round-off:
writing omega = E - E' for a pair of eigenvalues, the energy-basis element
of rho_r(t) is

    rho0_{EE'} * [exp(-(r+i omega) t) + r (1 - exp(-(r+i omega) t))/(r+i omega)]

and its t -> infinity limit is rho0_{EE'} * r/(r + i omega) off the
diagonal with diagonal elements frozen at rho0_{EE}.

``ness_density_stack`` and ``reset_density_stack`` are the one body of each
state: they return a (n, d, d) stack over n rates or n times of one system,
in one vectorised step.  ``ness_density`` and ``reset_density`` are the
one-matrix views of them.  The system was validated when it was built, so
the stacks are not validated again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .cmatrix import (
    HermitianEigensystem,
    as_cmatrix,
    as_density_matrix,
    hermitize,
    max_entry,
    require_hermitian,
)

# Relative spread below which two eigenvalues count as degenerate when
# applying the piecewise stationary-state formula.
DEGENERACY_RTOL = 1e-9

# |r + i*omega| * t below this uses the small-argument series for the
# renewal kernel (removable singularity; avoids catastrophic cancellation).
KERNEL_SERIES_CUTOFF = 1e-8

# exp(-x) is exactly 0.0 in double precision for every x above this.
DECAY_UNDERFLOW = 746.0


@dataclass(frozen=True)
class ResetSpec:
    """Poissonian resetting at a fixed nonnegative rate (inverse time)."""

    rate: float

    def __post_init__(self):
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ValueError(f"reset rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class SubsystemSplit:
    """Bipartition of a tensor-product space, subsystem A's index slowest."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")


class QuantumSystem:
    """A Hamiltonian, its cached eigensystem, and an initial density matrix.

    Construction validates the inputs (Hermitian Hamiltonian with a finite
    energy spread; Hermitian, PSD, trace-one rho0) and performs the
    eigendecomposition once.  The instance is immutable afterwards and safe
    to share across workers.
    """

    def __init__(self, hamiltonian, rho0):
        h = as_cmatrix(hamiltonian)
        require_hermitian(h, "hamiltonian")
        rho = as_density_matrix(rho0)
        if h.shape != rho.shape:
            raise ValueError(
                f"hamiltonian is {h.shape} but rho0 is {rho.shape}"
            )
        self.hamiltonian = h
        self.rho0 = rho
        self.dim = h.shape[0]
        self.eigensystem = HermitianEigensystem(*np.linalg.eigh(h))
        # the frequencies E - E' of _omega must be finite
        energies = self.eigensystem.eigenvalues
        with np.errstate(over="ignore"):
            spread = energies[-1] - energies[0]
        if not np.isfinite(spread):
            raise ValueError(f"hamiltonian energy spread E_max - E_min = {spread} "
                             "is not finite")
        v = self.eigensystem.eigenvectors
        # rho0 expressed in the energy basis; every producer below starts here.
        self._rho0_energy = v.conj().T @ rho @ v
        # the Frobenius norm of h, taken of h scaled so that it cannot overflow
        scale = max(max_entry(h), 1e-300)
        self.degeneracy_tol = DEGENERACY_RTOL * scale * float(np.linalg.norm(h / scale))
        for arr in (self.hamiltonian, self.rho0, self._rho0_energy,
                    self.eigensystem.eigenvalues, self.eigensystem.eigenvectors):
            arr.flags.writeable = False

    def _to_computational(self, rho_energy: np.ndarray) -> np.ndarray:
        """Energy-basis matrix, or (..., d, d) stack, to the computational basis."""
        v = self.eigensystem.eigenvectors
        return hermitize(v @ rho_energy @ v.conj().T)

    def _omega(self) -> np.ndarray:
        """Pairwise energy differences E - E'."""
        energies = self.eigensystem.eigenvalues
        return energies[:, None] - energies[None, :]


def _check_time(t: float) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    return t


def unitary_evolve(sys: QuantumSystem, t: float) -> np.ndarray:
    """Reset-free density matrix exp(-iHt) rho0 exp(iHt)."""
    t = _check_time(t)
    if t == 0.0:
        return sys.rho0.copy()
    energies = sys.eigensystem.eigenvalues
    phase = np.exp(-1j * energies * t)
    rho_e = sys._rho0_energy * np.outer(phase, phase.conj())
    return sys._to_computational(rho_e)


def _renewal_kernel(rate: float, omega: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Kernel over a (n, 1, 1) column of times and the (d, d) frequencies."""
    s = np.broadcast_to(rate + 1j * omega, t.shape[:-2] + omega.shape)
    t = np.broadcast_to(t, s.shape)
    kernel = np.empty(s.shape, dtype=complex)
    # products that overflow to inf compare correctly; an overflowed phase
    # omega t makes exp nan, which is either zeroed below or left for the
    # caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        small = np.abs(s) * t < KERNEL_SERIES_CUTOFF
        ts = t[small]
        kernel[small] = 1.0 - s[small] * ts + rate * ts
        big = ~small
        sb, tb = s[big], t[big]
        decay = np.exp(-sb * tb)
        # exp(-(r + i omega) t) is exactly 0 once r t passes the underflow
        # bound, whatever the phase
        decay[rate * tb > DECAY_UNDERFLOW] = 0.0
    kernel[big] = decay + rate * (1.0 - decay) / sb
    return kernel


def reset_density(sys: QuantumSystem, reset: ResetSpec, t: float) -> np.ndarray:
    """Density matrix at time t under resetting, via the renewal form."""
    return reset_density_stack(sys, reset.rate, np.array([_check_time(t)]))[0]


def reset_density_stack(sys: QuantumSystem, rate: float, t) -> np.ndarray:
    """(n, d, d) stack of the density matrices at the n times ``t`` under
    resetting at ``rate``; rho0 itself at t = 0."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError("times must be a 1-d array of finite values >= 0")
    kernel = _renewal_kernel(rate, sys._omega(), t[:, None, None])
    rho = sys._to_computational(sys._rho0_energy * kernel)
    rho[t == 0.0] = sys.rho0
    return rho


def ness_density(sys: QuantumSystem, reset: ResetSpec) -> np.ndarray:
    """Stationary density matrix of the resetting dynamics.

    Requires a strictly positive rate: at rate zero the finite-time matrix
    keeps oscillating and no stationary state exists (the limits
    t -> infinity and rate -> 0 do not commute).  Eigenvalue pairs within
    the system's degeneracy tolerance take the diagonal branch.
    """
    return ness_density_stack(sys, np.array([reset.rate]))[0]


def ness_density_stack(sys: QuantumSystem, rates) -> np.ndarray:
    """(n, d, d) stack of the stationary density matrices at the n ``rates``,
    each finite and strictly positive (see :func:`ness_density`)."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or not np.all(np.isfinite(rates) & (rates > 0.0)):
        raise ValueError("stationary state requires a strictly positive reset rate")
    omega = sys._omega()
    off = np.abs(omega) > sys.degeneracy_tol
    column = rates[:, None]
    factor = np.ones((rates.size,) + omega.shape, dtype=complex)
    factor[:, off] = column / (column + 1j * omega[off])
    return sys._to_computational(sys._rho0_energy * factor)


def partial_trace(
    rho: np.ndarray, split: SubsystemSplit, keep: Literal["A", "B"] = "A"
) -> np.ndarray:
    """Reduced density matrix of one subsystem of a bipartite state.

    ``rho`` lives on a space of dimension dim_a * dim_b with the A index
    slowest (row index i*dim_b + a for A-state i, B-state a).  Tracing out
    the complement contracts the discarded index pair.
    """
    rho = as_cmatrix(rho)
    da, db = split.dim_a, split.dim_b
    if rho.shape[0] != da * db:
        raise ValueError(
            f"matrix dimension {rho.shape[0]} != dim_a*dim_b = {da * db}"
        )
    blocks = rho.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("iaja->ij", blocks)
    if keep == "B":
        return np.einsum("iaib->ab", blocks)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
