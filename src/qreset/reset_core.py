"""Renewal dynamics of a closed quantum system under Poissonian resetting.

A system evolves unitarily from an initial density matrix rho0 and is
interrupted at Poisson rate ``r``, each interruption restarting it from
rho0.  Averaging over reset histories gives the renewal form

    rho_r(t) = exp(-r t) rho(t) + r * integral_0^t exp(-r tau) rho(tau) dtau

with rho(t) the reset-free evolution.  As t -> infinity this relaxes to a
mixed stationary state.  Everything here is evaluated spectrally in the
energy eigenbasis -- no time stepping -- so results are exact to round-off:
writing omega = E - E' for a pair of eigenvalues and phi = exp(-i E t),
rho_r(t) is rho0 in the energy basis times the kernel

    K + U exp(-r t) phi phi^dagger,   K = r/(r + i omega),  U = i omega/(r + i omega),

that is rho_ness + exp(-r t) U_t (rho0 - rho_ness) U_t^dagger, and its
t -> infinity limit is rho0 times K.  Where omega is exactly 0, K is
exactly 1 and U exactly 0; at rate 0, K is 0 and U is 1.  |K| and |U| are
at most 1, so the kernel is accurate to round-off at every t.  ``_kernels``
is the one place that forms K and U, from the frequencies it is given: the
engine passes every E_i - E_j, and the two-spin factor in ``twospin`` only
the three gaps it needs.

One degeneracy rule serves the stationary body: energies whose gaps are
within a tolerance relative to ||E||_2 = ||H||_F form a cluster that
shares its lowest energy (``_clustered``), so within a cluster omega is
exactly 0.  The finite-time state takes the raw energies, and so does the
closed-form factor of the two-spin state in ``twospin``, whose gaps the
coupling gives exactly.

The energy basis is computed once, when the system is built: a
Hamiltonian whose imaginary parts are all exactly zero takes the real
symmetric eigensolver, and its eigenvectors are cast to complex once, so
every product downstream keeps one dtype; any other takes the complex one.

``ness_density`` is the one body of the stationary state, and
``reset_density_stack``, a (n, d, d) stack over n times in one vectorised
step, of the finite-time state; ``reset_density`` and ``unitary_evolve``
are its one-matrix and rate-0 views.  The system was validated when it was
built, so it is not validated again; nor are the states, each a mixture
of states and so PSD by construction.  ``reset_density_stack`` refuses
the times at which its phases keep no digits instead of returning them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .cmatrix import (
    HermitianEigensystem,
    as_cmatrix,
    density_factor,
    hermitize,
    require_hermitian,
)

# Relative spread below which two eigenvalues count as degenerate in the
# stationary state (see _clustered).
DEGENERACY_RTOL = 1e-9


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
    eigendecomposition of each once, the Hamiltonian's by the real solver
    where its imaginary parts are all exactly zero.  rho0's gives
    ``rho0_factor``, the nonzero columns of F0 = V sqrt(w) with
    rho0 = F0 F0^dagger (d x 1 for a pure rho0).  _clustered takes the
    degeneracy tolerance from the eigenvalues.  The instance is immutable
    afterwards and safe to share across workers.
    """

    def __init__(self, hamiltonian, rho0):
        h = as_cmatrix(hamiltonian)
        require_hermitian(h, "hamiltonian")
        rho, factor = density_factor(rho0)
        if h.shape != rho.shape:
            raise ValueError(
                f"hamiltonian is {h.shape} but rho0 is {rho.shape}"
            )
        self.hamiltonian = h
        self.rho0 = rho
        self.rho0_factor = factor
        self.dim = h.shape[0]
        if h.imag.any():
            self.eigensystem = HermitianEigensystem(*np.linalg.eigh(h))
        else:
            # the real solver; one complex cast keeps every product below in one dtype
            energies, v = np.linalg.eigh(h.real)
            self.eigensystem = HermitianEigensystem(energies, v.astype(complex))
        # the frequencies E - E' of the kernels must be finite
        energies = self.eigensystem.eigenvalues
        with np.errstate(over="ignore"):
            spread = energies[-1] - energies[0]
        if not np.isfinite(spread):
            raise ValueError(f"hamiltonian energy spread E_max - E_min = {spread} "
                             "is not finite")
        v = self.eigensystem.eigenvectors
        # rho0 expressed in the energy basis; every producer below starts here.
        self._rho0_energy = v.conj().T @ rho @ v
        for arr in (self.hamiltonian, self.rho0, self.rho0_factor, self._rho0_energy,
                    self.eigensystem.eigenvalues, self.eigensystem.eigenvectors):
            arr.flags.writeable = False

    def _to_computational(self, rho_energy: np.ndarray) -> np.ndarray:
        """Energy-basis matrix, or (..., d, d) stack, to the computational basis."""
        v = self.eigensystem.eigenvectors
        return hermitize(v @ rho_energy @ v.conj().T)


def unitary_evolve(sys: QuantumSystem, t: float) -> np.ndarray:
    """Reset-free density matrix exp(-iHt) rho0 exp(iHt): the rate-0 state.
    ValueError once the phases E t keep no digits (see reset_density_stack)."""
    return reset_density_stack(sys, 0.0, [t])[0]


def _clustered(energies: np.ndarray) -> np.ndarray:
    """Ascending energies (..., d) with each cluster -- a run of gaps within
    DEGENERACY_RTOL ||E||_2 of each member's own energies, the norm taken
    of E/max|E| so that it cannot overflow -- set to its lowest energy."""
    d = energies.shape[-1]
    scale = np.abs(energies).max(axis=-1, keepdims=True)
    x = energies / np.where(scale > 0.0, scale, 1.0)
    tol = DEGENERACY_RTOL * scale * np.sqrt((x * x).sum(axis=-1, keepdims=True))
    first = np.diff(energies, axis=-1) > tol
    lowest = np.maximum.accumulate(np.where(first, np.arange(1, d), 0), axis=-1)
    return np.concatenate([energies[..., :1],
                           np.take_along_axis(energies, lowest, axis=-1)], axis=-1)


def _kernels(omega, rates) -> tuple[np.ndarray, np.ndarray]:
    """K = r/(r + i omega) and U = i omega/(r + i omega) over the broadcast
    of the real frequencies omega (E_i - E_j for a pair of levels) and the
    rates r; where omega is exactly 0, K is exactly 1 and U exactly 0."""
    degenerate = omega == 0.0
    omega = 1j * omega
    with np.errstate(over="ignore", invalid="ignore"):
        # r/r can overflow for a subnormal r; degenerate entries are set below
        s = rates + omega
        k = rates / s
        u = np.divide(omega, s, out=s)
    np.copyto(k, 1.0, where=degenerate)
    np.copyto(u, 0.0, where=degenerate)
    return k, u


def reset_density(sys: QuantumSystem, reset: ResetSpec, t: float) -> np.ndarray:
    """Density matrix at time t under resetting, via the renewal form;
    ValueError where its phases keep no digits (see reset_density_stack)."""
    return reset_density_stack(sys, reset.rate, [t])[0]


def reset_density_stack(sys: QuantumSystem, rate: float, t) -> np.ndarray:
    """(n, d, d) stack of the density matrices at the n times ``t`` under
    resetting at ``rate`` >= 0; rho0 itself at t = 0.

    The kernel K + U exp(-r t) phi phi^dagger of the module docstring, on
    the raw energies.  A transient damped to 0 takes the phase at t = 0,
    since a phase past the float range would make it nan.  Where the
    transient is not damped to 0 and the round-off eps max|E| t of the
    phases reaches a radian, they keep no digits, and ValueError names the
    first such time.  Every state returned is PSD to round-off.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError("times must be a 1-d array of finite values >= 0")
    energies = sys.eigensystem.eigenvalues
    # products that overflow to inf compare correctly
    with np.errstate(over="ignore"):
        damp = np.exp(-rate * t)
        live = damp > 0.0
        blind = live & (np.finfo(float).eps * np.abs(energies).max() * t >= 1.0)
    if blind.any():
        raise ValueError(f"the phases E t keep no digits at t = {float(t[np.argmax(blind)])}: "
                         "eps max|E| t >= 1 while exp(-r t) > 0")
    k, u = _kernels(energies[:, None] - energies, float(rate))
    phase = np.exp(-1j * energies * np.where(live, t, 0.0)[:, None])
    kernel = k + u * (damp[:, None, None] * phase[:, :, None] * phase.conj()[:, None, :])
    rho = sys._to_computational(sys._rho0_energy * kernel)
    rho[t == 0.0] = sys.rho0
    return rho


def ness_density(sys: QuantumSystem, reset: ResetSpec) -> np.ndarray:
    """Stationary density matrix of the resetting dynamics: rho0 in the
    energy basis times K on the clustered energies.  Requires a strictly
    positive rate: at rate zero the finite-time matrix keeps oscillating and
    no stationary state exists (the limits t -> infinity and rate -> 0 do
    not commute)."""
    if not reset.rate > 0.0:
        raise ValueError("stationary state requires a strictly positive reset rate")
    energies = _clustered(sys.eigensystem.eigenvalues)
    k, _ = _kernels(energies[:, None] - energies, float(reset.rate))
    return sys._to_computational(sys._rho0_energy * k)


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
