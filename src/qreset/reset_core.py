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
within eigh's round-off relative to ||E||_2 = ||H||_F form a cluster that
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
of states and so PSD by construction.  ``_require_phase_digits`` refuses
the times whose phases keep too few digits, the engine's and twospin's.
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

# Relative gap below which eigenvalues are degenerate (see _clustered): eigh's
# are exact for H + dH, ||dH||_2 ~ eps ||H||_2.  On 240 periodic transverse-
# field Ising chains (L = 3..8) exact degeneracies came out at most 5.6 eps
# ||E||_2 apart, and every other gap at least 1.2e8 eps ||E||_2.
DEGENERACY_RTOL = 64 * np.finfo(float).eps

# Times are refused where the rounding of their phases can move the state by
# this much: past sqrt(eps), under half the digits of an O(1) value are sure.
PHASE_BUDGET = 2.0**-26


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
    Hamiltonian's eigendecomposition once, by the real solver where its
    imaginary parts are all exactly zero.  ``rho0_factor`` is F0 with
    rho0 = F0 F0^dagger and only nonzero columns (``density_factor``): for a
    pure rho0 the d x 1 column of rho0 through its largest diagonal entry,
    scaled, with no eigendecomposition; otherwise V sqrt(w) from rho0's own.
    rho0 enters the energy basis through its factor, as G G^dagger with
    G = V^dagger F0, which is O(d^2) for a pure rho0; eigenvalues that the
    factor flattens to zero are left out of the evolved states too.
    _clustered takes the degeneracy tolerance from the eigenvalues.  The
    instance is immutable afterwards and safe to share across workers.
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
        # rho0 expressed in the energy basis, from its factor; every producer
        # below starts here.
        g = v.conj().T @ factor
        self._rho0_energy = g @ g.conj().T
        for arr in (self.hamiltonian, self.rho0, self.rho0_factor, self._rho0_energy,
                    self.eigensystem.eigenvalues, self.eigensystem.eigenvectors):
            arr.flags.writeable = False

    def _to_computational(self, rho_energy: np.ndarray) -> np.ndarray:
        """Energy-basis matrix, or (..., d, d) stack, to the computational basis."""
        v = self.eigensystem.eigenvectors
        return hermitize(v @ rho_energy @ v.conj().T)


def unitary_evolve(sys: QuantumSystem, t: float) -> np.ndarray:
    """Reset-free density matrix exp(-iHt) rho0 exp(iHt): the rate-0 state.
    ValueError where reset_density_stack refuses t."""
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
    ValueError where reset_density_stack refuses t."""
    return reset_density_stack(sys, reset.rate, [t])[0]


def reset_density_stack(sys: QuantumSystem, rate: float, t) -> np.ndarray:
    """(n, d, d) stack of the density matrices at the n times ``t`` under
    resetting at ``rate`` >= 0; rho0 itself at t = 0.

    The kernel K + U exp(-r t) phi phi^dagger of the module docstring, on
    the raw energies.  A transient damped to 0 takes the phase at t = 0,
    since a phase past the float range would make it nan.  ValueError where
    _phase_budget reaches PHASE_BUDGET; each state is PSD to round-off.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError("times must be a 1-d array of finite values >= 0")
    energies = sys.eigensystem.eigenvalues
    k, u = _kernels(energies[:, None] - energies, float(rate))
    _require_phase_digits(_phase_budget(sys, rate, t, u), t, rate)
    with np.errstate(over="ignore"):
        damp = np.exp(-rate * t)
    phase = np.exp(-1j * energies * np.where(damp > 0.0, t, 0.0)[:, None])
    kernel = k + u * (damp[:, None, None] * phase[:, :, None] * phase.conj()[:, None, :])
    rho = sys._to_computational(sys._rho0_energy * kernel)
    rho[t == 0.0] = sys.rho0
    return rho


def _phase_budget(sys: QuantumSystem, rate: float, t, u=None) -> np.ndarray:
    """b = 2 eps sum_ij |rho0_e,ij U_ij| (max|E| t) exp(-r t) at the times t:
    each phase E_i t rounds by at most eps max|E| t, so each entry's
    transient rho0_e,ij U_ij exp(-r t - i (E_i - E_j) t) moves by 2 eps
    max|E| t times its modulus, and an element sums the entries with
    coefficients of modulus at most 1.  ``u`` is U on every E_i - E_j at
    ``rate`` (formed if not given).  0 where exp(-r t) is 0; inf, or nan,
    where max|E| t overflows while exp(-r t) > 0.  No numpy warning."""
    energies = sys.eigensystem.eigenvalues
    if u is None:
        _, u = _kernels(energies[:, None] - energies, float(rate))
    weight = 2.0 * np.finfo(float).eps * np.abs(sys._rho0_energy * u).sum()
    with np.errstate(over="ignore", invalid="ignore"):
        damp = np.exp(-rate * t)
        # max|E| t alone, so its overflow gives inf or nan (0 * inf): folded
        # in before t, the weight or exp(-r t) could underflow to 0
        return weight * (np.abs(energies).max() * np.where(damp > 0.0, t, 0.0)) * damp


def _require_phase_digits(budget, t, R) -> None:
    """ValueError naming the first (t, R) of broadcastable arrays at which a
    phase budget reaches PHASE_BUDGET (or is nan); the one such refusal."""
    budget = np.atleast_1d(budget)
    refused = ~(budget < PHASE_BUDGET)
    if refused.any():
        i = int(np.argmax(refused))
        t_i, R_i = (float(np.broadcast_to(v, budget.shape)[i]) for v in (t, R))
        raise ValueError(f"the phases keep too few digits at t = {t_i} (R = {R_i}): their "
                         f"rounding can move the transient by {budget[i]:.2g} >= "
                         f"{PHASE_BUDGET:.2g} while exp(-R t) > 0")


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
