"""Closed-form results for two ferromagnetically coupled spins in a
transverse field, prepared in (and resetting to) the all-down state.

The model lives on the basis |uu>, |ud>, |du>, |dd> with Hamiltonian

    H = -J sz(x)sz + (Omega/2)(sx(x)1 + 1(x)sx)

Everything physical depends only on the dimensionless rate R = r/Omega and
coupling alpha = J/Omega; gamma = sqrt(alpha^2 + 1) is the frequency of the
symmetric-sector precession.  All time arguments below are in field-rescaled
units (Omega * physical time).

This module is the analytic oracle for the generic spectral engine in
``reset_core``: the reduced single-spin matrix has the form

    [[up, coherence], [conj(coherence), 1 - up]]

and both its transient and stationary elements are given in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observables import concurrence
from .reset_core import QuantumSystem, ResetSpec, ness_density

LN2 = math.log(2.0)
LN8 = math.log(8.0)

# scaling_function takes its two-term large-z form above this z: the
# neglected terms are smaller by a factor ~1/z^2 = 1e-300.
SCALING_ASYMPTOTE_Z = 1e150

# Computational-basis order: |uu>, |ud>, |du>, |dd>.
DOWN_DOWN = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)


@dataclass(frozen=True)
class TwoSpinParams:
    """Physical parameters: field omega > 0, coupling j >= 0, reset rate r >= 0."""

    omega: float
    j: float
    r: float

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")
        if not (np.isfinite(self.j) and self.j >= 0):
            raise ValueError(f"j must be finite and >= 0, got {self.j}")
        if not (np.isfinite(self.r) and self.r >= 0):
            raise ValueError(f"r must be finite and >= 0, got {self.r}")

    @classmethod
    def from_dimensionless(cls, R: float, alpha: float) -> "TwoSpinParams":
        """Unit-field parameters with the given dimensionless rate and coupling."""
        return cls(omega=1.0, j=float(alpha), r=float(R))

    @property
    def R(self) -> float:
        """Dimensionless reset rate r/omega."""
        return self.r / self.omega

    @property
    def alpha(self) -> float:
        """Dimensionless coupling j/omega."""
        return self.j / self.omega

    @property
    def gamma(self) -> float:
        """sqrt(alpha^2 + 1), the symmetric-sector precession frequency."""
        return math.hypot(self.alpha, 1.0)


@dataclass(frozen=True)
class ReducedState:
    """Single-spin reduced density matrix [[up, c], [c*, 1-up]]."""

    up: float
    coherence: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.up, self.coherence],
                [np.conj(self.coherence), 1.0 - self.up],
            ],
            dtype=complex,
        )

    @property
    def determinant(self) -> float:
        return self.up * (1.0 - self.up) - abs(self.coherence) ** 2


def hamiltonian(p: TwoSpinParams) -> np.ndarray:
    """4x4 Hamiltonian matrix in the |uu>, |ud>, |du>, |dd> basis."""
    j, o2 = p.j, p.omega / 2.0
    return np.array(
        [
            [-j, o2, o2, 0.0],
            [o2, j, 0.0, o2],
            [o2, 0.0, j, o2],
            [0.0, o2, o2, -j],
        ],
        dtype=complex,
    )


def quantum_system(p: TwoSpinParams) -> QuantumSystem:
    """Spectral engine instance: this Hamiltonian with rho0 = |dd><dd|."""
    return QuantumSystem(hamiltonian(p), np.outer(DOWN_DOWN, DOWN_DOWN.conj()))


def reduced_state(t: float, p: TwoSpinParams) -> ReducedState:
    """Spin-1 reduction of the reset-free evolution at rescaled time t."""
    a, g = p.alpha, p.gamma
    up = 0.5 * (
        1.0
        - math.cos(a * t) * math.cos(g * t)
        - (a / g) * math.sin(a * t) * math.sin(g * t)
    )
    coh = (
        -math.sin(g * t)
        * (a * math.sin(g * t) + 1j * g * math.cos(a * t))
        / (2.0 * g * g)
    )
    return ReducedState(up=up, coherence=complex(coh))


def reduced_state_ness(p: TwoSpinParams) -> ReducedState:
    """Stationary spin-1 reduction; requires a positive reset rate.

    For the rate -> 0+ limit use :func:`reduced_state_zero_reset` -- the
    stationary matrix is discontinuous there.
    """
    if p.r <= 0:
        raise ValueError(
            "stationary reduction needs r > 0; use reduced_state_zero_reset "
            "for the vanishing-rate limit"
        )
    return _reduced_ness(p.R, p.alpha)


def _reduced_ness(R: float, a: float) -> ReducedState:
    denom = 2.0 + 2.0 * R * R * (2.0 + R * R + 4.0 * a * a)
    up = (1.0 + R * R) / denom
    coh = -a / (R * R + 4.0 + 4.0 * a * a) - 1j * (R + R**3) / denom
    return ReducedState(up=up, coherence=coh)


def reduced_state_reset(t: float, p: TwoSpinParams) -> ReducedState:
    """Spin-1 reduction under resetting at rescaled time t.

    Stationary part plus an exp(-R t)-damped transient, both in closed form.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    R, a, g = p.R, p.alpha, p.gamma
    stat = _reduced_ness(R, a)

    ca, sa = math.cos(a * t), math.sin(a * t)
    cg, sg = math.cos(g * t), math.sin(g * t)

    up_osc_denom = 8.0 * g**3 * R * R + 2.0 * g * (R * R - 1.0) ** 2
    up_osc = (
        -ca * (g * (R * R + 1.0) * cg + R * (2.0 * g * g + R * R - 1.0) * sg)
        + a * sa * ((R * R - 1.0) * sg + 2.0 * g * R * cg)
    ) / up_osc_denom

    two_g = 4.0 * g * g + R * R
    plus, minus = a + g, a - g
    dplus = plus * plus + R * R
    dminus = minus * minus + R * R
    coh_osc = (
        2.0 * a * R * math.sin(2.0 * g * t) / two_g
        + 4.0 * a * g * math.cos(2.0 * g * t) / two_g
        + 1j * minus * minus * math.sin(minus * t) / dminus
        - 1j * plus * plus * math.sin(plus * t) / dplus
        - 1j * R * minus * math.cos(minus * t) / dminus
        + 1j * R * plus * math.cos(plus * t) / dplus
    ) / (4.0 * g)

    damp = math.exp(-R * t)
    return ReducedState(
        up=stat.up + damp * up_osc,
        coherence=stat.coherence + damp * coh_osc,
    )


def reduced_state_zero_reset(alpha: float) -> ReducedState:
    """Rate -> 0+ limit of the stationary spin-1 reduction."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return ReducedState(
        up=0.5, coherence=complex(-alpha / (4.0 * (alpha * alpha + 1.0)))
    )


def _entropy_from_y(y: float) -> float:
    """Binary-spectrum entropy ln2 - sum over (1 +- y)/2 terms, y in [0, 1]."""
    y = min(max(float(y), 0.0), 1.0)
    s = LN2 - 0.5 * (1.0 + y) * math.log1p(y)
    if y < 1.0:
        s -= 0.5 * (1.0 - y) * math.log1p(-y)
    return max(s, 0.0)


def _entropy_of(state: ReducedState) -> float:
    return _entropy_from_y(math.sqrt(max(1.0 - 4.0 * state.determinant, 0.0)))


def entropy_at_time(t: float, p: TwoSpinParams) -> float:
    """Spin-1 von Neumann entropy under resetting at rescaled time t."""
    return _entropy_of(reduced_state_reset(t, p))


def entropy_ness(p: TwoSpinParams) -> float:
    """Stationary spin-1 entropy; requires r > 0 (see entropy_zero_reset)."""
    if p.r <= 0:
        raise ValueError(
            "stationary entropy needs r > 0; use entropy_zero_reset for the limit"
        )
    R2 = p.R * p.R
    a2 = p.alpha * p.alpha
    y_sq = (
        1.0
        + 4.0 * a2 / (4.0 * a2 + R2 + 4.0) ** 2
        - (R2 + 1.0)
        * ((8.0 * a2 + 2.0) * R2 + R2 * R2 + 1.0)
        / ((4.0 * a2 + 2.0) * R2 + R2 * R2 + 1.0) ** 2
    )
    return _entropy_from_y(math.sqrt(min(max(y_sq, 0.0), 1.0)))


def entropy_zero_reset(alpha: float) -> float:
    """Stationary spin-1 entropy in the rate -> 0+ limit.

    Maximal (ln 2) at both alpha -> 0 and alpha -> infinity, with a dip in
    between; approaches ln2 - alpha^2/8 and ln2 - 1/(8 alpha^2) in the two
    limits.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return _entropy_from_y(alpha / (2.0 * (1.0 + alpha * alpha)))


def scaling_function(z: float) -> float:
    """Entropy crossover profile at small rate and large coupling.

    In the joint limit R -> 0, alpha -> infinity with z = alpha * R fixed,
    the stationary entropy collapses onto this single-variable function:
    ln2 - 8 z^4 as z -> 0, and as z -> infinity

        F(z) = (ln z)/(4 z^2) * [1 + (1 + ln 8)/(2 ln z)] + O(ln z / z^4).

    With h = 1/(2 (1 + 4 z^2)) it is evaluated as

        F = h ln2 - (1 - h) log1p(-h) + h log1p(4 z^2),

    a sum of non-negative terms, so there is no cancellation for any z >= 0.
    Beyond z = 1e150, where 4 z^2 nears overflow and h underflow, the two-term
    form is exact to round-off and is evaluated without forming z^2.  It
    turns subnormal near z = 1e155 and rounds to 0 near z = 1e163; F(inf) = 0.
    """
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    if z > SCALING_ASYMPTOTE_Z:
        if math.isinf(z):
            return 0.0
        return (2.0 * math.log(z) + 1.0 + LN8) / (8.0 * z) / z
    z2 = 4.0 * z * z
    h = 0.5 / (1.0 + z2)
    return h * LN2 - (1.0 - h) * math.log1p(-h) + h * math.log1p(z2)


def fidelity_ness(p: TwoSpinParams) -> float:
    """Stationary fidelity to the initial all-down state.

    Continuous down to R = 0, where it gives the rate -> 0+ limiting value
    (3 + 4 alpha^2) / (8 (1 + alpha^2)).
    """
    R2 = p.R * p.R
    a2 = p.alpha * p.alpha
    return (
        1.0
        - 0.5 * (R2 + 1.0) / (1.0 + R2 * R2 + R2 * (4.0 * a2 + 2.0))
        - 0.5 / (4.0 * a2 + R2 + 4.0)
    )


def concurrence_ness(p: TwoSpinParams) -> float:
    """Stationary two-spin concurrence.

    No closed form: builds the full 4x4 stationary density matrix with the
    spectral engine and runs the general Wootters routine on it.
    """
    if p.r <= 0:
        raise ValueError("stationary concurrence needs r > 0")
    rho = ness_density(quantum_system(p), ResetSpec(p.r))
    return concurrence(rho).value
