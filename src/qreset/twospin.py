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

and one bounded array closed form gives its elements at any time, rate
and coupling (``reduced_state_array``): rate 0 is the reset-free
evolution, and the long-time limit is the stationary state, whose bounded
factors (``_ness_factors``) also give the stationary entropy and fidelity,
both from one pass, and, at rate 0, their rate -> 0+ limits.  Every array
body takes broadcastable float arrays and works point by point, and
``ness_columns`` is the one stationary entry: the entropy, fidelity,
purity and concurrence columns asked for, and only those.  The
finite-time, stationary and rate -> 0+ entropies share one body of v = 4
det.  The finite-time fidelity to |dd> is a closed form as well, taken as
1 - F over the three pairs of levels that carry |dd> so that it keeps
relative digits as t -> 0 (``infidelity_reset_array``).  Both finite-time
columns come from one evaluation of the phases alpha t and t/P
(``finite_time_columns``), and ``phase_budget`` gives what the rounding of
those phases can move them by; their callers refuse the times where it
reaches ``PHASE_BUDGET``.
On the three levels that carry |dd>, whose gaps the coupling gives
exactly, the stationary state's factor (``_ness_cholesky``) and
sigma_y x sigma_y are closed forms too: the concurrence of the two spins
takes one symmetric 3 x 3 tau a point (``concurrence_ness_stack``, its one
body, at each point of its broadcast couplings and rates), whose Wootters
spectrum is a closed form as well (``observables._wootters_3x3``; LAPACK
only where its top pair nearly meets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .observables import _wootters_3x3
from .reset_core import QuantumSystem, _kernels

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
        """Unit-field parameters with the given dimensionless rate and
        coupling; ValueError naming R or alpha unless finite and >= 0."""
        for name, value in (("R", float(R)), ("alpha", float(alpha))):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
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


def _ness_factors(R, alpha):
    """Bounded factors of the stationary reduced state at rate R (the
    rate -> 0+ limit at R = 0) and coupling alpha, floats or broadcastable
    arrays:

        p = 1/(1 + R^2),  rp = R p,  k = (alpha R p)^2,  s = 1/(1 + 4k),
        w = 1/(4 alpha^2 + R^2 + 4),  v = p s (2 - s) - 4 (alpha w)^2 = 1 - y^2,

    so up = p s/2, coherence = -alpha w - i R p s/2, and (1 +- y)/2 are the
    eigenvalues.  Each factor is bounded, and a square that overflows only
    sends one to its limit 0.  Only * and / are used: floats never raise;
    arrays need np.errstate.
    """
    q = R * R
    p = 1.0 / (1.0 + q)
    rp = R * p
    ar = alpha * rp
    k = ar * ar
    s = 1.0 / (1.0 + 4.0 * k)
    w = 1.0 / (4.0 * alpha * alpha + q + 4.0)
    aw = alpha * w
    v = p * s * (2.0 - s) - 4.0 * aw * aw
    return p, rp, k, s, w, v


# A finite-time series or entropy peak is refused where the rounding of the
# transient's phases can move it by this much (see phase_budget): past
# sqrt(eps), fewer than half of the digits of a value of order one are sure.
PHASE_BUDGET = 2.0**-26

# Below these arguments the fidelity's bracket takes a power series (see
# _infidelity): 1 - (1 + x) e^-x = sum_k (k - 1) (-x)^k/k! from k = 2 in x =
# R t, and 1 - sin(wt)/(wt) = sum_k (-1)^(k+1) (wt)^(2k)/(2k + 1)! from k =
# 1 in (wt)^2 for a pair's phase wt.  The first term left out is below
# 1e-17 of the sum at each cut-off, and above it the closed forms lose at
# most a few ulps.
_SETTLE_SERIES_X = 0.1
_SETTLE_SERIES = np.array([(k - 1) * (-1) ** k / math.factorial(k) if k > 1 else 0.0
                           for k in range(12)])
_SINC_SERIES_X2 = 0.25
_SINC_SERIES = np.array([(-1) ** (k + 1) / math.factorial(2 * k + 1) if k else 0.0
                         for k in range(8)])


def _level_pairs(R, alpha):
    """For the pairs of levels that carry |dd>, (-gamma, -alpha), (-alpha,
    gamma) and (-gamma, gamma), in that order: their weights W = 2 a_i a_j
    w^2/(R^2 + w^2) in 1 - F, the moduli |c_i c_j U_ij| of their transient
    in the energy basis, and their gaps w = 1/P, P and 2 gamma.

    |dd> has the weights a = c^2 = n^2, 1/2 and (n/P)^2 on those levels,
    with n^2 = P/(4 gamma) (see _ness_cholesky, whose mixing ratio t is
    1/P), and none on the singlet, so 2 a_i a_j is P/(4 gamma), 1/(4 gamma
    P) and 1/(8 gamma^2).  The last W is w/2 of _ness_factors, and the three
    sum to the stationary 1 - F.  U = i w/(R + i w) is the renewal kernel's
    transient factor (see reset_core), |U| = 1/hypot(1, R/w).  The moduli
    are formed without squares, so they do not underflow where W does.
    Call inside np.errstate."""
    g = np.hypot(alpha, 1.0)
    P = alpha + g
    rp, rq, rg = R * P, R / P, R / (2.0 * g)
    weights = (P / (4.0 * g) / (1.0 + rp * rp), 1.0 / (4.0 * g * P) / (1.0 + rq * rq),
               0.5 / (4.0 * alpha * alpha + R * R + 4.0))
    moduli = (np.sqrt(P / (8.0 * g)) / np.hypot(1.0, rp),
              1.0 / (np.sqrt(8.0 * g) * np.sqrt(P)) / np.hypot(1.0, rq),
              0.25 / g / np.hypot(1.0, rg))
    return weights, moduli, (1.0 / P, P, 2.0 * g)


def phase_budget(t, R, alpha):
    """How far the rounding of the phases can move the finite-time closed
    forms at broadcastable float arrays t, R and alpha, trusted as
    reduced_state_array trusts them.

    The closed forms round alpha t and t/P and build each pair's phase
    w t from them (t/P, 2 alpha t + t/P, 2 alpha t + 2 t/P), so its
    rounding is about eps w t.  In the energy basis the pair's transient
    c_i c_j U_ij exp(-R t) exp(-i w t) then moves by that times its
    modulus |c_i c_j U_ij| (see _level_pairs), and an element of the
    reduced state, or <dd|rho|dd>, sums the entries of both orders of each
    pair with coefficients of modulus at most 1:

        b = 2 eps exp(-R t) sum over pairs of |c_i c_j U_ij| w t.

    It is the first-order size of that rounding, not a strict bound: 1 - F
    meets its 50-digit reference within 2 (b + eps (1 - F)).

    0 where exp(-R t) is 0 (the transient takes phase 0), inf where a
    phase overflows while exp(-R t) > 0.  No numpy warning.
    """
    with np.errstate(all="ignore"):
        _, (a1, a2, a3), (q, _, _) = _level_pairs(R, alpha)
        damp = np.exp(-R * t)
        t = np.where(damp > 0.0, t, 0.0)
        # alpha t overflows first, and then the bound is inf
        rounding = 2.0 * (a2 + a3) * (alpha * t) + (a1 + a2 + 2.0 * a3) * (t * q)
        return 2.0 * np.finfo(float).eps * damp * rounding


def _require_phase_digits(t, R, alpha) -> None:
    """ValueError naming the first (t, R) of broadcastable arrays at which
    phase_budget reaches PHASE_BUDGET (or is nan)."""
    budget = np.atleast_1d(phase_budget(t, R, alpha))
    refused = ~(budget < PHASE_BUDGET)
    if refused.any():
        i = int(np.argmax(refused))
        t_i, R_i = (float(np.broadcast_to(v, budget.shape)[i]) for v in (t, R))
        raise ValueError(f"the phases keep too few digits at t = {t_i} (R = {R_i}): their "
                         f"rounding can move the transient by {budget[i]:.2g} >= "
                         f"{PHASE_BUDGET:.2g} while exp(-R t) > 0")


class _Phases(NamedTuple):
    """The pieces that the finite-time closed forms share (see _phases)."""

    g: np.ndarray
    P: np.ndarray
    t0: np.ndarray
    damp: np.ndarray
    t: np.ndarray
    ca: np.ndarray
    sa: np.ndarray
    cb: np.ndarray
    sb: np.ndarray
    cg: np.ndarray
    sg: np.ndarray
    cp: np.ndarray
    sp: np.ndarray


def _phases(t, R, alpha):
    """gamma, P = alpha + gamma, the t = 0 mask, exp(-R t), the live times
    and the cosines and sines of alpha t, t/P, gamma t and P t.  A transient
    damped to 0 takes phase 0, since a phase past the float range would
    make it nan.  Every phase is alpha t plus a multiple of t/P (gamma t =
    alpha t + t/P, P t = 2 alpha t + t/P), so only alpha t carries a large
    rounding.  Call inside np.errstate."""
    g = np.hypot(alpha, 1.0)
    P = alpha + g
    t0, damp = t == 0.0, np.exp(-R * t)
    t = np.where(damp > 0.0, t, 0.0)
    ca, sa = np.cos(alpha * t), np.sin(alpha * t)
    cb, sb = np.cos(t / P), np.sin(t / P)
    cg, sg = ca * cb - sa * sb, sa * cb + ca * sb
    c2a, s2a = ca * ca - sa * sa, 2.0 * sa * ca
    cp, sp = c2a * cb - s2a * sb, s2a * cb + c2a * sb
    return _Phases(g, P, t0, damp, t, ca, sa, cb, sb, cg, sg, cp, sp)


def reduced_state_array(t, R, alpha):
    """Spin-1 reduction [[up, coherence], [conj(coherence), 1 - up]] under
    resetting at rescaled time t, rate R and coupling alpha: broadcastable
    float arrays, trusted to hold t >= 0, R >= 0 and alpha >= 0.  R = 0 is
    the reset-free evolution.

    The stationary part (see _ness_factors) plus an exp(-R t)-damped
    transient, written in the bounded factors with g = gamma and P = alpha
    + gamma: the up term's denominator 2 g ((1 + R^2)^2 + 4 alpha^2 R^2) is
    2 g/(p^2 s), 4 g^2 + R^2 = 1/w, and alpha - g = -1/P.  Only * and / are
    used, so no square overflows.  The t = 0 rows are rho0 exactly, and
    where exp(-R t) underflows the state is the stationary one.  nan where a
    phase such as gamma t overflows while exp(-R t) > 0; the phases keep no
    digits long before (see phase_budget).  No numpy warning.
    """
    with np.errstate(all="ignore"):
        return _reduced_state(R, alpha, _phases(t, R, alpha))


def _reduced_state(R, alpha, ph):
    """(up, coherence) of reduced_state_array from the shared phases."""
    p, rp, _, s, w, _ = _ness_factors(R, alpha)
    g, P, damp = ph.g, ph.P, ph.damp
    ca, sa, cb, sb, cg, sg, cp, sp = ph.ca, ph.sa, ph.cb, ph.sb, ph.cg, ph.sg, ph.cp, ph.sp
    ag, ar = alpha / g, alpha * rp
    up_osc = s * (ca * (-0.5 * p * cg - (0.5 * rp / g + ag * ar * p) * sg)
                  + sa * (0.5 * ag * (1.0 - 2.0 * p) * p * sg + ar * p * cg))
    coh_re = ag * R * w * sg * cg + alpha * w * (cg * cg - sg * sg)
    x, y = R * P, R / P
    coh_im = (_ratio(x) * cb - sb / (1.0 + x * x)
              + _ratio(y) * cp - sp / (1.0 + y * y)) / (4.0 * g)
    up = 0.5 * p * s + damp * up_osc
    coh = (damp * coh_re - alpha * w) + 1j * (damp * coh_im - 0.5 * rp * s)
    return np.where(ph.t0, 0.0, up), np.where(ph.t0, 0.0, coh)


def _infidelity(t, R, alpha, ph):
    """1 - <dd|rho|dd> of infidelity_reset_array from the shared phases."""
    weights, _, gaps = _level_pairs(R, alpha)
    x, x_live, damp = R * t, R * ph.t, ph.damp
    # 1 - (1 + x) e^-x; where exp(-R t) is 0 it is 1 and the row stationary
    settle = _series_below(-np.expm1(-x) - x_live * damp, x, _SETTLE_SERIES_X, _SETTLE_SERIES)
    # cos wt, sin wt and wt over a leading axis of the three pairs
    c, s, wt = np.empty((3, 3) + np.broadcast(damp, ph.cg).shape)
    c[0], c[1], c[2] = ph.cb, ph.cp, ph.cg * ph.cg - ph.sg * ph.sg
    s[0], s[1], s[2] = ph.sb, ph.sp, 2.0 * ph.sg * ph.cg
    for k, gap in enumerate(gaps):
        wt[k] = ph.t * gap
    # 1 - cos wt = sin^2 wt/(1 + cos wt), which keeps its digits where cos wt > 0
    versine = np.where(c > 0.0, s * s / (1.0 + c), 1.0 - c)
    sinc_gap = _series_below(1.0 - s / wt, wt * wt, _SINC_SERIES_X2, _SINC_SERIES)
    bracket = settle + damp * (versine + x_live * sinc_gap)
    w1, w2, w3 = weights
    return w1 * bracket[0] + w2 * bracket[1] + w3 * bracket[2]


def _series_below(values, x, cut, coefficients):
    """values, an array of x's shape, with the polynomial of coefficients
    (lowest power first) taken where x < cut."""
    values, x = np.asarray(values), np.asarray(x)
    near = x < cut
    values[near] = np.vander(x[near], coefficients.size, increasing=True) @ coefficients
    return values


def _ratio(x):
    """x/(1 + x^2) for x >= 0, through 1/x above 1 so that x^2 never overflows."""
    x = np.where(x > 1.0, 1.0 / x, x)
    return x / (1.0 + x * x)


def _spin_entropy(v):
    """Von Neumann entropy of a spin-1/2 state from v = 4 det = 1 - y^2,
    the eigenvalues being (1 +- y)/2; v is clipped to [0, 1].  Call inside
    np.errstate."""
    v = np.minimum(np.maximum(v, 0.0), 1.0)
    # the smaller eigenvalue (1 - y)/2, formed from v so that it keeps its
    # digits as y rounds to 1
    lam = 0.5 * v / (1.0 + np.sqrt(1.0 - v))
    # two non-negative terms, so no cancellation; lam log lam is 0 at 0
    log_lam = np.log(lam, out=np.zeros_like(lam), where=lam > 0.0)
    return (lam - 1.0) * np.log1p(-lam) - lam * log_lam


def finite_time_columns(t, R, alpha, observables):
    """The finite-time columns named in observables at broadcastable float
    arrays t, R and alpha, trusted as reduced_state_array trusts them, in
    this order and from one evaluation of the phases: "entropy", the spin-1
    entropy (in [0, ln 2]), and "fidelity", 1 - infidelity_reset_array
    clipped at 0.  Neither is checked against phase_budget here."""
    with np.errstate(all="ignore"):
        ph = _phases(t, R, alpha)
        columns = {}
        if "entropy" in observables:
            up, coh = _reduced_state(R, alpha, ph)
            columns["entropy"] = _spin_entropy(
                4.0 * (up * (1.0 - up) - coh.real * coh.real - coh.imag * coh.imag))
        if "fidelity" in observables:
            columns["fidelity"] = np.maximum(1.0 - _infidelity(t, R, alpha, ph), 0.0)
        return columns


def infidelity_reset_array(t, R, alpha):
    """1 - F, with F = <dd|rho(t)|dd> the fidelity to the initial all-down
    state under resetting, at each (t, R, alpha) of broadcastable float
    arrays, trusted as reduced_state_array trusts them.

    With a_i the weights of |dd> on the levels -gamma, -alpha and gamma and
    w their gaps (see _level_pairs), x = R t and d = exp(-x),

        1 - F = sum over pairs of 2 a_i a_j w^2/(R^2 + w^2)
                * [1 - d (cos wt + (R/w) sin wt)],

    and the bracket is taken as (1 - (1 + x) d) + d (1 - cos wt) + d x (1 -
    sin(wt)/(wt)): three non-negative terms, each with its relative digits
    (see _SETTLE_SERIES_X), so 1 - F keeps relative digits down to t -> 0,
    up to the rounding of the phases (see phase_budget).  The t = 0 rows
    are exactly 0; where exp(-R t) is 0 the transient takes phase 0 and the
    row is the stationary 1 - F.  The phases are reduced_state_array's, and
    so is their nan past the float range.  No numpy warning.
    """
    with np.errstate(all="ignore"):
        return _infidelity(t, R, alpha, _phases(t, R, alpha))


def entropy_at_time(t: float, p: TwoSpinParams) -> float:
    """Spin-1 von Neumann entropy under resetting at rescaled time t >= 0;
    ValueError for the times sweep.timeseries refuses (see phase_budget)."""
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"time must be >= 0 and finite, got {t}")
    _require_phase_digits(t, p.R, p.alpha)
    columns = finite_time_columns(np.array([t]), np.array([p.R]), np.array([p.alpha]),
                                  ("entropy",))
    return float(columns["entropy"][0])


def entropy_ness(p: TwoSpinParams) -> float:
    """Stationary spin-1 entropy; requires r > 0 (see entropy_zero_reset)."""
    if p.r <= 0:
        raise ValueError(
            "stationary entropy needs r > 0; use entropy_zero_reset for the limit"
        )
    return float(ness_columns(np.array([p.R]), np.array([p.alpha]), ("entropy",))["entropy"][0])


def ness_columns(R, alpha, observables):
    """The stationary columns named in observables, and only those, at each
    point of the broadcast of float arrays R and alpha, trusted to hold
    finite R >= 0 and alpha >= 0:

    - "entropy", the spin-1 entropy, in [0, ln 2]: finite for every finite R
      and alpha, 0 where the state is pure to round-off (as R -> infinity
      it tends to rho0), and the rate -> 0+ limit at R = 0;
    - "fidelity", to the initial all-down state: 1 - up - w/2 (see
      _ness_factors), 1 as R -> infinity and the rate -> 0+ limit (3 + 4
      alpha^2)/(8 (1 + alpha^2)) at R = 0;
    - "purity": rho0 = |dd><dd| is pure, so tr rho^2 = <dd|rho|dd> and the
      purity is the fidelity array;
    - "concurrence", of the two spins (concurrence_ness_stack), which needs
      R > 0; ValueError where the energy spread 2 gamma overflows.

    The first three come from one evaluation of the bounded factors
    (_ness_factors), made only when one of them is asked for.  No numpy
    warning.
    """
    columns = {}
    if not {"entropy", "fidelity", "purity"}.isdisjoint(observables):
        with np.errstate(all="ignore"):
            p, _, _, s, w, v = _ness_factors(R, alpha)
            if "entropy" in observables:
                columns["entropy"] = _spin_entropy(v)
            if not {"fidelity", "purity"}.isdisjoint(observables):
                fidelity = 1.0 - 0.5 * p * s - 0.5 * w
                columns.update((name, fidelity) for name in ("fidelity", "purity")
                               if name in observables)
    if "concurrence" in observables:
        columns["concurrence"] = concurrence_ness_stack(alpha, R)
    return columns


# Below this u = y^2 the entropy's u-derivatives take their two-term
# Taylor series (the closed forms divide by y and by u); the next terms are
# below u^2 ~ 1e-16 of the first.
_SERIES_U = 1e-8


def entropy_ness_alpha_derivatives(R: float, alpha: float) -> tuple[float, float]:
    """(dS/dalpha, d2S/dalpha2) of the stationary spin-1 entropy, closed form.

    S depends on (R, alpha) through u = y^2 = 1 - v, with v and its bounded
    factors p, k, s, w from _ness_factors, rational in Q = R^2 and A =
    alpha^2.  Then dS/du = -atanh(y)/(2y), and the alpha derivatives follow
    by the chain rule from du/dA and d2u/dA2.  v is formed directly, so
    atanh(y) = log1p(y) - log(v)/2 keeps its digits as y rounds to 1.
    Even in R, odd (slope) and even (curvature) in alpha, and the rate -> 0+
    limit at R = 0.  Never raises.  du/dA multiplies Q and A themselves by
    w, so both are nan where R or alpha exceeds sqrt(max float) ~ 1.34e154
    and Q or A overflows; also nan for non-finite input and where v rounds
    to <= 0 (a state pure to round-off).
    """
    p, rp, k, s, w, v = _ness_factors(R, alpha)
    if not v > 0.0:
        return math.nan, math.nan
    q = R * R
    a = alpha * alpha
    qp2 = rp * rp
    t2 = 32.0 * p * qp2 * s * s * s
    u_a = 4.0 * ((q + 4.0 - 4.0 * a) * w) * w * w + t2 * k
    u_aa = 64.0 * ((2.0 * a - q - 4.0) * w) * w * w * w + t2 * qp2 * (1.0 - 8.0 * k) * s
    u = 1.0 - v
    # at_y = atanh(y)/y and s_uu = d2S/du2.  1/v - at_y cancels to ~eps/u,
    # but s_uu is then multiplied by (du/dalpha)^2, which is O(u) too.
    if u < _SERIES_U:
        at_y, s_uu = 1.0 + u / 3.0, -1.0 / 6.0 - 0.2 * u
    else:
        y = math.sqrt(u)
        at_y = (math.log1p(y) - 0.5 * math.log(v)) / y
        s_uu = -0.25 * (1.0 / v - at_y) / u
    s_u = -0.5 * at_y
    du = 2.0 * alpha * u_a
    return s_u * du, s_uu * du * du + s_u * (4.0 * a * u_aa + 2.0 * u_a)


# The entropy inflection point dS/dalpha = d2S/dalpha2 = 0 in R > 0, alpha
# >= 0, correctly rounded.  With Q = R^2 and A = alpha^2, dv/dA is -4 N(Q, A)
# over a positive denominator, N a quartic in A, and S increases with v, so
# the point is a double root of N in A (alpha = 0 never is: the curvature
# there is a nonzero multiple of N(Q, 0) > 0).  Of the two positive roots of
# P(Q), a degree-10 factor of N's discriminant in A, only Q_c gives a double
# root A_c > 0; the other, Q ~ 0.358, gives A ~ -0.512.  tests/test_sweep.py
# writes N and P out.
CRITICAL_R = 0.12364917511714785  # sqrt(Q_c)
CRITICAL_ALPHA = 1.2782375777265733  # sqrt(A_c)


def entropy_zero_reset(alpha: float) -> float:
    """Stationary spin-1 entropy in the rate -> 0+ limit.

    Maximal (ln 2) at both alpha -> 0 and alpha -> infinity, with a dip in
    between; approaches ln2 - alpha^2/8 and ln2 - 1/(8 alpha^2) in the two
    limits.  ValueError unless alpha is finite and >= 0.
    """
    alpha = TwoSpinParams.from_dimensionless(0.0, alpha).alpha
    return float(ness_columns(np.array([0.0]), np.array([alpha]), ("entropy",))["entropy"][0])


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
    ValueError for a negative z or nan.
    """
    if not z >= 0:
        raise ValueError(f"z must be >= 0, got {z}")
    if z > SCALING_ASYMPTOTE_Z:
        if math.isinf(z):
            return 0.0
        return (2.0 * math.log(z) + 1.0 + LN8) / (8.0 * z) / z
    z2 = 4.0 * z * z
    h = 0.5 / (1.0 + z2)
    return h * LN2 - (1.0 - h) * math.log1p(-h) + h * math.log1p(z2)


def fidelity_ness(p: TwoSpinParams) -> float:
    """Stationary fidelity to the initial all-down state (see ness_columns).

    Continuous down to R = 0, where it gives the rate -> 0+ limiting value
    (3 + 4 alpha^2) / (8 (1 + alpha^2)).
    """
    return float(ness_columns(np.array([p.R]), np.array([p.alpha]), ("fidelity",))["fidelity"][0])


def concurrence_ness(p: TwoSpinParams) -> float:
    """Stationary two-spin concurrence (see concurrence_ness_stack)."""
    if p.r <= 0:
        raise ValueError("stationary concurrence needs r > 0")
    return float(concurrence_ness_stack(np.array([p.alpha]), np.array([p.R]))[0])


def concurrence_ness_stack(alpha: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stationary two-spin concurrence at each point of the broadcast of
    float arrays alpha and R, trusted to hold finite alpha >= 0 and finite
    R > 0 (a grid of couplings by rates is alpha[:, None] and R).
    ValueError where the energy spread 2 gamma overflows, as QuantumSystem
    raises.

    Wootters' spectrum is the singular values of tau = W^T S W, S = sigma_y x
    sigma_y, and for W = V3 W_e (see _ness_cholesky) tau = W_e^T M W_e, where
    M = V3^T S V3 = [[-a, 0, -b], [0, 1, 0], [-b, 0, a]] is a real reflection
    with a = (1 - t^2)/(1 + t^2), b = 2t/(1 + t^2) and t = 1/(gamma + alpha).
    tau is symmetric, and its six entries go to the closed form of Wootters'
    rule (see observables._wootters_3x3)."""
    with np.errstate(over="ignore"):
        gamma = np.hypot(alpha, 1.0)
        spread = 2.0 * gamma
    bad = spread[~np.isfinite(spread)]
    if bad.size:
        raise ValueError(f"hamiltonian energy spread E_max - E_min = {bad[0]} "
                         "is not finite")
    t = 1.0 / (gamma + alpha)
    x0, x1, y1, x2, y2, z2 = _ness_cholesky(t, spread, R)
    a, b = (1.0 - t * t) / (1.0 + t * t), 2.0 * t / (1.0 + t * t)
    # tau_jk = (column j of W_e) . M (column k of W_e), the columns x, y and z
    tau = np.empty((6, *x1.shape), dtype=complex)
    tau[0] = x0 * (-a * x0 - b * x2) + x1 * x1 + x2 * (a * x2 - b * x0)
    tau[1] = x0 * (-b * y2) + x1 * y1 + x2 * (a * y2)
    tau[2] = x0 * (-b * z2) + x2 * (a * z2)
    tau[3] = y1 * y1 + y2 * (a * y2)
    tau[4] = y2 * (a * z2)
    tau[5] = z2 * (a * z2)
    return _wootters_3x3(tau)


def _ness_cholesky(t: np.ndarray, spread: np.ndarray, R: np.ndarray) -> tuple:
    """The six nonzero entries, in np.tril_indices(3) order, of the
    lower-triangular W_e with rho = V3 W_e (V3 W_e)^dagger at each point of
    the broadcast of the mixing ratios t = 1/(gamma + alpha), the spreads
    2 gamma and the rates R (a float array each; t and spread of one shape);
    trusted input.  An entry that does not depend on R keeps the shape of t.
    V3 holds the eigenvectors of the levels -gamma, -alpha and gamma, which
    carry |dd> (the singlet at alpha does not): the symmetric-sector
    vectors mixed with the ratio t and (|uu> - |dd>)/sqrt2.

    The energy-basis state c_i c_j K_ij, with c = (n, -1/sqrt2, t n), n =
    1/sqrt(2 + 2 t^2), the real weights of |dd>, has closed-form Cholesky
    columns (Gohberg, Kailath and Olshevsky, Math. Comp. 64, 1557 (1995)):
    W_e = [[c0, 0, 0], [c1 K10, c1', 0], [c3 K30, c3' K31, c3'']] with c1' =
    c1 U10, c3' = c3 U30, c3'' = c3' U31, and K, U from _kernels on the
    three gaps of the levels taken as offsets (0, t, 2 gamma) from -gamma,
    (t, 2 gamma, 2 gamma - t), and nowhere else: the gap gamma - alpha of
    the lowest pair is t, which keeps its digits where the difference of
    the rounded energies cancels.  The gaps t, 1/t and 2 gamma are > 0 for
    every finite alpha, so no two of the levels are degenerate.  Where the
    pivot c1' underflows to 0 with t/R (as at alpha = 1e150, R = 1e300),
    column 1 is zero and c3'' = c3'; |K|, |U| <= 1, so W_e is finite."""
    n = 1.0 / np.sqrt(2.0 + 2.0 * t * t)
    # the three gaps along a leading axis, for one call of _kernels
    gaps = np.empty((3, *np.broadcast(t, R).shape))
    gaps[0], gaps[1] = t, spread
    np.subtract(spread, t, out=gaps[2])
    (k10, k20, k21), (u10, u20, u21) = _kernels(gaps, R)
    c1, c3 = -math.sqrt(0.5), t * n
    c1p, c3p = c1 * u10, c3 * u20
    pivot = c1p != 0.0
    return (n, c1 * k10, c1p, c3 * k20,
            np.where(pivot, c3p * k21, 0.0), np.where(pivot, c3p * u21, c3p))
