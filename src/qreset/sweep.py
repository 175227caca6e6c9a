"""Parameter sweeps, optimizers, and validation reports for the two-spin
resetting model: grid evaluation of the stationary observables,
maximization of concurrence and of the finite-time entropy over the reset
rate in rounds of geometric probes, the entropy-inflection (spinodal-like)
point in the (rate, coupling) plane, and Monte Carlo cross-validation of
the engine.

A sweep is evaluated in blocks of coupling rows, as many as fit a byte
budget: the entropy and fidelity of a block come from one array closed
form each, and so does the purity, which for the pure initial state
equals the fidelity to it; the concurrence of the block comes from one
call of ``twospin.concurrence_ness_stack`` on its couplings and the
grid's rates; no density matrix is formed.  The concurrence optimizer
makes that call for each round of probes of its one coupling.  A time
series takes its entropy and fidelity columns from one call of the
transient closed forms, and the entropy peak search each round of probes;
both refuse the times at which the transient's phases keep too few digits
(``twospin.phase_budget``).

Each column is in range by construction and is not checked again: an
entropy is ``_spin_entropy`` of v clipped to [0, 1], so in [0, ln 2]; a
fidelity is 1 - ps/2 - w/2 of bounded factors, or clipped to [0, 1]; a
concurrence gap is clamped at 0 and at most mu_1 <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import twospin
from .reset_core import ResetSpec, ness_density, reset_density
from .trajectories import TrajectoryConfig, estimate_density
from .twospin import TwoSpinParams

ALL_OBSERVABLES = ("entropy", "fidelity", "purity", "concurrence")

# Standard errors at or below this are treated as "deterministic entry"
# when standardizing Monte Carlo deviations; see mc_validate.
STDERR_FLOOR = 1e-12

# At zero rate every trajectory is the same, and a deterministic entry is
# exact up to the round-off of the phases E t: at most 0.26 eps max|E| t was
# seen for t = 1e3 .. 1e9.  mc_validate allows PHASE_ROUNDOFF eps max|E| t,
# weighted by exp(-r t), the share of trajectories that reach age t.
PHASE_ROUNDOFF = 4.0


# A sweep evaluates as many coupling rows at once as keep their
# temporaries, about _POINT_BYTES a grid point, within _BLOCK_BYTES.  They
# are (3, 3) complex stacks, the kernels K and U of the factor and tau of
# concurrence, and the factor's entries; tracemalloc measures about 410
# bytes a point beyond the table.
_BLOCK_BYTES = 4 * 2**20
_POINT_BYTES = 512


class SolverError(RuntimeError):
    """A root or maximum could not be bracketed / located."""


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian (rate, coupling) grid with the observables to evaluate."""

    r_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    observables: tuple[str, ...] = ALL_OBSERVABLES

    def __post_init__(self):
        object.__setattr__(self, "r_values", tuple(float(v) for v in self.r_values))
        object.__setattr__(
            self, "alpha_values", tuple(float(v) for v in self.alpha_values)
        )
        if not self.r_values or not self.alpha_values:
            raise ValueError("grid axes must be nonempty")
        for v in self.r_values:
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"grid R values must be finite and > 0, got {v}")
        for v in self.alpha_values:
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"grid alpha values must be finite and >= 0, got {v}")
        if list(self.r_values) != sorted(self.r_values) or list(
            self.alpha_values
        ) != sorted(self.alpha_values):
            raise ValueError("grid axes must be ascending")
        bad = set(self.observables) - set(ALL_OBSERVABLES)
        if bad or not self.observables:
            raise ValueError(f"unknown observables: {sorted(bad)}")
        canonical = tuple(o for o in ALL_OBSERVABLES if o in self.observables)
        object.__setattr__(self, "observables", canonical)


def sweep_records(grid: SweepGrid) -> dict[str, np.ndarray]:
    """The grid's observable table: columns r, alpha and the grid's
    observables, alpha-outer / rate-inner row-major order, each in range
    by construction (entropy in [0, ln 2], the others in [0, 1])."""
    observables, n_r, n_alpha = grid.observables, len(grid.r_values), len(grid.alpha_values)
    table = {"r": np.tile(grid.r_values, n_alpha),
             "alpha": np.repeat(grid.alpha_values, n_r)}
    table.update((name, np.empty(n_r * n_alpha)) for name in observables)
    # rho0 is pure, so tr rho^2 = <psi0|rho|psi0>: purity is the fidelity
    from_fidelity = [name for name in ("fidelity", "purity") if name in observables]
    rows = max(1, _BLOCK_BYTES // (n_r * _POINT_BYTES))
    for k in range(0, n_alpha, rows):
        alphas = grid.alpha_values[k:k + rows]
        block = slice(k * n_r, (k + len(alphas)) * n_r)
        r, alpha = table["r"][block], table["alpha"][block]
        if "entropy" in observables:
            table["entropy"][block] = twospin.entropy_ness_array(r, alpha)
        if from_fidelity:
            fidelity = twospin.fidelity_ness_array(r, alpha)
            for name in from_fidelity:
                table[name][block] = fidelity
        if "concurrence" in observables:
            table["concurrence"][block] = twospin.concurrence_ness_stack(
                np.array(alphas), np.array(grid.r_values)).ravel()
    return table


def timeseries(
    p: TwoSpinParams,
    t_values: Iterable[float],
    observables: Sequence[str] = ("entropy",),
) -> dict[str, np.ndarray]:
    """The observable table at the given ascending rescaled times: columns
    r, alpha, t and the requested observables.

    Entropy and fidelity (against the initial all-down state) come from the
    two-spin closed forms, from one evaluation of their phases
    (``twospin.finite_time_columns``); no density matrix is formed.
    ValueError naming the first t at which the rounding of the phases can
    move the transient by ``twospin.PHASE_BUDGET`` or more while exp(-R t)
    > 0 (``twospin.phase_budget``; a phase that overflows is one such t).
    Both columns are in range by construction: the entropy in [0, ln 2],
    the fidelity clipped to [0, 1].
    """
    t = np.fromiter(t_values, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(t >= 0.0) and np.all(np.diff(t) >= 0.0)):
        raise ValueError("t values must be finite, >= 0, ascending")
    bad = set(observables) - {"entropy", "fidelity"}
    if bad:
        raise ValueError(f"timeseries supports entropy/fidelity, got {sorted(bad)}")
    _require_phase_digits(t, p.R, p.alpha)
    table = {"r": np.full(t.size, p.R), "alpha": np.full(t.size, p.alpha), "t": t}
    table.update(twospin.finite_time_columns(t, p.R, p.alpha, observables))
    return table


def _require_phase_digits(t, R, alpha) -> None:
    """ValueError naming the first (t, R) of broadcastable arrays at which
    ``twospin.phase_budget`` reaches ``twospin.PHASE_BUDGET`` (or is nan)."""
    budget = np.atleast_1d(twospin.phase_budget(t, R, alpha))
    refused = ~(budget < twospin.PHASE_BUDGET)
    if refused.any():
        i = int(np.argmax(refused))
        t_i, R_i = (float(np.broadcast_to(v, budget.shape)[i]) for v in (t, R))
        raise ValueError(f"the phases keep too few digits at t = {t_i} (R = {R_i}): their "
                         f"rounding can move the transient by {budget[i]:.2g} >= "
                         f"{twospin.PHASE_BUDGET:.2g} while exp(-R t) > 0")


# ---------------------------------------------------------------------------
# 1-D maximization

@dataclass(frozen=True)
class OptimizeResult:
    x: float
    value: float
    flag: str  # "interior", "boundary", or "degenerate"


_PROBES = 65  # probes per round of _bracketed_max


def _bracketed_max(
    f: Callable[[np.ndarray], Sequence[float]],
    lo: float,
    hi: float,
    tol: float,
) -> OptimizeResult:
    """Maximize f over [lo, hi] in rounds of geometric probes.

    ``f`` maps a 1-D float array of points to their values; each round
    passes it ``_PROBES`` points spread geometrically over the bracket, at
    first [lo, hi].  The maximum of a unimodal f lies between the neighbours
    of the best probe, which become the next bracket.  The rounds stop once
    the best probe is within tol/2 of both neighbours, or once the next
    probes would repeat a float (the bracket is a few ulps wide).  The result
    is the best probe of all rounds.  The first round sets the flag:
    "degenerate" when f is flat over its probes, "boundary" when the best
    probe is an endpoint, else "interior".  lo, hi and tol are checked here.
    """
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"need finite 0 < r_lo < r_hi, got ({lo}, {hi})")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    xs, best = np.geomspace(lo, hi, _PROBES), None
    while True:
        vals = np.asarray(f(xs), dtype=float)
        i = int(np.argmax(vals))
        if best is None and vals.max() - vals.min() < 1e-14:
            return OptimizeResult(x=lo, value=float(vals[0]), flag="degenerate")
        if best is None and i in (0, _PROBES - 1):
            return OptimizeResult(x=float(xs[i]), value=float(vals[i]), flag="boundary")
        if best is None or vals[i] > best.value:
            best = OptimizeResult(x=float(xs[i]), value=float(vals[i]), flag="interior")
        x, a, b = xs[i], xs[max(i - 1, 0)], xs[min(i + 1, _PROBES - 1)]
        xs = np.geomspace(a, b, _PROBES)
        if max(x - a, b - x) <= 0.5 * tol or not np.all(np.diff(xs) > 0.0):
            return best


def optimize_concurrence(
    alpha: float, r_lo: float, r_hi: float, tol: float = 1e-8
) -> OptimizeResult:
    """Maximize the stationary concurrence over the reset rate at fixed coupling;
    each round of probes is one closed-form call at the one coupling."""
    couplings = np.array([TwoSpinParams.from_dimensionless(0.0, alpha).alpha])
    f = lambda rates: twospin.concurrence_ness_stack(couplings, rates)[0]
    return _bracketed_max(f, r_lo, r_hi, tol)


def find_entropy_peak_rate(
    t: float, alpha: float, r_lo: float, r_hi: float, tol: float = 1e-8
) -> OptimizeResult:
    """Maximize the finite-time entropy over the reset rate at fixed time;
    the probes of the rate go through the transient closed form in one call.
    ValueError where the phases keep too few digits at r_lo (see
    timeseries): the budget falls as the rate grows, so r_lo bounds it at
    every probe."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"need finite t > 0, got {t}")
    alpha = TwoSpinParams.from_dimensionless(0.0, alpha).alpha
    # a bracket that is no bracket is _bracketed_max's to refuse
    if r_lo > 0.0:
        _require_phase_digits(t, r_lo, alpha)
    f = lambda rates: twospin.entropy_reset_array(t, rates, alpha)
    return _bracketed_max(f, r_lo, r_hi, tol)


# ---------------------------------------------------------------------------
# Entropy inflection point

_SCAN_POINTS = 65  # coupling nodes scanned per rate for the largest slope
_JACOBIAN_STEP = 6e-6  # relative central-difference step of the Jacobian
_NEWTON_RTOL = 1e-13  # a relative Newton step this small is round-off
_MAX_SOLVER_STEPS = 200


def entropy_alpha_slope(r: float, alpha: float) -> float:
    """d(stationary entropy)/d(alpha) at fixed rate, in closed form."""
    return twospin.entropy_ness_alpha_derivatives(r, alpha)[0]


def entropy_alpha_curvature(r: float, alpha: float) -> float:
    """d^2(stationary entropy)/d(alpha)^2 at fixed rate, in closed form."""
    return twospin.entropy_ness_alpha_derivatives(r, alpha)[1]


@dataclass(frozen=True)
class CriticalPoint:
    r_c: float
    alpha_c: float
    residuals: tuple[float, float]  # (|dS/dalpha|, |d2S/dalpha2|) at the point


def _slope_peak(r: float, alphas: list[float]) -> tuple[float, float]:
    """(slope, alpha) at the largest finite dS/dalpha over the coupling nodes
    at rate r: at an end, or at an interior maximum, bisected to where the
    curvature falls through zero.  (-inf, nan) if no slope is finite.  The
    closed form gives both derivatives, so each point is evaluated once."""
    f = twospin.entropy_ness_alpha_derivatives
    derivatives = [f(r, a) for a in alphas]
    slopes = [(derivatives[0][0], alphas[0]), (derivatives[-1][0], alphas[-1])]
    for lo, hi, d_lo, d_hi in zip(alphas, alphas[1:], derivatives, derivatives[1:]):
        if d_lo[1] > 0.0 >= d_hi[1]:
            mid = lo + 0.5 * (hi - lo)
            while lo < mid < hi:
                d_mid = f(r, mid)
                if d_mid[1] > 0.0:
                    lo, d_lo = mid, d_mid
                else:
                    hi, d_hi = mid, d_mid
                mid = lo + 0.5 * (hi - lo)
            # the bisection ends on one of its ends
            slopes.append((d_lo[0] if mid == lo else d_hi[0], mid))
    return max(((s, a) for s, a in slopes if math.isfinite(s)), default=(-math.inf, math.nan))


def _newton_step(r: float, alpha: float) -> tuple[float, float] | None:
    """2-D Newton step towards dS/dalpha = d2S/dalpha2 = 0, the Jacobian from
    central differences of the closed forms; None unless finite."""
    hr, ha = _JACOBIAN_STEP * r, _JACOBIAN_STEP * max(alpha, 1.0)
    if not hr > 0.0:
        return None
    f = twospin.entropy_ness_alpha_derivatives
    (s, c), (s_rp, c_rp), (s_rm, c_rm) = f(r, alpha), f(r + hr, alpha), f(r - hr, alpha)
    (s_ap, c_ap), (s_am, c_am) = f(r, alpha + ha), f(r, alpha - ha)
    j11, j21 = (s_rp - s_rm) / (2.0 * hr), (c_rp - c_rm) / (2.0 * hr)
    j12, j22 = (s_ap - s_am) / (2.0 * ha), (c_ap - c_am) / (2.0 * ha)
    det = j11 * j22 - j12 * j21
    if not (math.isfinite(det) and det != 0.0):
        return None
    step = ((c * j12 - s * j22) / det, (s * j21 - c * j11) / det)
    return step if all(math.isfinite(d) for d in step) else None


def find_inflection(
    r_lo: float = 0.05,
    r_hi: float = 0.3,
    alpha_lo: float = 0.8,
    alpha_hi: float = 2.0,
) -> CriticalPoint:
    """Locate the point where the entropy's minimum and maximum in the
    coupling merge into an inflection: dS/dalpha = d2S/dalpha2 = 0.

    Both residuals are closed forms, solved to round-off.  The largest slope
    over the coupling box is positive below the critical rate (between the
    minimum and maximum) and negative above it, so its sign change brackets
    the rate.  A 2-D Newton step is taken while it stays in the box and the
    bracket and halves the last step; else the bracket is bisected (in log
    while wider than a factor 4) and Newton restarts from the largest slope
    at the midpoint.  ValueError for a box that is not finite with 0 < r_lo
    < r_hi and 0 <= alpha_lo < alpha_hi.  SolverError without a sign change,
    or if the bracket collapses before Newton converges.
    """
    box = (r_lo, r_hi, alpha_lo, alpha_hi)
    if not (all(map(math.isfinite, box)) and 0.0 < r_lo < r_hi and 0.0 <= alpha_lo < alpha_hi):
        raise ValueError("box needs finite 0 < r_lo < r_hi and 0 <= alpha_lo < alpha_hi, "
                         f"got {box}")
    # nodes even in log1p(alpha), so a box over decades still resolves alpha ~ 1
    nodes = np.expm1(np.linspace(math.log1p(alpha_lo), math.log1p(alpha_hi), _SCAN_POINTS))
    alphas = [alpha_lo, *nodes[1:-1].tolist(), alpha_hi]
    slope, alpha = _slope_peak(r_lo, alphas)
    rising = slope > 0.0
    if rising == (_slope_peak(r_hi, alphas)[0] > 0.0):
        raise SolverError(
            "no slope sign change over the rate interval: the inflection "
            f"point is not bracketed by ({r_lo}, {r_hi})"
        )
    a, b, r, last = r_lo, r_hi, r_lo, math.inf
    for _ in range(_MAX_SOLVER_STEPS):
        step = _newton_step(r, alpha)
        if step is not None:
            size = max(abs(step[0]) / r, abs(step[1]) / max(alpha, 1.0))
            r_new, alpha_new = r + step[0], alpha + step[1]
            if a < r_new < b and alpha_lo <= alpha_new <= alpha_hi and size < 0.5 * last:
                r, alpha, last = r_new, alpha_new, size
                if size <= _NEWTON_RTOL:
                    residuals = tuple(map(abs, twospin.entropy_ness_alpha_derivatives(r, alpha)))
                    return CriticalPoint(r_c=r, alpha_c=alpha, residuals=residuals)
                continue
        r = math.sqrt(a) * math.sqrt(b) if b > 4.0 * a else a + 0.5 * (b - a)
        if not a < r < b:
            break
        slope, alpha = _slope_peak(r, alphas)
        a, b = (r, b) if (slope > 0.0) == rising else (a, r)
        last = math.inf
    raise SolverError(f"Newton iteration did not converge inside the box {box}")


# ---------------------------------------------------------------------------
# Monte Carlo validation

@dataclass(frozen=True)
class McValidationReport:
    max_std_dev: float
    threshold: float
    passed: bool
    n_traj: int
    t: float
    compared_to: str  # "reset" or "ness"


def standardized_deviations(estimate, exact: np.ndarray, tol: float = STDERR_FLOOR):
    """Per-entry |estimate - exact| / stderr, real and imaginary separately,
    with each stderr at least STDERR_FLOOR.

    Entries whose standard error is at or below STDERR_FLOOR are
    deterministic up to round-off; they standardize to zero when the
    deviation is within ``tol`` and to infinity otherwise.
    """

    def z(dev, err):
        out = dev / np.maximum(err, STDERR_FLOOR)
        deterministic = err <= STDERR_FLOOR
        out[deterministic] = np.where(dev[deterministic] <= tol, 0.0, np.inf)
        return out

    z_re = z(np.abs(estimate.rho_hat.real - exact.real), estimate.stderr_re)
    z_im = z(np.abs(estimate.rho_hat.imag - exact.imag), estimate.stderr_im)
    return z_re, z_im


def mc_validate(
    p: TwoSpinParams,
    t: float,
    n_traj: int,
    seed: int,
    against: str = "reset",
    threshold: float = 5.0,
) -> McValidationReport:
    """Run the trajectory estimator and compare it entrywise to the exact
    density matrix at rescaled time t (or to the stationary one).

    Deterministic entries are held to the phase round-off PHASE_ROUNDOFF *
    eps * max|E| * t_phys * exp(-r t_phys), or STDERR_FLOOR if that is
    larger.  One that misses it reports the largest finite float as
    max_std_dev, so the report stays a JSON number and fails.  ValueError
    for a config TrajectoryConfig refuses (n_traj < 2 among them), and
    where the engine refuses t_phys because its phases keep no digits."""
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be finite and > 0, got {threshold}")
    t_phys = t / p.omega
    cfg = TrajectoryConfig(n_traj=n_traj, master_seed=seed, t_final=t_phys, rate=p.r)
    sys = twospin.quantum_system(p)
    if against == "reset":
        exact = reset_density(sys, ResetSpec(p.r), t_phys)
    elif against == "ness":
        exact = ness_density(sys, ResetSpec(p.r))
    else:
        raise ValueError(f"against must be 'reset' or 'ness', got {against!r}")
    estimate = estimate_density(sys, cfg)
    max_energy = float(np.max(np.abs(sys.eigensystem[0])))
    roundoff = PHASE_ROUNDOFF * np.finfo(float).eps * max_energy * t_phys
    tol = max(STDERR_FLOOR, roundoff * math.exp(-p.r * t_phys))
    z_re, z_im = standardized_deviations(estimate, exact, tol)
    worst = float(min(max(z_re.max(), z_im.max()), np.finfo(float).max))
    return McValidationReport(
        max_std_dev=worst,
        threshold=threshold,
        passed=worst <= threshold,
        n_traj=n_traj,
        t=t,
        compared_to=against,
    )
