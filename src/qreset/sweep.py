"""Parameter sweeps, optimizers, and validation reports for the two-spin
resetting model: grid evaluation of the stationary observables,
maximization of concurrence and of the finite-time entropy over the reset
rate in rounds of geometric probes, the exact entropy-inflection
(spinodal-like) point in the (rate, coupling) plane, and Monte Carlo
cross-validation of the engine.

A sweep walks its flat table in blocks of a fixed number of points, and
each block's columns are one call of ``twospin.ness_columns`` on its rates
and couplings, which knows which body gives which observable; no density
matrix is formed.  The concurrence optimizer calls
``twospin.concurrence_ness_stack`` for each round of probes of its one
coupling.  A time series takes its entropy and fidelity columns from one
call of the transient closed forms (``twospin.finite_time_columns``), and
the entropy peak search each round of probes; both refuse the times at
which the transient's phases keep too few digits (``twospin.phase_budget``,
by ``reset_core``'s one rule).  ``spaced`` is the one spacing of points:
np.linspace's or np.geomspace's, bit for bit, from their arithmetic alone,
since their argument handling costs several times the arithmetic.  A
round's probes are its 65 geometric points, and the command line's grids
are its points too.

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

from . import reset_core, twospin
from .reset_core import ResetSpec, ness_density, reset_density
from .trajectories import TrajectoryConfig, estimate_density
from .twospin import TwoSpinParams

ALL_OBSERVABLES = ("entropy", "fidelity", "purity", "concurrence")

# Standard errors at or below this are treated as "deterministic entry"
# when standardizing Monte Carlo deviations; see worst_deviation.
STDERR_FLOOR = 1e-12

# A sweep evaluates its flat table in runs of _BLOCK_POINTS points.  With
# every observable, tracemalloc measures about 1 KB of temporaries a point
# (most of them the concurrence's complex arrays: its kernels K and U on
# three gaps, the six entries of its factor and the six of tau), so a
# block takes about 3 MiB.
_BLOCK_POINTS = 3072


class SolverError(RuntimeError):
    """The inflection point is not in the box asked for."""


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Cartesian (rate, coupling) grid with the observables to evaluate.
    The axes are kept as read-only float64 arrays."""

    r_values: np.ndarray
    alpha_values: np.ndarray
    observables: tuple[str, ...] = ALL_OBSERVABLES

    def __post_init__(self):
        r, alpha = (np.array(v, dtype=float) for v in (self.r_values, self.alpha_values))
        if r.ndim != 1 or alpha.ndim != 1:
            raise ValueError(f"grid axes must be 1-D, got shapes {r.shape} and {alpha.shape}")
        if not (r.size and alpha.size):
            raise ValueError("grid axes must be nonempty")
        # comparisons with nan are False, so nan is refused with inf
        bad = ~((r > 0.0) & (r < np.inf))
        if bad.any():
            raise ValueError("grid R values must be finite and > 0, "
                             f"got {float(r[bad.argmax()])}")
        bad = ~((alpha >= 0.0) & (alpha < np.inf))
        if bad.any():
            raise ValueError("grid alpha values must be finite and >= 0, "
                             f"got {float(alpha[bad.argmax()])}")
        if not ((r[1:] >= r[:-1]).all() and (alpha[1:] >= alpha[:-1]).all()):
            raise ValueError("grid axes must be ascending")
        r.flags.writeable = alpha.flags.writeable = False
        object.__setattr__(self, "r_values", r)
        object.__setattr__(self, "alpha_values", alpha)
        bad = set(self.observables) - set(ALL_OBSERVABLES)
        if bad or not self.observables:
            raise ValueError(f"unknown observables: {sorted(bad)}")
        canonical = tuple(o for o in ALL_OBSERVABLES if o in self.observables)
        object.__setattr__(self, "observables", canonical)


def sweep_records(grid: SweepGrid) -> dict[str, np.ndarray]:
    """The grid's observable table: columns r, alpha and the grid's
    observables, alpha-outer / rate-inner row-major order, each in range
    by construction (entropy in [0, ln 2], the others in [0, 1])."""
    observables, n_r, n_alpha = grid.observables, grid.r_values.size, grid.alpha_values.size
    r = np.empty(n_r * n_alpha)
    r.reshape(n_alpha, n_r)[:] = grid.r_values
    table = {"r": r, "alpha": grid.alpha_values.repeat(n_r)}
    table.update((name, np.empty(n_r * n_alpha)) for name in observables)
    for start in range(0, n_r * n_alpha, _BLOCK_POINTS):
        block = slice(start, start + _BLOCK_POINTS)
        columns = twospin.ness_columns(table["r"][block], table["alpha"][block], observables)
        for name in observables:
            table[name][block] = columns[name]
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
    ValueError naming the first t at which ``twospin.phase_budget`` reaches
    ``reset_core.PHASE_BUDGET`` (a phase that overflows is one such t).
    Both columns are in range by construction: the entropy in [0, ln 2],
    the fidelity clipped to [0, 1].
    """
    # an array is taken whole, not iterated value by value
    t = np.array(t_values if isinstance(t_values, np.ndarray) else list(t_values), dtype=float)
    # comparisons with nan are False
    if not (t.ndim == 1 and ((t >= 0.0) & (t < np.inf)).all() and (t[1:] >= t[:-1]).all()):
        raise ValueError("t values must be finite, >= 0, ascending")
    bad = set(observables) - {"entropy", "fidelity"}
    if bad:
        raise ValueError(f"timeseries supports entropy/fidelity, got {sorted(bad)}")
    reset_core._require_phase_digits(twospin.phase_budget(t, p.R, p.alpha), t, p.R)
    table = {"r": np.full(t.size, p.R), "alpha": np.full(t.size, p.alpha), "t": t}
    table.update(twospin.finite_time_columns(t, p.R, p.alpha, observables))
    return table


# ---------------------------------------------------------------------------
# 1-D maximization

@dataclass(frozen=True)
class OptimizeResult:
    x: float
    value: float
    flag: str  # "interior", "boundary", or "degenerate"


_PROBES = 65  # probes per round of _bracketed_max


def spaced(lo, hi, n: int, log: bool = False) -> np.ndarray:
    """np.linspace(lo, hi, n), or np.geomspace(lo, hi, n) with ``log``, bit
    for bit, for finite lo <= hi whose width hi - lo is finite (0 < lo with
    ``log``) and n >= 1: their own arithmetic without their argument
    handling, which costs several times the arithmetic.

    A geometric spacing spreads log10(lo) and log10(hi) linearly and takes
    10 to those powers.  The linear spread follows np.linspace's three
    branches: n = 1 (the one point is 0 * width + lo, so lo = -0.0 gives
    0.0), a step that underflows to 0, and any other step.  Its last point
    is set to hi, and a geometric one's first to lo; the last point's
    product and power are never formed, so they cannot overflow, and an
    interior power that overflows (only within a few ulps of the largest
    float) is inf without a warning."""
    a, b = (np.log10(lo), np.log10(hi)) if log else (lo, hi)
    y = np.arange(n, dtype=float)
    y[-1] = 0.0  # for n > 1 the last point is hi, set below, never computed
    div = n - 1
    if div == 0:
        y *= b - a
    elif (b - a) / div == 0.0:
        # a width of 0 or too small for its step: np.linspace scales by it last
        y /= div
        y *= b - a
    else:
        y *= (b - a) / div
    y += a
    if log:
        with np.errstate(over="ignore"):
            np.power(10.0, y, out=y)
        y[0] = lo
    if div:
        y[-1] = hi
    return y


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
    xs, best = spaced(lo, hi, _PROBES, log=True), None
    while True:
        vals = np.asarray(f(xs), dtype=float)
        i = int(vals.argmax())
        if best is None and vals.max() - vals.min() < 1e-14:
            return OptimizeResult(x=lo, value=float(vals[0]), flag="degenerate")
        if best is None and i in (0, _PROBES - 1):
            return OptimizeResult(x=float(xs[i]), value=float(vals[i]), flag="boundary")
        if best is None or vals[i] > best.value:
            best = OptimizeResult(x=float(xs[i]), value=float(vals[i]), flag="interior")
        x, a, b = xs[i], xs[max(i - 1, 0)], xs[min(i + 1, _PROBES - 1)]
        xs = spaced(a, b, _PROBES, log=True)
        if max(x - a, b - x) <= 0.5 * tol or not (xs[1:] > xs[:-1]).all():
            return best


def optimize_concurrence(
    alpha: float, r_lo: float, r_hi: float, tol: float = 1e-8
) -> OptimizeResult:
    """Maximize the stationary concurrence over the reset rate at fixed coupling;
    each round of probes is one closed-form call at the one coupling."""
    couplings = np.array([TwoSpinParams.from_dimensionless(0.0, alpha).alpha])
    f = lambda rates: twospin.concurrence_ness_stack(couplings, rates)
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
        reset_core._require_phase_digits(twospin.phase_budget(t, r_lo, alpha), t, r_lo)
    f = lambda rates: twospin.finite_time_columns(t, rates, alpha, ("entropy",))["entropy"]
    return _bracketed_max(f, r_lo, r_hi, tol)


# ---------------------------------------------------------------------------
# Entropy inflection point

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


def find_inflection(
    r_lo: float = 0.05,
    r_hi: float = 0.3,
    alpha_lo: float = 0.8,
    alpha_hi: float = 2.0,
) -> CriticalPoint:
    """The point where the entropy's minimum and maximum in the coupling
    merge into an inflection, dS/dalpha = d2S/dalpha2 = 0, if the closed box
    [r_lo, r_hi] x [alpha_lo, alpha_hi] holds it.

    The quadrant R > 0, alpha >= 0 holds one such point, an algebraic number
    (twospin.CRITICAL_R and CRITICAL_ALPHA, correctly rounded); the
    residuals are the closed-form derivatives there.  ValueError for a box
    that is not finite with 0 < r_lo < r_hi and 0 <= alpha_lo < alpha_hi.
    SolverError for a box without the point.
    """
    box = (r_lo, r_hi, alpha_lo, alpha_hi)
    if not (all(map(math.isfinite, box)) and 0.0 < r_lo < r_hi and 0.0 <= alpha_lo < alpha_hi):
        raise ValueError("box needs finite 0 < r_lo < r_hi and 0 <= alpha_lo < alpha_hi, "
                         f"got {box}")
    r, alpha = twospin.CRITICAL_R, twospin.CRITICAL_ALPHA
    if not (r_lo <= r <= r_hi and alpha_lo <= alpha <= alpha_hi):
        raise SolverError(f"the box {box} does not hold the inflection point "
                          f"(R, alpha) = ({r}, {alpha})")
    residuals = tuple(map(abs, twospin.entropy_ness_alpha_derivatives(r, alpha)))
    return CriticalPoint(r_c=r, alpha_c=alpha, residuals=residuals)


# ---------------------------------------------------------------------------
# Monte Carlo validation

@dataclass(frozen=True)
class McValidationReport:
    """What mc_validate measured: the worst standardized deviation of the
    estimate from the exact state, and whether it is within the threshold."""

    max_std_dev: float
    passed: bool


def worst_deviation(estimate, exact: np.ndarray, tol: float = STDERR_FLOOR) -> float:
    """The largest |estimate - exact| / stderr over every entry's real and
    imaginary parts, each stderr taken at least STDERR_FLOOR, capped at the
    largest finite float so that it stays a JSON number.

    Entries whose standard error is at or below STDERR_FLOOR are
    deterministic up to round-off; they count 0 when the deviation is
    within ``tol`` and the cap otherwise.
    """
    diff = estimate.rho_hat - exact
    dev = np.abs(np.stack((diff.real, diff.imag)))
    err = np.stack((estimate.stderr_re, estimate.stderr_im))
    z = dev / np.maximum(err, STDERR_FLOOR)
    deterministic = err <= STDERR_FLOOR
    z[deterministic] = np.where(dev[deterministic] <= tol, 0.0, np.inf)
    return float(min(z.max(), np.finfo(float).max))


def mc_validate(
    p: TwoSpinParams,
    t: float,
    n_traj: int,
    seed: int,
    against: str = "reset",
    threshold: float = 5.0,
) -> McValidationReport:
    """Run the trajectory estimator and compare it entrywise to the exact
    density matrix at rescaled time t (or to the stationary one), by
    worst_deviation.

    Both comparisons refuse by the engine's one rule: ValueError where the
    phase budget b at t_phys reaches PHASE_BUDGET, as reset_density
    refuses, before any trajectory runs.  Deterministic entries are held to
    2b, since the engine and the estimator each round the phases once, or
    to STDERR_FLOOR if that is larger; past the refusal 2b < 2**-25.
    ValueError also for a config TrajectoryConfig refuses (n_traj < 2
    among them) and for a state the engine refuses."""
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
    budget = reset_core._phase_budget(sys, p.r, t_phys)
    reset_core._require_phase_digits(budget, t_phys, p.r)
    worst = worst_deviation(estimate_density(sys, cfg), exact,
                            max(STDERR_FLOOR, 2.0 * float(budget)))
    return McValidationReport(max_std_dev=worst, passed=worst <= threshold)
