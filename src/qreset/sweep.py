"""Parameter sweeps, optimizers, and validation reports for the two-spin
resetting model: grid evaluation of the stationary observables, golden-
section maximization of concurrence and of the finite-time entropy over
the reset rate, the entropy-inflection (spinodal-like) point in the
(rate, coupling) plane, and Monte Carlo cross-validation of the engine.

A sweep is evaluated one coupling row at a time: every rate of a row
shares one Hamiltonian, so a row builds one validated system and gets its
purity and concurrence from one stack of stationary states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from . import twospin
from .cmatrix import require_psd
from .observables import concurrence_stack, fidelity_pure_stack, purity_stack
from .reset_core import (
    ResetSpec,
    ness_density,
    ness_density_stack,
    reset_density,
    reset_density_stack,
)
from .trajectories import TrajectoryConfig, estimate_density
from .twospin import TwoSpinParams

ALL_OBSERVABLES = ("entropy", "fidelity", "purity", "concurrence")

ENTROPY_BOUND_SLACK = 1e-9
UNIT_BOUND_SLACK = 1e-12

# Standard errors at or below this are treated as "deterministic entry"
# when standardizing Monte Carlo deviations; see mc_validate.
STDERR_FLOOR = 1e-12


class SolverError(RuntimeError):
    """A root or maximum could not be bracketed / located."""


class BoundsError(RuntimeError):
    """An emitted record violated its theoretical observable bounds."""


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


@dataclass
class ObservableRecord:
    """One output row; fields not requested stay None."""

    r: float
    alpha: float
    t: float | None = None
    entropy: float | None = None
    fidelity: float | None = None
    purity: float | None = None
    concurrence: float | None = None

    def bounds_violations(self) -> list[str]:
        out = []
        if self.entropy is not None and not (
            -UNIT_BOUND_SLACK <= self.entropy <= math.log(2.0) + ENTROPY_BOUND_SLACK
        ):
            out.append(f"entropy {self.entropy} outside [0, ln 2]")
        for name in ("fidelity", "purity", "concurrence"):
            v = getattr(self, name)
            if v is not None and not (-UNIT_BOUND_SLACK <= v <= 1.0 + UNIT_BOUND_SLACK):
                out.append(f"{name} {v} outside [0, 1]")
        return out


FIELD_NAMES = tuple(f.name for f in fields(ObservableRecord))


def _row_records(grid: SweepGrid, alpha: float) -> list[ObservableRecord]:
    """Records of one coupling row, in ascending rate order."""
    observables = grid.observables
    records = [ObservableRecord(r=r, alpha=alpha) for r in grid.r_values]
    if "entropy" in observables or "fidelity" in observables:
        for rec in records:
            p = TwoSpinParams.from_dimensionless(rec.r, alpha)
            if "entropy" in observables:
                rec.entropy = twospin.entropy_ness(p)
            if "fidelity" in observables:
                rec.fidelity = twospin.fidelity_ness(p)
    if "purity" in observables or "concurrence" in observables:
        # the Hamiltonian does not depend on the rate
        sys = twospin.quantum_system(TwoSpinParams.from_dimensionless(0.0, alpha))
        rhos = ness_density_stack(sys, grid.r_values)
        if "purity" in observables:
            for rec, v in zip(records, purity_stack(rhos).tolist()):
                rec.purity = v
        if "concurrence" in observables:
            for rec, v in zip(records, concurrence_stack(rhos)[0].tolist()):
                rec.concurrence = v
    return records


def _check_bounds(rec: ObservableRecord) -> ObservableRecord:
    violations = rec.bounds_violations()
    if violations:
        raise BoundsError(
            f"record at (r={rec.r}, alpha={rec.alpha}): " + "; ".join(violations)
        )
    return rec


def sweep_records(grid: SweepGrid, threads: int = 1) -> list[ObservableRecord]:
    """Evaluate the grid, alpha-outer / rate-inner row-major order.

    ``threads`` is accepted for compatibility and has no effect: a row is
    one vectorised evaluation, and a thread pool over points was slower.
    """
    records = [rec for alpha in grid.alpha_values for rec in _row_records(grid, alpha)]
    return [_check_bounds(rec) for rec in records]


def run_sweep(grid: SweepGrid, sink, threads: int = 1) -> int:
    """Evaluate the grid and write each record to ``sink``; returns count.
    ``threads`` has no effect (see :func:`sweep_records`)."""
    n = 0
    for rec in sweep_records(grid, threads=threads):
        sink.write(rec)
        n += 1
    return n


def timeseries(
    p: TwoSpinParams,
    t_values: Iterable[float],
    observables: Sequence[str] = ("entropy",),
) -> list[ObservableRecord]:
    """Finite-time records at the given ascending rescaled times.

    Entropy comes from the closed form; fidelity (against the initial
    all-down state) from the spectral engine at the matching physical time.
    """
    ts = [float(t) for t in t_values]
    if ts != sorted(ts) or any(t < 0 or not np.isfinite(t) for t in ts):
        raise ValueError("t values must be finite, >= 0, ascending")
    bad = set(observables) - {"entropy", "fidelity"}
    if bad:
        raise ValueError(f"timeseries supports entropy/fidelity, got {sorted(bad)}")
    out = [ObservableRecord(r=p.R, alpha=p.alpha, t=t) for t in ts]
    if "entropy" in observables:
        for rec in out:
            rec.entropy = twospin.entropy_at_time(rec.t, p)
    if "fidelity" in observables:
        sys = twospin.quantum_system(p)
        t_phys = np.array(ts, dtype=float) / p.omega
        rhos = reset_density_stack(sys, p.r, t_phys)
        # the phases omega*t carry no digits once |omega t| nears 1/eps, and
        # the matrix is then no state: check every member
        require_psd(rhos, "finite-time density matrix")
        for rec, v in zip(out, fidelity_pure_stack(rhos, twospin.DOWN_DOWN).tolist()):
            rec.fidelity = v
    return [_check_bounds(rec) for rec in out]


# ---------------------------------------------------------------------------
# 1-D maximization

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizeResult:
    x: float
    value: float
    flag: str  # "interior", "boundary", or "degenerate"


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-8
) -> tuple[float, float]:
    """Maximize a unimodal function on [lo, hi] to absolute x-tolerance tol.

    Stops early once the bracket no longer shrinks: near one ulp of width
    rounding can keep it fixed, so a tol below that would never be met.
    """
    _check_tol(tol)
    a, b = float(lo), float(hi)
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = f(c), f(d)
    while b - a > tol:
        width = b - a
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = f(d)
        if b - a >= width:
            break
    x = 0.5 * (a + b)
    return x, f(x)


def _bracketed_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    probes: int = 65,
) -> OptimizeResult:
    """Geometric probe of [lo, hi] to bracket the peak, then golden section.

    Flags the result "boundary" when the best probe sits on an endpoint and
    "degenerate" when the function is flat over all probes.
    """
    _check_tol(tol)
    xs = np.geomspace(lo, hi, probes)
    vals = [f(x) for x in xs]
    if max(vals) - min(vals) < 1e-14:
        return OptimizeResult(x=lo, value=vals[0], flag="degenerate")
    i = int(np.argmax(vals))
    if i == 0 or i == probes - 1:
        return OptimizeResult(x=float(xs[i]), value=vals[i], flag="boundary")
    x, v = golden_section_max(f, float(xs[i - 1]), float(xs[i + 1]), tol)
    return OptimizeResult(x=x, value=v, flag="interior")


def optimize_concurrence(
    alpha: float, r_lo: float, r_hi: float, tol: float = 1e-8
) -> OptimizeResult:
    """Maximize the stationary concurrence over the reset rate at fixed coupling."""
    if not (0 < r_lo < r_hi):
        raise ValueError(f"need 0 < r_lo < r_hi, got ({r_lo}, {r_hi})")
    f = lambda r: twospin.concurrence_ness(TwoSpinParams.from_dimensionless(r, alpha))
    return _bracketed_max(f, r_lo, r_hi, tol)


def find_entropy_peak_rate(
    t: float, alpha: float, r_lo: float, r_hi: float, tol: float = 1e-8
) -> OptimizeResult:
    """Maximize the finite-time entropy over the reset rate at fixed time."""
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    if not (0 < r_lo < r_hi):
        raise ValueError(f"need 0 < r_lo < r_hi, got ({r_lo}, {r_hi})")
    f = lambda r: twospin.entropy_at_time(t, TwoSpinParams.from_dimensionless(r, alpha))
    return _bracketed_max(f, r_lo, r_hi, tol)


# ---------------------------------------------------------------------------
# Entropy inflection point

# First-derivative step: central difference, one Richardson extrapolation.
SLOPE_STEP = 1e-5
# Second-derivative step.  Larger than the slope step on purpose: the
# second difference divides round-off by h^2, so h = 1e-5 would leave
# ~1e-6 of noise, swamping the 1e-7 residual target; h = 1e-3 keeps both
# truncation (after Richardson) and round-off near 1e-10.
CURVATURE_STEP = 1e-3


def entropy_alpha_slope(r: float, alpha: float, h: float = SLOPE_STEP) -> float:
    """d(stationary entropy)/d(alpha) at fixed rate, finite differences."""
    s = twospin.entropy_ness

    def central(hh):
        pa = TwoSpinParams.from_dimensionless(r, alpha + hh)
        ma = TwoSpinParams.from_dimensionless(r, alpha - hh)
        return (s(pa) - s(ma)) / (2.0 * hh)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def entropy_alpha_curvature(r: float, alpha: float, h: float = CURVATURE_STEP) -> float:
    """d^2(stationary entropy)/d(alpha)^2 at fixed rate, finite differences."""
    s = twospin.entropy_ness

    def second(hh):
        mid = s(TwoSpinParams.from_dimensionless(r, alpha))
        pa = s(TwoSpinParams.from_dimensionless(r, alpha + hh))
        ma = s(TwoSpinParams.from_dimensionless(r, alpha - hh))
        return (pa - 2.0 * mid + ma) / (hh * hh)

    return (4.0 * second(h / 2.0) - second(h)) / 3.0


@dataclass(frozen=True)
class CriticalPoint:
    r_c: float
    alpha_c: float
    residuals: tuple[float, float]  # (|dS/dalpha|, |d2S/dalpha2|) at the point


def _first_sign_change(f, lo, hi, n=64):
    xs = np.linspace(lo, hi, n + 1)
    prev = f(float(xs[0]))
    for i in range(1, n + 1):
        cur = f(float(xs[i]))
        if prev == 0.0:
            return float(xs[i - 1]), float(xs[i - 1])
        if prev * cur < 0:
            return float(xs[i - 1]), float(xs[i])
        prev = cur
    return None


def _bisect(f, lo, hi, iters=80):
    if lo == hi:
        return lo
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_inflection(
    r_lo: float = 0.05,
    r_hi: float = 0.3,
    alpha_lo: float = 0.8,
    alpha_hi: float = 2.0,
) -> CriticalPoint:
    """Locate the point where the entropy's minimum and maximum in the
    coupling merge into an inflection: dS/dalpha = d2S/dalpha2 = 0.

    Nested 1-D solves: for each rate, bisect the curvature to its zero
    crossing in the coupling box (the slope is maximal there); then bisect
    the slope at that crossing over the rate.  Below the critical rate the
    slope between minimum and maximum is positive, above it negative.
    """

    def alpha_star(r):
        g = lambda a: entropy_alpha_curvature(r, a)
        bracket = _first_sign_change(g, alpha_lo, alpha_hi)
        if bracket is None:
            return None
        return _bisect(g, bracket[0], bracket[1])

    def peak_slope(r):
        a = alpha_star(r)
        if a is not None:
            return entropy_alpha_slope(r, a)
        # curvature has no zero in the box: the slope has no interior
        # maximum, so its sign is decided by a coarse scan
        return max(
            entropy_alpha_slope(r, a) for a in np.linspace(alpha_lo, alpha_hi, 33)
        )

    if peak_slope(r_lo) * peak_slope(r_hi) >= 0:
        raise SolverError(
            "no slope sign change over the rate interval: the inflection "
            f"point is not bracketed by ({r_lo}, {r_hi})"
        )
    r_c = _bisect(peak_slope, r_lo, r_hi, iters=60)
    a_c = alpha_star(r_c)
    if a_c is None:
        raise SolverError("curvature zero vanished at the critical rate")
    residuals = (
        abs(entropy_alpha_slope(r_c, a_c)),
        abs(entropy_alpha_curvature(r_c, a_c)),
    )
    return CriticalPoint(r_c=r_c, alpha_c=a_c, residuals=residuals)


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


def standardized_deviations(estimate, exact: np.ndarray, floor: float = STDERR_FLOOR):
    """Per-entry |estimate - exact| / stderr, real and imaginary separately.

    Entries whose standard error is at or below ``floor`` are deterministic
    up to round-off; they standardize to zero when the deviation is itself
    below the floor and to infinity otherwise.
    """

    def z(dev, err):
        out = dev / np.maximum(err, floor)
        out[(err <= floor) & (dev <= floor)] = 0.0
        out[(err <= floor) & (dev > floor)] = np.inf
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
    density matrix at rescaled time t (or to the stationary one)."""
    sys = twospin.quantum_system(p)
    t_phys = t / p.omega
    cfg = TrajectoryConfig(n_traj=n_traj, master_seed=seed, t_final=t_phys, rate=p.r)
    estimate = estimate_density(sys, cfg)
    if against == "reset":
        exact = reset_density(sys, ResetSpec(p.r), t_phys)
    elif against == "ness":
        exact = ness_density(sys, ResetSpec(p.r))
    else:
        raise ValueError(f"against must be 'reset' or 'ness', got {against!r}")
    z_re, z_im = standardized_deviations(estimate, exact)
    worst = float(max(z_re.max(), z_im.max()))
    return McValidationReport(
        max_std_dev=worst,
        threshold=threshold,
        passed=worst <= threshold,
        n_traj=n_traj,
        t=t,
        compared_to=against,
    )
