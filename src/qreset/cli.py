"""Command-line front end.

Subcommands
-----------
ness         stationary observables at one parameter point (two-spin flags
             or a generic Hamiltonian/state pair in the interchange format)
sweep        stationary observables over a (rate, coupling) grid
timeseries   finite-time entropy (and fidelity) at fixed parameters
optimize     maximize stationary concurrence over the reset rate
critical     entropy inflection point in the (rate, coupling) plane
peak-r       maximize finite-time entropy over the reset rate
mc-validate  Monte Carlo trajectory check of the exact engine

Parameters are either dimensionless (--R, --alpha; unit transverse field,
rescaled time) or physical (--omega, --j, --r; all three together) -- the
two styles are mutually exclusive.  Grids use lo:hi:n or lo:hi:n:log.

Generic Hamiltonian/state input uses a JSON interchange document:

    {"dim": 4, "matrix": [[re, im], [re, im], ...]}

with dim*dim [real, imaginary] pairs in row-major order; documents are
validated on load (square, finite; Hermitian for Hamiltonians; Hermitian,
PSD, unit trace for density matrices).

Exit codes: 0 success, 2 Monte Carlo mismatch (mc-validate only), 3 solver
failure, 4 configuration or I/O error, a grid too large to allocate included.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .observables import (
    concurrence_stack,
    fidelity_factor_stack,
    purity_stack,
    von_neumann_entropy,
)
from .reset_core import ResetSpec, SubsystemSplit, ness_density, partial_trace
from .serialize import load_quantum_system, write_json, write_table
from .sweep import (
    ALL_OBSERVABLES,
    SolverError,
    SweepGrid,
    find_entropy_peak_rate,
    find_inflection,
    mc_validate,
    optimize_concurrence,
    sweep_records,
    timeseries,
)
from .twospin import TwoSpinParams

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; remap to the config code.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _parse_grid(spec: str, name: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ValueError(f"{name} must look like lo:hi:n or lo:hi:n:log, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"cannot parse {name} spec {spec!r}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi or n < 1:
        raise ValueError(f"{name} needs finite lo <= hi and n >= 1, got {spec!r}")
    if len(parts) == 4:
        if lo <= 0:
            raise ValueError(f"{name}: logarithmic spacing needs lo > 0")
        return [float(v) for v in np.geomspace(lo, hi, n)]
    return [float(v) for v in np.linspace(lo, hi, n)]


def _parse_floats(spec: str, name: str, form: str) -> tuple[float, ...]:
    """The numbers of the flag ``name``'s ``spec``, shaped like ``form``
    (such as lo:hi); errors name the flag."""
    parts = spec.split(":")
    if len(parts) != form.count(":") + 1:
        raise ValueError(f"{name} must look like {form}, got {spec!r}")
    try:
        return tuple(float(x) for x in parts)
    except ValueError:
        raise ValueError(f"cannot parse {name} spec {spec!r}") from None


def _parse_split(spec: str) -> SubsystemSplit:
    try:
        dim_a, dim_b = (int(x) for x in spec.split(":"))
        return SubsystemSplit(dim_a, dim_b)
    except ValueError:
        raise ValueError("--split must look like dimA:dimB with positive integers, "
                         f"got {spec!r}") from None


def _parse_observables(spec: str, allowed=ALL_OBSERVABLES) -> tuple[str, ...]:
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    bad = set(names) - set(allowed)
    if bad or not names:
        raise ValueError(f"observables must be from {allowed}, got {spec!r}")
    return names


def _add_param_flags(sp):
    sp.add_argument("--R", type=float, default=None,
                    help="dimensionless reset rate r/omega")
    sp.add_argument("--alpha", type=float, default=None,
                    help="dimensionless coupling j/omega (default 0)")
    sp.add_argument("--omega", type=float, default=None, help="transverse field")
    sp.add_argument("--j", type=float, default=None, help="ferromagnetic coupling")
    sp.add_argument("--r", type=float, default=None, help="reset rate")


def _resolve_params(args) -> TwoSpinParams:
    dimless = args.R is not None or args.alpha is not None
    physical = args.omega is not None or args.j is not None or args.r is not None
    if dimless and physical:
        raise ValueError("--R/--alpha and --omega/--j/--r are mutually exclusive")
    if physical:
        if args.omega is None or args.j is None or args.r is None:
            raise ValueError("physical parameters need all of --omega, --j, --r")
        return TwoSpinParams(omega=args.omega, j=args.j, r=args.r)
    if args.R is None:
        raise ValueError("missing parameters: give --R [--alpha] or --omega --j --r")
    alpha = args.alpha if args.alpha is not None else 0.0
    return TwoSpinParams.from_dimensionless(args.R, alpha)


def _emit(path, write, data, *options) -> None:
    """``write(data, stream, *options)`` to stdout, or to the file ``path``,
    which is removed again if writing fails and this call created it (a
    path that existed, such as /dev/null, is never removed)."""
    if path is None or path == "-":
        write(data, sys.stdout, *options)
        return
    created = not os.path.lexists(path)
    f = open(path, "w", newline="")
    try:
        with f:
            write(data, f, *options)
    except BaseException:
        if created:
            os.remove(path)
        raise


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ness(args) -> int:
    if args.hamiltonian or args.rho0:
        if not (args.hamiltonian and args.rho0):
            raise ValueError("generic mode needs both --hamiltonian and --rho0")
        if args.r is None or args.r <= 0:
            raise ValueError("generic mode needs a positive --r")
        two_spin = [flag for flag, value in (("--R", args.R), ("--alpha", args.alpha),
                                             ("--omega", args.omega), ("--j", args.j),
                                             ("--format", args.format),
                                             ("--observables", args.observables))
                    if value is not None]
        if two_spin:
            raise ValueError(f"{', '.join(two_spin)}: two-spin flags have no effect "
                             "with --hamiltonian and --rho0")
        split = None if args.split is None else _parse_split(args.split)
        sys_ = load_quantum_system(args.hamiltonian, args.rho0)
        if split is not None and split.dim_a * split.dim_b != sys_.dim:
            raise ValueError(f"--split {args.split!r} does not split dimension {sys_.dim}")
        # sys_ validated rho0 when it was built, and the stationary state is
        # rho0 (Hermitian, PSD, unit trace) in the energy basis times a PSD
        # kernel with unit diagonal, hermitized: it is not validated again
        rho = ness_density(sys_, ResetSpec(args.r))
        pairs = [
            ("dim", sys_.dim),
            ("rate", float(args.r)),
            ("purity", float(purity_stack(rho))),
            ("fidelity_rho0", float(fidelity_factor_stack(rho, sys_.rho0_factor))),
        ]
        if split is not None:
            reduced = partial_trace(rho, split, "A")
            pairs.append(("entropy_subsystem_a", von_neumann_entropy(reduced)))
        if sys_.dim == 4:
            pairs.append(("concurrence", float(concurrence_stack(rho)[0])))
        pairs.append(("ness_matrix", rho))
        _emit(args.out, write_json, pairs)
        return EXIT_OK

    if args.split is not None:
        raise ValueError("--split needs the generic mode's --hamiltonian and --rho0")
    p = _resolve_params(args)
    if p.r <= 0:
        raise ValueError("stationary observables need a positive reset rate")
    observables = (ALL_OBSERVABLES if args.observables is None
                   else _parse_observables(args.observables))
    grid = SweepGrid(r_values=(p.R,), alpha_values=(p.alpha,), observables=observables)
    _emit(args.out, write_table, sweep_records(grid), args.format or "csv")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid = SweepGrid(
        r_values=tuple(_parse_grid(args.grid_r, "--grid-r")),
        alpha_values=tuple(_parse_grid(args.grid_alpha, "--grid-alpha")),
        observables=_parse_observables(args.observables),
    )
    # --threads has no effect, but a bad value is an error
    if args.threads is not None and args.threads < 1:
        raise ValueError("--threads must be >= 1")
    _emit(args.out, write_table, sweep_records(grid), args.format)
    return EXIT_OK


def _cmd_timeseries(args) -> int:
    p = _resolve_params(args)
    t_values = _parse_grid(args.grid_t, "--grid-t")
    observables = _parse_observables(args.observables, allowed=("entropy", "fidelity"))
    _emit(args.out, write_table, timeseries(p, t_values, observables), args.format)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    lo, hi = _parse_floats(args.r_bounds, "--r-bounds", "lo:hi")
    res = optimize_concurrence(args.alpha, lo, hi, tol=args.tol)
    _emit(args.out, write_json, [
        ("alpha", float(args.alpha)),
        ("r_star", res.x),
        ("c_star", res.value),
        ("flag", res.flag),
    ])
    return EXIT_OK


def _cmd_critical(args) -> int:
    box = _parse_floats(args.box, "--box", "rlo:rhi:alo:ahi")
    try:
        cp = find_inflection(*box)
    except ValueError as exc:
        raise ValueError(f"--box {args.box!r}: {exc}") from None
    _emit(args.out, write_json, [
        ("r_c", cp.r_c),
        ("alpha_c", cp.alpha_c),
        ("residual_slope", cp.residuals[0]),
        ("residual_curvature", cp.residuals[1]),
    ])
    return EXIT_OK


def _cmd_peak_r(args) -> int:
    lo, hi = _parse_floats(args.r_bounds, "--r-bounds", "lo:hi")
    alpha = args.alpha if args.alpha is not None else 0.0
    res = find_entropy_peak_rate(args.t, alpha, lo, hi, tol=args.tol)
    _emit(args.out, write_json, [
        ("t", float(args.t)),
        ("alpha", float(alpha)),
        ("r_star", res.x),
        ("s_star", res.value),
        ("flag", res.flag),
    ])
    return EXIT_OK


def _cmd_mc_validate(args) -> int:
    p = _resolve_params(args)
    report = mc_validate(
        p,
        t=args.t,
        n_traj=args.ntraj,
        seed=args.seed,
        against=args.against,
        threshold=args.threshold,
    )
    _emit(args.out, write_json, [
        ("R", p.R),
        ("alpha", p.alpha),
        ("t", report.t),
        ("n_traj", report.n_traj),
        ("compared_to", report.compared_to),
        ("max_std_dev", report.max_std_dev),
        ("threshold", report.threshold),
        ("passed", report.passed),
    ])
    return EXIT_OK if report.passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qreset", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    tol_help = ("tolerance on the rate (default 1e-8); below about 1e-8 relative to "
                "r_star the objective is flat to round-off, and the result is only as "
                "good as that round-off allows")

    def common_output(sp, formats=True):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if formats:
            sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    sp = sub.add_parser("ness", parents=[], help="stationary observables at a point")
    _add_param_flags(sp)
    sp.add_argument("--observables", default=None,
                    help="two-spin mode only (default: all four)")
    sp.add_argument("--hamiltonian", default=None,
                    help="interchange file with a generic Hamiltonian")
    sp.add_argument("--rho0", default=None,
                    help="interchange file with the initial density matrix")
    sp.add_argument("--split", default=None,
                    help="dimA:dimB bipartition for the subsystem entropy "
                         "(generic mode only)")
    common_output(sp)
    # no default: the generic mode rejects a --format it cannot honour,
    # and the two-spin mode falls back to csv
    sp.set_defaults(func=_cmd_ness, format=None)

    sp = sub.add_parser("sweep", help="grid sweep of stationary observables")
    sp.add_argument("--grid-r", required=True, help="lo:hi:n[:log]")
    sp.add_argument("--grid-alpha", required=True, help="lo:hi:n[:log]")
    sp.add_argument("--observables", default=",".join(ALL_OBSERVABLES))
    sp.add_argument("--threads", type=int, default=None,
                    help="validated (>= 1) but without effect")
    common_output(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("timeseries", help="finite-time entropy/fidelity")
    _add_param_flags(sp)
    sp.add_argument("--grid-t", required=True, help="lo:hi:n[:log], rescaled time")
    sp.add_argument("--observables", default="entropy")
    common_output(sp)
    sp.set_defaults(func=_cmd_timeseries)

    sp = sub.add_parser("optimize", help="maximize concurrence over the rate")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--r-bounds", required=True, help="lo:hi")
    sp.add_argument("--tol", type=float, default=1e-8, help=tol_help)
    common_output(sp, formats=False)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("critical", help="entropy inflection point")
    sp.add_argument("--box", default="0.05:0.3:0.8:2.0", help="rlo:rhi:alo:ahi")
    common_output(sp, formats=False)
    sp.set_defaults(func=_cmd_critical)

    sp = sub.add_parser("peak-r", help="maximize finite-time entropy over the rate")
    sp.add_argument("--t", type=float, required=True, help="rescaled time")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--r-bounds", required=True, help="lo:hi")
    sp.add_argument("--tol", type=float, default=1e-8, help=tol_help)
    common_output(sp, formats=False)
    sp.set_defaults(func=_cmd_peak_r)

    sp = sub.add_parser("mc-validate", help="trajectory check of the engine")
    _add_param_flags(sp)
    sp.add_argument("--t", type=float, required=True, help="rescaled time")
    sp.add_argument("--ntraj", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--against", choices=("reset", "ness"), default="reset")
    sp.add_argument("--threshold", type=float, default=5.0)
    common_output(sp, formats=False)
    sp.set_defaults(func=_cmd_mc_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: parsing leaves it unchanged, and building it
    # costs about as much as a small job
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    # json.JSONDecodeError is a ValueError; MemoryError is a grid numpy refuses
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
