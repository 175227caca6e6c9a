"""Seeded job plans for the four benchmark workloads.

A plan is a list of cycles; a cycle is a list of jobs.  The worker runs
whole cycles in order (wrapping round the list) until the run's time is up
and at least ``min_cycles`` cycles are done, so every run sees the same job
mix whatever the machine speed.  The seed changes the parameters of the jobs,
never the mix, so runs with different seeds measure the same work.

A job is a dict:

    key     unique name; repeats of a key must reproduce its output bytes
    argv    argument list for ``qreset.cli.main``; the string "{out}" marks
            where the worker puts the output path
    items   units of work the job completes (grid points, jobs,
            trajectories or systems, depending on the workload)
    threads threads the job runs qreset in (default 1)
    check   what the oracle needs to verify the output

Every input, including the Ising-chain interchange files, is written here
before the worker starts timing.
"""

from __future__ import annotations

import json
import os

import numpy as np

from oracle import (concurrence, ising_chain, ness_two_spin, product_state, reset_two_spin,
                    spin1_entropy)

WORKLOADS = ("plane-sweep", "curves", "mc-validate", "generic-ness")

# Distinct cycles generated per plan; later cycles repeat them.  A run of
# plane-sweep or mc-validate does 25 to 45 cycles, so each of their jobs
# repeats a dozen times or more and its median time (run.py) is steady, and
# the slowest job's median sets the tail.  Curves keeps 16 distinct cycles:
# its median job is an optimize job, and the median over 16 seeded
# optimizer problems depends less on the seed.
POOL_CYCLES = 2
CURVES_POOL_CYCLES = 16

# Statistical threshold for mc-validate jobs.  At 6 standard errors a
# correct engine fails one of the 32 compared components with probability
# about 6e-8 per job, so an unlucky seed cannot fail a run by chance.
MC_THRESHOLD = 6.0


def _fmt(x: float) -> str:
    return repr(float(x))


def plane_sweep(rng: np.random.Generator, tiny: bool) -> dict:
    """Strips of a log-R x linear-alpha plane, all four observables.

    A cycle holds five strips: CSV and JSONL alternate, and one strip in
    five runs with --threads 2 over half as many alpha rows.  On two shared
    cores a threaded job's time follows the scheduler and other tenants far
    more than a single-threaded one's, so the threaded strips are kept
    cheaper than the others: the median and the ten slowest jobs are then
    single-threaded strips, and the thread pool shows in items_per_s.  With
    half the jobs threaded the median would sit on the edge between the two
    groups and jump between them from run to run.
    """
    n_r, rows = (6, 2) if tiny else (40, 4)
    r_lo = float(10 ** rng.uniform(-2.3, -1.3))
    r_hi = float(10 ** rng.uniform(0.7, 1.3))
    a_hi = float(rng.uniform(3.0, 6.0))
    combos = [("csv", 1), ("jsonl", 1), ("csv", 1), ("jsonl", 1), ("csv", 2)]
    alphas = np.linspace(0.0, a_hi, POOL_CYCLES * len(combos) * rows)
    cycles = []
    for c in range(POOL_CYCLES):
        cycle = []
        for k, (fmt, threads) in enumerate(combos):
            s = len(combos) * c + k
            a0, a1 = float(alphas[s * rows]), float(alphas[s * rows + rows - 1])
            n_a = rows if threads == 1 else max(2, rows // 2)
            argv = [
                "sweep",
                "--grid-r", f"{_fmt(r_lo)}:{_fmt(r_hi)}:{n_r}:log",
                "--grid-alpha", f"{_fmt(a0)}:{_fmt(a1)}:{n_a}",
                "--format", fmt,
                "--out", "{out}",
            ]
            if threads > 1:
                argv[-2:-2] = ["--threads", str(threads)]
            cycle.append({
                "key": f"strip{s:03d}",
                "argv": argv,
                "threads": threads,
                "items": n_r * n_a,
                "check": {"kind": "sweep", "format": fmt, "r": [r_lo, r_hi, n_r],
                          "alpha": [a0, a1, n_a]},
            })
        cycles.append(cycle)
    return {"cycles": cycles, "min_cycles": 2 if tiny else 12, "item": "grid point"}


# qreset's default --box for `critical`
CRITICAL_BOX = [0.05, 0.3, 0.8, 2.0]


# r-bounds of the optimize and peak-r jobs
OPT_BOUNDS = (0.01, 10.0)
PEAK_BOUNDS = (0.001, 3.0)


def clear_interior_max(f, lo: float, hi: float) -> bool:
    """Whether f has one clear maximum inside [lo, hi]: the best of qreset's
    65 geometric probes is not an end point, the best of 1025 probes lies
    between that probe's neighbours, and the peak stands at least 1e-3 above
    both ends.  Parameters failing this would make the optimizer report a
    'boundary' result or pick between near-equal peaks."""
    coarse = np.geomspace(lo, hi, 65)
    fine = np.geomspace(lo, hi, 1025)
    values = f(fine)
    i = int(np.argmax(f(coarse)))
    best = fine[int(np.argmax(values))]
    return (0 < i < 64 and coarse[i - 1] < best < coarse[i + 1]
            and values.max() - max(values[0], values[-1]) > 1e-3)


def curves(rng: np.random.Generator, tiny: bool) -> dict:
    """One timeseries (entropy), one timeseries (entropy+fidelity), one
    optimize, one peak-r and one critical job per cycle.  Optimizer
    parameters are redrawn until the maximum is clearly interior."""
    n_e, n_ef = (11, 11) if tiny else (601, 401)
    cycles = []
    for c in range(CURVES_POOL_CYCLES):
        R1, a1 = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 3.0))
        R2, a2 = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 3.0))
        t1, t2 = float(rng.uniform(10.0, 40.0)), float(rng.uniform(10.0, 40.0))
        while True:
            a_opt = float(rng.uniform(3.0, 12.0))
            if clear_interior_max(lambda r: concurrence(ness_two_spin(r, a_opt)),
                                  *OPT_BOUNDS):
                break
        tol_opt = 10.0 ** -int(rng.integers(4, 7))
        while True:
            t_pk, a_pk = float(rng.uniform(3.0, 8.0)), float(rng.uniform(0.0, 0.5))
            if clear_interior_max(lambda r: spin1_entropy(reset_two_spin(r, a_pk, t_pk)),
                                  *PEAK_BOUNDS):
                break
        tol_pk = 10.0 ** -int(rng.integers(4, 7))
        cycle = [
            {"key": f"ts-e{c:02d}",
             "argv": ["timeseries", "--R", _fmt(R1), "--alpha", _fmt(a1),
                      "--grid-t", f"0:{_fmt(t1)}:{n_e}", "--observables", "entropy",
                      "--out", "{out}"],
             "check": {"kind": "timeseries", "R": R1, "alpha": a1, "t": [0.0, t1, n_e],
                       "observables": ["entropy"]}},
            {"key": f"ts-ef{c:02d}",
             "argv": ["timeseries", "--R", _fmt(R2), "--alpha", _fmt(a2),
                      "--grid-t", f"0:{_fmt(t2)}:{n_ef}",
                      "--observables", "entropy,fidelity", "--format", "jsonl",
                      "--out", "{out}"],
             "check": {"kind": "timeseries", "R": R2, "alpha": a2, "t": [0.0, t2, n_ef],
                       "observables": ["entropy", "fidelity"], "format": "jsonl"}},
            {"key": f"opt{c:02d}",
             "argv": ["optimize", "--alpha", _fmt(a_opt),
                      "--r-bounds", ":".join(_fmt(b) for b in OPT_BOUNDS),
                      "--tol", _fmt(tol_opt), "--out", "{out}"],
             "check": {"kind": "optimize", "alpha": a_opt, "bounds": list(OPT_BOUNDS),
                       "tol": tol_opt}},
            {"key": f"peak{c:02d}",
             "argv": ["peak-r", "--t", _fmt(t_pk), "--alpha", _fmt(a_pk),
                      "--r-bounds", ":".join(_fmt(b) for b in PEAK_BOUNDS),
                      "--tol", _fmt(tol_pk), "--out", "{out}"],
             "check": {"kind": "peak-r", "t": t_pk, "alpha": a_pk, "bounds": list(PEAK_BOUNDS),
                       "tol": tol_pk}},
            # the default box: the solver's cost depends on the box, and a
            # seeded box would make the tail depend on the seed
            {"key": f"crit{c:02d}",
             "argv": ["critical", "--out", "{out}"],
             "check": {"kind": "critical", "box": CRITICAL_BOX}},
        ]
        for job in cycle:
            job["items"] = 1
        cycles.append(cycle)
    return {"cycles": cycles, "min_cycles": 2 if tiny else 12, "item": "job"}


def mc_validate(rng: np.random.Generator, tiny: bool) -> dict:
    """Two mc-validate jobs against the finite-time state and one against
    the stationary state per cycle, at a fixed trajectory count."""
    ntraj = 200 if tiny else 4000
    cycles = []
    for c in range(POOL_CYCLES):
        cycle = []
        # reset, ness, reset: the median job stays inside one kind of job
        # even when the two kinds differ in cost
        for against in ("reset", "ness", "reset"):
            R = float(rng.uniform(0.2, 2.0))
            alpha = float(rng.uniform(0.0, 3.0))
            # against ness, R*t >= 12 leaves a transient below 1e-5, far
            # under the ~1e-2 standard error of 4000 trajectories
            t = float(rng.uniform(0.5, 5.0)) if against == "reset" else float(
                rng.uniform(12.0, 20.0) / R)
            seed = int(rng.integers(0, 2**31))
            cycle.append({
                "key": f"mc{c:02d}-{len(cycle)}-{against}",
                "argv": ["mc-validate", "--R", _fmt(R), "--alpha", _fmt(alpha),
                         "--t", _fmt(t), "--ntraj", str(ntraj), "--seed", str(seed),
                         "--against", against, "--threshold", _fmt(MC_THRESHOLD),
                         "--out", "{out}"],
                "items": ntraj,
                "check": {"kind": "mc-validate", "R": R, "alpha": alpha, "t": t,
                          "ntraj": ntraj, "against": against,
                          "threshold": MC_THRESHOLD},
            })
        cycles.append(cycle)
    return {"cycles": cycles, "min_cycles": 2 if tiny else 8, "item": "trajectory"}


# Chain lengths of one generic-ness cycle, one seeded system per length.
# L = 8 (d = 256) is three of the nine jobs so that the ten slowest jobs of
# any run with at least five cycles are d = 256 runs, and the median job is
# an L = 7 run.  The tail and the median are then each the median time of
# one job over three runs a cycle (run.py): with three distinct systems per
# length each had a third of the runs, and run-to-run spread on the shared
# host was twice as wide.
CHAIN_CYCLE = (4, 8, 7, 5, 8, 7, 6, 8, 7)
CHAIN_CYCLE_TINY = (3, 4)


def write_interchange(m: np.ndarray, path: str) -> None:
    doc = {"dim": int(m.shape[0]),
           "matrix": [[float(v.real), float(v.imag)] for v in m.reshape(-1)]}
    with open(path, "w") as f:
        json.dump(doc, f)


def generic_ness(rng: np.random.Generator, tiny: bool, workdir: str) -> dict:
    """Periodic transverse-field Ising chains with uniform seeded couplings
    (so translation and parity leave degenerate spectra) and a uniform
    seeded product state, through ``qreset ness --hamiltonian --rho0``.
    One system per chain length; the one cycle is repeated."""
    os.makedirs(workdir, exist_ok=True)
    lengths = CHAIN_CYCLE_TINY if tiny else CHAIN_CYCLE
    systems = {}
    for L in sorted(set(lengths)):
        J, h = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.3, 1.5))
        theta, phi = float(rng.uniform(0.2, 2.9)), float(rng.uniform(0.0, 2 * np.pi))
        r = float(rng.uniform(0.2, 2.0))
        key = f"chain-L{L}"
        h_path = os.path.join(workdir, f"{key}-h.json")
        rho_path = os.path.join(workdir, f"{key}-rho0.json")
        write_interchange(ising_chain(L, J, h), h_path)
        write_interchange(product_state(L, theta, phi), rho_path)
        split = [2 ** (L // 2), 2 ** (L - L // 2)]
        systems[L] = {
            "key": key,
            "argv": ["ness", "--hamiltonian", h_path, "--rho0", rho_path,
                     "--r", _fmt(r), "--split", f"{split[0]}:{split[1]}",
                     "--out", "{out}"],
            "items": 1,
            "check": {"kind": "generic-ness", "L": L, "J": J, "h": h,
                      "theta": theta, "phi": phi, "r": r, "split": split},
        }
    cycle = [systems[L] for L in lengths]
    return {"cycles": [cycle], "min_cycles": 2 if tiny else 5, "item": "system"}


def build_plan(workload: str, seed: int, workdir: str, tiny: bool = False) -> dict:
    """Generate the job plan of ``workload`` from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "plane-sweep":
        plan = plane_sweep(rng, tiny)
    elif workload == "curves":
        plan = curves(rng, tiny)
    elif workload == "mc-validate":
        plan = mc_validate(rng, tiny)
    elif workload == "generic-ness":
        plan = generic_ness(rng, tiny, os.path.join(workdir, "inputs"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
