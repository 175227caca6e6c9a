"""Benchmark of the qreset command line: real jobs, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: plane-sweep, curves, mc-validate, generic-ness (see
workloads.py and BENCHMARK.json for why each exists).  The seed generates
every input before timing starts.  A fresh worker process then runs the
jobs closed-loop, one client, each job a ``qreset.cli.main(argv)`` call
(worker.py); afterwards every distinct output is checked against plain
numpy references (oracle.py).

--trace 0 reports the end-to-end metrics:

    setup_s      median CPU time of a fresh interpreter that imports qreset.cli
    items_per_s  items of the jobs that passed, over the summed job times
    job_p50_s    median job time
    job_tail_s   the highest percentile with ten jobs beyond it
    peak_rss_mb  peak resident memory of the worker
    ok_ratio     jobs that passed over jobs attempted (1 - fail ratio)

A job's time in the two percentiles is the median time of all runs of the
same job (identical arguments) in the run: on a shared host a single run
of a job is spread by other tenants' load, and the tail of single runs
measured that load more than the jobs.  Both percentiles still count every
job run, so a slow kind of job sets the tail.

A single-threaded job's time is the CPU time of the thread that ran it,
a threaded job's its wall time.  Job times are scaled to the reference
machine's speed (calibrate.py); setup_s is the CPU time of the fresh
interpreter, scaled by bare interpreter starts (REFERENCE_START_S).  The
unscaled wall-clock figures are in the details line.  --trace 1 runs a
third of the time untraced, then the same cycles with the tracer installed
(tracer.py), and reports the per-layer metrics.  The last line of standard
output is the result object; the line before it holds the details
(environment, job counts behind each percentile, fail ratio, failures).
Results and spans of the latest run of each workload stay in .perfbench/.

--self-test runs every workload at its smallest size, traced, and checks
the outputs, the span tree, and that the layer self times add up to no more
than the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import calibrate
import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# Fresh interpreters timed per run for the set-up metrics (after one
# untimed start that compiles bytecode and warms the file cache), each
# after a bare interpreter start that gauges the machine's speed.
SETUP_RUNS = 21
# CPU time of a bare interpreter start (``python -c pass``) on the reference
# machine.  Start-up reads and unmarshals files and allocates, and its speed
# on the shared host follows other tenants' load differently from the
# calibration kernel's: over eight sets of 21 starts, the slowest set's
# median over the fastest's was 1.49 for the CPU time of an import of
# qreset.cli, 1.67 scaled by the kernel, and 1.09 scaled by bare starts
# taken between its own starts.  qreset cannot change a bare start, so a
# slower or faster import shows in full.
REFERENCE_START_S = 0.045
# The worker is killed after this long; the run then fails without a result.
WORKER_TIMEOUT_S = 150
# The slowest jobs beyond the tail percentile.
TAIL_JOBS_BEYOND = 10
# BLAS runs single-threaded: with --threads 2 jobs no job uses more threads
# than the two cores of the reference machine, and timings stay steady.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

IMPORT_SPLIT = (
    "import time\n"
    "t0 = time.process_time()\n"
    "import numpy\n"
    "t1 = time.process_time()\n"
    "import qreset.cli\n"
    "t2 = time.process_time()\n"
    "print(t1 - t0, t2 - t1)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(trace: bool) -> dict:
    """Fresh-interpreter start-up: CPU time of an interpreter that imports
    qreset.cli, or with ``trace`` the split into numpy and qreset imports,
    scaled by REFERENCE_START_S over the CPU time of bare starts."""
    env = child_env()
    code = IMPORT_SPLIT if trace else "import qreset.cli"

    def start(code: str) -> tuple[float, float, str]:
        t0, c0 = time.perf_counter(), children_cpu_s()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        return time.perf_counter() - t0, children_cpu_s() - c0, proc.stdout

    start(code)
    walls, cpus, bare, numpy_s, qreset_s = [], [], [], [], []
    for _ in range(SETUP_RUNS):
        bare.append(start("pass")[1])
        wall, cpu, stdout = start(code)
        walls.append(wall)
        cpus.append(cpu)
        if trace:
            a, b = stdout.split()
            numpy_s.append(float(a))
            qreset_s.append(float(b))
    scale = REFERENCE_START_S / statistics.median(bare)
    out = {"setup_s": statistics.median(cpus) * scale, "raw_setup_s": statistics.median(walls),
           "runs": SETUP_RUNS}
    if trace:
        out["import_numpy_s"] = statistics.median(numpy_s) * scale
        out["import_qreset_s"] = statistics.median(qreset_s) * scale
    return out


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_ENV,
        "machine": platform.machine(),
    }


def tail(times: list[float]) -> dict:
    """Highest percentile with TAIL_JOBS_BEYOND jobs beyond it."""
    n = len(times)
    if n <= TAIL_JOBS_BEYOND:
        raise RuntimeError(f"only {n} jobs ran; the tail needs more than {TAIL_JOBS_BEYOND}")
    return {"value": sorted(times)[n - TAIL_JOBS_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_JOBS_BEYOND) / n,
            "jobs": n, "jobs_beyond": TAIL_JOBS_BEYOND}


def job_costs(plan: dict, jobs: list, times: list[float]) -> tuple[list[float], int]:
    """Per job run, the median of ``times`` over the runs of jobs with the
    same arguments; and the number of distinct jobs."""
    argv = {job["key"]: json.dumps(job["argv"]) for cycle in plan["cycles"] for job in cycle}
    groups: dict[str, list[float]] = {}
    for job, t in zip(jobs, times):
        groups.setdefault(argv[job["key"]], []).append(t)
    medians = {k: statistics.median(v) for k, v in groups.items()}
    return [medians[argv[job["key"]]] for job in jobs], len(groups)


def check_outputs(plan: dict, outdir: str) -> dict[str, list[str]]:
    """Oracle problems of every job key that produced a kept output."""
    problems = {}
    for cycle in plan["cycles"]:
        for job in cycle:
            path = os.path.join(outdir, job["key"])
            if os.path.exists(path):
                with open(path) as f:
                    found = oracle.check_output(job["check"], f.read())
                if found:
                    problems[job["key"]] = found
    return problems


def failures(jobs: list, bad_keys: dict) -> list[str]:
    out = []
    for job in jobs:
        if job["error"] is not None:
            out.append(f"{job['key']}: {job['error']}")
        elif job["key"] in bad_keys:
            out.append(f"{job['key']}: {'; '.join(bad_keys[job['key']])}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Generate, run and check one workload; returns the result and details."""
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        plan = workloads.build_plan(workload, seed, workdir, tiny=tiny)
        plan.update(seconds=seconds, trace=trace, src=SRC)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as f:
            json.dump(plan, f)
        setup = measure_setup(trace)
        result_path = os.path.join(workdir, "result.json")
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path,
                        result_path], env=child_env(), cwd=ROOT, check=True,
                       timeout=WORKER_TIMEOUT_S)
        with open(result_path) as f:
            result = json.load(f)
        bad_keys = check_outputs(plan, os.path.join(workdir, "out"))
        report = summarize(plan, result, setup, bad_keys, workdir)
        if trace:
            shutil.copyfile(os.path.join(workdir, "spans.npz"),
                            os.path.join(WORK, f"spans-{workload}.npz"))
        with open(os.path.join(WORK, f"result-{workload}.json"), "w") as f:
            json.dump(report, f, indent=1)
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def scaled_times(phase: dict) -> list[float]:
    """Job times at reference machine speed (see calibrate.py): the thread
    CPU time of a single-threaded job, the wall time of a threaded one."""
    jobs = phase["jobs"]
    factors = calibrate.scale_factors([job["kernels"] for job in jobs],
                                      [job["threads"] for job in jobs])
    return [(job["cpu_s"] if job["threads"] == 1 else job["s"]) * f
            for job, f in zip(jobs, factors)]


def summarize(plan, result, setup, bad_keys, workdir) -> dict:
    phases = [result["untraced"]] + ([result["traced"]] if "traced" in result else [])
    jobs = [job for phase in phases for job in phase["jobs"]]
    failed = failures(jobs, bad_keys)
    details = {
        "workload": plan["workload"], "seed": plan["seed"], "seconds": plan["seconds"],
        "trace": plan["trace"], "item": plan["item"], "env": environment(),
        "fail_ratio": len(failed) / len(jobs), "failures": failed[:10],
    }
    untraced = result["untraced"]
    raw = [job["s"] for job in untraced["jobs"]]
    times = scaled_times(untraced)
    items = sum(job["items"] for job in untraced["jobs"]
                if job["error"] is None and job["key"] not in bad_keys)
    details.update(jobs=len(times), cycles=untraced["cycles"], items=items,
                   wall_s=untraced["wall_s"], job_s=sum(raw), scaled_job_s=sum(times))
    if not plan["trace"]:
        costs, distinct = job_costs(plan, untraced["jobs"], times)
        raw_costs, _ = job_costs(plan, untraced["jobs"], raw)
        t = tail(costs)
        details.update(
            p50={"jobs": len(costs)},
            tail={k: v for k, v in t.items() if k != "value"},
            distinct_jobs=distinct,
            setup_runs=setup["runs"],
            raw={"setup_s": setup["raw_setup_s"], "items_per_s": items / untraced["wall_s"],
                 "job_p50_s": statistics.median(raw_costs),
                 "job_tail_s": tail(raw_costs)["value"]},
        )
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "items_per_s": (items / sum(times), "items/s"),
            "job_p50_s": (statistics.median(costs), "s"),
            "job_tail_s": (t["value"], "s"),
            "peak_rss_mb": (untraced["rss_kb"] / 1024.0, "MB"),
            "ok_ratio": ((len(jobs) - len(failed)) / len(jobs), "ratio"),
        }
    else:
        traced = result["traced"]
        spans = tracer.load_spans(os.path.join(workdir, "spans.npz"))
        counters = dict(result["counters"])
        counters["serialize.bytes_written"] = sum(job["bytes"] for job in traced["jobs"])
        traced_items = sum(job["items"] for job in traced["jobs"])
        metrics = tracer.layer_metrics(spans, counters, traced_items)
        metrics["setup.import_numpy_s"] = (setup["import_numpy_s"], "s")
        metrics["setup.import_qreset_s"] = (setup["import_qreset_s"], "s")
        overhead = sum(scaled_times(traced)) / sum(times)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        details.update(
            traced_wall_s=traced["wall_s"], traced_items=traced_items,
            spans=int(len(spans["start"])),
            span_tree_problems=tracer.check_span_tree(spans),
            layer_self_s_total=sum(metrics[f"{L}.self_s"][0] for L in tracer.LAYERS),
        )
    return {
        "details": details,
        "result": {
            "correct": not failed,
            "attempted": len(jobs),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def self_test() -> int:
    """Smallest sizes, traced: outputs, span tree and self-time sum."""
    ok = True
    for workload in workloads.WORKLOADS:
        report = run_workload(workload, seed=1, seconds=0.2, trace=True, tiny=True)
        d, r = report["details"], report["result"]
        problems = list(d["failures"]) + list(d["span_tree_problems"])
        if d["layer_self_s_total"] > d["traced_wall_s"]:
            problems.append(f"layer self times {d['layer_self_s_total']:.6f} s exceed "
                            f"the traced wall time {d['traced_wall_s']:.6f} s")
        if r["metrics"]["cli.calls"]["value"] < 1:
            problems.append("no cli spans recorded")
        ok = ok and not problems
        print(f"{'PASS' if not problems else 'FAIL'} {workload}: {r['attempted']} jobs, "
              f"{d['spans']} spans, self {d['layer_self_s_total']:.4f} s <= "
              f"wall {d['traced_wall_s']:.4f} s")
        for p in problems:
            print(f"    {p}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qreset", "cli.py")):
        print(f"qreset sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report["details"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
