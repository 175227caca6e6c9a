"""Runs one workload's jobs closed-loop in a fresh process.

Usage: python3 worker.py PLAN.json RESULT.json

Each job is ``qreset.cli.main(argv)`` in this process, one after another,
each preceded by runs of the calibration kernel (calibrate.py).  A job
records its wall time and the CPU time of the thread that ran it.
Whole cycles of the plan run until ``seconds`` have passed and at least
``min_cycles`` cycles are done.  The first successful output of each job
key is kept for the oracle; later outputs of the same key must match it
byte for byte and are then deleted.

With ``trace`` set, the loop first runs untraced for a third of the time
(the tail needs no job count here), then the same cycles again with the
tracer installed; the spans are saved next to the result.  qreset is
imported from ``src`` of the checkout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import calibrate

# A job running longer than this counts as failed (timed out).
JOB_TIMEOUT_S = 60.0


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.  VmHWM restarts at exec;
    ru_maxrss would also count the parent's memory copied by fork."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Runner:
    def __init__(self, cli, plan: dict, outdir: str):
        self.cli = cli
        self.plan = plan
        self.outdir = outdir
        self.kept: set[str] = set()
        self.tracer = None
        self.last_elapsed = 0.0

    def run_job(self, job: dict, job_id: int) -> dict:
        key = job["key"]
        first = key not in self.kept
        out = os.path.join(self.outdir, key if first else key + ".again")
        argv = [out if a == "{out}" else a for a in job["argv"]]
        if self.tracer is not None:
            self.tracer.job_id = job_id
        error = None
        threads = job.get("threads", 1)
        kernels = calibrate.sample(calibrate.SHARE * self.last_elapsed, threads)
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash fails the job, not the run
            traceback.print_exc()
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        cpu = time.thread_time() - c0
        self.last_elapsed = elapsed
        if error is None and rc != 0:
            error = f"exit code {rc}"
        if error is None and elapsed > JOB_TIMEOUT_S:
            error = f"timed out ({elapsed:.1f} s > {JOB_TIMEOUT_S} s)"
        size = os.path.getsize(out) if os.path.exists(out) else 0
        if error is None and not first:
            with open(out, "rb") as again, open(os.path.join(self.outdir, key), "rb") as kept:
                if again.read() != kept.read():
                    error = "output differs from an earlier run of the same job"
            os.remove(out)
        if error is None and first:
            self.kept.add(key)
        return {"key": key, "s": elapsed, "cpu_s": cpu, "error": error, "bytes": size,
                "items": job["items"], "threads": threads, "kernels": kernels}

    def run_phase(self, seconds: float = 0.0, min_cycles: int = 1,
                  cycles: int | None = None) -> dict:
        """Run whole cycles for ``seconds`` and at least ``min_cycles``, or
        exactly ``cycles`` cycles."""
        pool = self.plan["cycles"]
        jobs, done = [], 0
        t0 = time.perf_counter()
        while True:
            if cycles is not None and done >= cycles:
                break
            if cycles is None and done >= min_cycles and (
                    time.perf_counter() - t0 >= seconds):
                break
            for job in pool[done % len(pool)]:
                jobs.append(self.run_job(job, len(jobs)))
            done += 1
        wall = time.perf_counter() - t0
        return {"jobs": jobs, "wall_s": wall, "cycles": done,
                "rss_kb": peak_rss_kb()}


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path) as f:
        plan = json.load(f)
    import qreset.cli as cli

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"qreset was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    outdir = os.path.join(os.path.dirname(result_path), "out")
    os.makedirs(outdir, exist_ok=True)
    runner = Runner(cli, plan, outdir)
    result = {}
    if plan["trace"]:
        import tracer as tracing

        result["untraced"] = runner.run_phase(seconds=plan["seconds"] / 3)
        runner.tracer = tracing.Tracer()
        runner.tracer.install()
        try:
            result["traced"] = runner.run_phase(cycles=result["untraced"]["cycles"])
        finally:
            runner.tracer.uninstall()
        result["counters"] = runner.tracer.counters
        runner.tracer.save(os.path.join(os.path.dirname(result_path), "spans.npz"))
    else:
        result["untraced"] = runner.run_phase(plan["seconds"], plan["min_cycles"])
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
