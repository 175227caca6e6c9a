"""Machine-speed calibration for timings on a shared host.

On a host shared with other tenants the speed of a core drifts by tens of
percent, in stretches of seconds to minutes, which would swamp the
differences between commits.  The worker therefore runs a calibration
kernel (fixed work of the kinds qreset does, but no qreset code)
just before every job, in as many threads as the job uses: a job with
--threads 2 loses far more than a single-threaded one when another tenant
holds the second core.  A job's time is then scaled by
REFERENCE_S / (median of the kernel times around the job): it reads as the
time the job would take on the reference machine in its usual state.  Over
sets of runs on the shared host, the median gave steadier job times than the
lower quartile or the minimum of the same kernel times.  A change to
qreset cannot change the kernel, so a slower or faster qreset still shows
in full.

The scaling corrects a slower core, not a core taken away: when more
processes want to run than there are cores, a 0.2 s job waits in the run
queue for a share of its wall time while the 1.6 ms kernels mostly run
whole, and the scaled wall time of that job grew by 40% under two busy
processes beside the worker.  Single-threaded jobs and kernels are
therefore timed by the CPU time of their thread, which leaves the waiting
out; on an idle machine the two differ by 0.2%.

The kernel is interpreter work, small and medium numpy linear algebra,
float formatting and JSON.  It also tracks the scalar two-spin solvers of
the curves workload more closely than scalar pure-Python work does, so
every workload uses it.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# bound at import, so the tracer's numpy.linalg wrappers never slow the kernel
from numpy.linalg import eigh, eigvalsh

# Median kernel time on the reference machine (shared 2-core x86_64
# host, CPython 3.11, numpy 2.4, single-threaded BLAS), by the number of
# threads it runs in.
REFERENCE_S = {1: 1.6e-3, 2: 3.3e-3}
# Before each job the kernel runs for this share of the previous job's time
# (at least once), so long jobs get as steady a speed estimate as short ones.
SHARE = 0.1
# A job's scale factor uses at least this many kernel times, from the jobs
# nearest to it (a second or two of running on every workload).
MIN_SAMPLES = 120

_rng = np.random.default_rng(20240817)
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_SMALL = _SMALL + _SMALL.conj().T
_MEDIUM = _rng.standard_normal((48, 48))
_MEDIUM = _MEDIUM + _MEDIUM.T
_PAIRS = [[float(x), float(y)] for x, y in _rng.standard_normal((150, 2))]


def _work() -> float:
    acc, table = 0.0, {}
    for i in range(1200):
        table[i % 97] = acc
        acc += (i * 0.5) % 7
    for _ in range(40):
        w, v = eigh(_SMALL)
        acc += float(np.abs((v * w) @ v.conj().T).sum())
    acc += float(eigvalsh(_MEDIUM)[0])
    text = json.dumps([[f"{x:.17g}", f"{y:.17g}"] for x, y in _PAIRS])
    return acc + len(json.loads(text))


def kernel(threads: int = 1) -> float:
    """Run the calibration work once in each of ``threads`` threads at the
    same time, as a job with --threads does.  Returns the CPU time of the
    calling thread for one thread, as single-threaded jobs are timed (see
    run.py), and the wall time for more."""
    if threads == 1:
        c0 = time.thread_time()
        _work()
        return time.thread_time() - c0
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(_work) for _ in range(threads)]:
            future.result()
    return time.perf_counter() - t0


def sample(budget_s: float, threads: int = 1) -> list[float]:
    """Kernel times from runs of the kernel for about ``budget_s`` seconds."""
    times = [kernel(threads)]
    while sum(times) < budget_s:
        times.append(kernel(threads))
    return times


def speed_reference(kernel_times: list[float], threads: int = 1) -> float:
    """REFERENCE_S over the median of ``kernel_times``."""
    return REFERENCE_S[threads] / statistics.median(kernel_times)


def scale_factors(kernel_times: list[list[float]], threads: list[int]) -> list[float]:
    """Per job, the speed_reference of the kernel times around that job.

    ``kernel_times[i]`` ran just before job i with the job's thread count.
    Among the jobs with that thread count, the kernels of the job and of the
    next one bracket it; neighbours further out are added until there are
    MIN_SAMPLES times.
    """
    factors = [0.0] * len(kernel_times)
    for count in set(threads):
        jobs = [i for i, c in enumerate(threads) if c == count]
        n = len(jobs)
        for k, i in enumerate(jobs):
            near = [t for j in jobs[k:k + 2] for t in kernel_times[j]]
            lo, hi = k - 1, k + 2
            while len(near) < MIN_SAMPLES and (lo >= 0 or hi < n):
                for m in (lo, hi):
                    if 0 <= m < n:
                        near.extend(kernel_times[jobs[m]])
                lo, hi = lo - 1, hi + 1
            factors[i] = speed_reference(near, count)
    return factors
