"""Span tracing of qreset from outside the package, and the per-layer
metrics computed from the spans.

``Tracer.install`` wraps every public function and public method of the
eight layer modules, then rebinds each name that any qreset module (or the
package itself) imported with ``from .x import y`` so those calls are traced
too.  It also wraps ``argparse`` parsing in ``cli``, the thread pool and the
optimizer objective in ``sweep``, ``load_matrix`` byte counts in
``serialize``, and counts the ``numpy.linalg`` (eigh, eigvalsh, svd, norm)
and ``numpy.random.default_rng`` calls made from qreset modules.

A span is (name, start, end, parent span, job id, thread, error flag).
Spans stay in flat arrays in memory until ``save`` writes them out.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import inspect
import math
import os
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("cli", "sweep", "twospin", "reset_core", "observables", "cmatrix",
          "trajectories", "serialize")
LINALG = ("eigh", "eigvalsh", "svd", "norm")

# twospin entry points that are not closed forms
_NOT_CLOSED_FORM = {"twospin.hamiltonian", "twospin.quantum_system",
                    "twospin.concurrence_ness"}
_SOLVERS = {"sweep.optimize_concurrence", "sweep.find_entropy_peak_rate",
            "sweep.find_inflection"}
_FD_OBJECTIVES = {"sweep.entropy_alpha_slope", "sweep.entropy_alpha_curvature"}
_READERS = {"serialize.load_matrix", "serialize.load_quantum_system",
            "serialize.document_to_matrix", "serialize.parse_records_csv"}


def _from_qreset(depth: int = 2) -> bool:
    return sys._getframe(depth).f_globals.get("__name__", "").startswith("qreset.")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("i")
        self.thread = array("i")
        self.error = array("b")
        self.counters: dict[str, float] = {}
        self.job_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int) -> int:
        stack = self._stack()
        tid = threading.get_ident()
        # one lock keeps the parallel arrays aligned when pool threads trace
        with self._lock:
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.thread.append(self._threads.setdefault(tid, len(self._threads)))
            self.end.append(math.nan)
            self.error.append(0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()
        if failed:
            self.error[idx] = 1

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, fn, name: str):
        """``fn`` wrapped so each call records a span called ``name``."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(idx, failed)

        return traced

    def _child(self, fn, parent: int):
        """``fn`` run in a pool thread with ``parent`` as its enclosing span."""

        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, had, old in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _wrap_class(self, cls, prefix: str) -> None:
        # dataclasses are parameter records; their generated methods are not
        # layer entry points
        if dataclasses.is_dataclass(cls):
            return
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self.span(member, name))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.span(member.__func__, name)))

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qreset.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.span(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{attr}")
        serialize = modules["serialize"]
        wrapped[serialize.load_matrix] = self._counting_bytes(wrapped[serialize.load_matrix])
        for mod in (*modules.values(), sys.modules["qreset"]):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

        cli, sweep = modules["cli"], modules["sweep"]
        self._set(cli._Parser, "parse_args",
                  self.span(argparse.ArgumentParser.parse_args, "cli.parse_args"))
        self._set(sweep, "_bracketed_max", self._counting_objective(sweep._bracketed_max))
        self._set(sweep, "ThreadPoolExecutor", self._pool_class())
        for fn in LINALG:
            self._set(np.linalg, fn, self._counting_linalg(getattr(np.linalg, fn)))
        self._set(np.random, "default_rng", self._counting_rng(np.random.default_rng))

    def _counting_bytes(self, load):
        @functools.wraps(load)
        def counted(path):
            self.count("serialize.bytes_read", os.path.getsize(path))
            return load(path)

        return counted

    def _counting_objective(self, bracketed_max):
        @functools.wraps(bracketed_max)
        def counted(f, *args, **kwargs):
            def objective(x):
                self.count("sweep.objective_evals")
                return f(x)

            return bracketed_max(objective, *args, **kwargs)

        return counted

    def _counting_linalg(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not _from_qreset():
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.count("cmatrix.lapack_calls")
                self.count("cmatrix.lapack_s", elapsed)

        return counted

    def _counting_rng(self, default_rng):
        @functools.wraps(default_rng)
        def counted(*args, **kwargs):
            if _from_qreset():
                self.count("trajectories.rng_streams")
            return default_rng(*args, **kwargs)

        return counted

    def _pool_class(self):
        tracer = self

        def pool_map(pool, fn, *iterables, **kwargs):
            return list(ThreadPoolExecutor.map(pool, fn, *iterables, **kwargs))

        traced_map = self.span(pool_map, "sweep.pool_map")

        class TracedThreadPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else -1
                return super().submit(tracer._child(fn, parent), *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                return iter(traced_map(self, fn, *iterables, **kwargs))

        return TracedThreadPool

    # -- output -----------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int32),
            thread=np.frombuffer(self.thread, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.int8),
        )


# ---------------------------------------------------------------------------
# analysis

def load_spans(path: str) -> dict:
    with np.load(path) as f:
        return {k: f[k] for k in f.files}


def self_times(spans: dict) -> np.ndarray:
    """Self time of every span.

    A span's self intervals are its own interval minus the union of its
    children's intervals.  Where self intervals of several spans overlap in
    time (pool threads), that time is split equally among them, so the self
    times of all spans add up to the time covered by at least one span.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    n = len(start)
    has_children = np.zeros(n, dtype=bool)
    has_children[parent[parent >= 0]] = True
    a = [start[~has_children]]
    b = [end[~has_children]]
    owner = [np.flatnonzero(~has_children)]
    kids = np.argsort(parent, kind="stable")
    kids = kids[parent[kids] >= 0]
    bounds = np.flatnonzero(np.diff(parent[kids])) + 1
    pa, pb, po = [], [], []
    for group in np.split(kids, bounds) if len(kids) else []:
        p = int(parent[group[0]])
        cursor = start[p]
        for c in group:  # children are in start order
            if start[c] > cursor:
                pa.append(cursor)
                pb.append(start[c])
                po.append(p)
            cursor = max(cursor, end[c])
        if end[p] > cursor:
            pa.append(cursor)
            pb.append(end[p])
            po.append(p)
    a.append(np.array(pa, dtype=float))
    b.append(np.array(pb, dtype=float))
    owner.append(np.array(po, dtype=np.int64))
    a, b, owner = np.concatenate(a), np.concatenate(b), np.concatenate(owner)

    edges = np.unique(np.concatenate([a, b]))
    if len(edges) < 2:
        return np.zeros(n)
    active = (np.searchsorted(np.sort(a), edges[:-1], side="right")
              - np.searchsorted(np.sort(b), edges[:-1], side="right"))
    share = np.where(active > 0, np.diff(edges) / np.maximum(active, 1), 0.0)
    prefix = np.concatenate([[0.0], np.cumsum(share)])
    piece = prefix[np.searchsorted(edges, b)] - prefix[np.searchsorted(edges, a)]
    return np.bincount(owner, weights=piece, minlength=n)


def check_span_tree(spans: dict) -> list[str]:
    """Problems with the span tree: unclosed spans, parents that do not
    enclose their children or belong to another job, roots that are not
    ``cli.main`` calls."""
    start, end, parent, job = spans["start"], spans["end"], spans["parent"], spans["job"]
    names = spans["names"][spans["name"]]
    problems = []
    if not np.all(np.isfinite(end) & (end >= start)):
        problems.append("span with no end or ending before it starts")
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    if np.any(p >= child):
        problems.append("parent recorded after its child")
    if np.any((start[p] > start[child]) | (end[p] < end[child])):
        problems.append("child span outside its parent")
    if np.any(job[p] != job[child]):
        problems.append("child span in another job than its parent")
    if np.any(names[parent < 0] != "cli.main"):
        problems.append("root span that is not cli.main")
    return problems


def layer_metrics(spans: dict, counters: dict, items: int) -> dict:
    """Per-layer metrics as {name: (value, unit)} from one traced phase."""
    names = spans["names"][spans["name"]]
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    layer = np.array([n.split(".", 1)[0] for n in spans["names"]])[spans["name"]]
    per_item = 1.0 / max(items, 1)
    out = {}

    def calls(name):
        return int(np.count_nonzero(names == name))

    for L in LAYERS:
        mask = layer == L
        out[f"{L}.calls"] = (int(np.count_nonzero(mask)), "count")
        out[f"{L}.self_s"] = (float(own[mask].sum()), "s")
        out[f"{L}.errors"] = (int(np.count_nonzero(spans["error"][mask])), "count")

    as_c = calls("cmatrix.as_cmatrix")
    lapack = int(counters.get("cmatrix.lapack_calls", 0))
    out["cmatrix.as_cmatrix.calls"] = (as_c, "count")
    out["cmatrix.validations_per_item"] = (as_c * per_item, "count/item")
    out["cmatrix.lapack_calls"] = (lapack, "count")
    out["cmatrix.lapack_s"] = (float(counters.get("cmatrix.lapack_s", 0.0)), "s")
    out["cmatrix.lapack_calls_per_item"] = (lapack * per_item, "count/item")

    out["reset_core.systems_built"] = (calls("reset_core.QuantumSystem.__init__"), "count")
    out["reset_core.ness_density.calls"] = (calls("reset_core.ness_density"), "count")
    out["reset_core.reset_density.calls"] = (calls("reset_core.reset_density"), "count")
    out["observables.concurrence.self_s"] = (
        float(own[names == "observables.concurrence"].sum()), "s")
    out["observables.fidelity.self_s"] = (float(own[names == "observables.fidelity"].sum()), "s")

    closed = (layer == "twospin") & ~np.isin(names, list(_NOT_CLOSED_FORM)) & np.array(
        [n.count(".") == 1 for n in names], dtype=bool)
    out["twospin.closed_form.calls"] = (int(np.count_nonzero(closed)), "count")
    evals = int(counters.get("sweep.objective_evals", 0)) + int(
        np.count_nonzero(np.isin(names, list(_FD_OBJECTIVES))))
    solves = int(np.count_nonzero(np.isin(names, list(_SOLVERS))))
    out["sweep.objective_evals"] = (evals, "count")
    out["sweep.objective_evals_per_solve"] = (evals / solves if solves else 0.0, "count/solve")
    out["sweep.pool_s"] = (float(dur[names == "sweep.pool_map"].sum()), "s")

    streams = int(counters.get("trajectories.rng_streams", 0))
    out["trajectories.rng_streams"] = (streams, "count")
    out["trajectories.rng_streams_per_item"] = (streams * per_item, "count/item")
    out["trajectories.us_per_item"] = (
        float(dur[names == "trajectories.estimate_density"].sum()) * 1e6 * per_item, "us")

    parent_layer = np.where(spans["parent"] >= 0, layer[np.maximum(spans["parent"], 0)], "")
    top_serialize = (layer == "serialize") & (parent_layer != "serialize")
    reads = top_serialize & np.isin(names, list(_READERS))
    out["serialize.read_s"] = (float(dur[names == "serialize.load_matrix"].sum()), "s")
    out["serialize.bytes_read"] = (int(counters.get("serialize.bytes_read", 0)), "bytes")
    out["serialize.write_s"] = (float(dur[top_serialize & ~reads].sum()), "s")
    out["serialize.bytes_written"] = (int(counters.get("serialize.bytes_written", 0)), "bytes")
    out["serialize.records_written"] = (calls("serialize.RecordWriter.write"), "count")
    out["serialize.format_float.calls"] = (calls("serialize.format_float"), "count")

    parse = np.isin(names, ["cli.build_parser", "cli.parse_args"])
    out["cli.parse_s"] = (float(dur[parse].sum()), "s")
    return out
