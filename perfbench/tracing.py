"""Spans recorded around calls into bilevelbench's public functions.

Nothing in ``src/`` is instrumented.  :func:`installed` replaces, for the
duration of a ``with`` block, the module attributes through which the
library calls its own layers (``Sample.generator``, the five
``StochasticOracle`` methods, the metric evaluator, ``sgd_dd``, the run
functions, the verify solvers, and trace encoding and writing) with wrappers
that record a span each.  Patching the class rather than handing one problem
a proxy oracle also reaches the oracles of problems built inside a run.

A span is ``(name, start_ns, end_ns, parent, run, work)``: ``parent`` is the
index of the enclosing span on the same thread (-1 at the top), ``run`` the
benchmark operation it belongs to, and ``work`` a size used to normalize
its duration (iterations, steps, rows, bytes).  Spans stay in memory, one
buffer per thread, until :meth:`Tracer.columns` gathers them.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

ORACLES = ("grad_x_F", "grad_y_F", "grad_y_G", "hvp_xy_G", "hvp_yy_G")
_RUNNERS = ("slip_run", "masoba_run", "double_loop_run", "ttsa_run")

_now = time.perf_counter_ns


class _Buffer:
    __slots__ = ("name", "start", "end", "parent", "run", "work", "stack")

    def __init__(self):
        self.name, self.parent, self.run = array("i"), array("q"), array("i")
        self.start, self.end, self.work = array("q"), array("q"), array("q")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.run = 0
        self.metadata: list[dict] = []   # run_experiment metadata, in order

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            with self._lock:
                i = self._ids.setdefault(name, len(self.names))
                if i == len(self.names):
                    self.names.append(name)
        return i

    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _append(self, buf, name, start, end, work) -> int:
        buf.name.append(self._id(name))
        buf.start.append(start)
        buf.end.append(end)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.run.append(self.run)
        buf.work.append(work)
        return len(buf.name) - 1

    def open(self, name: str, work: int = 0) -> int:
        buf = self._buf()
        idx = self._append(buf, name, _now(), 0, work)
        buf.stack.append(idx)
        return idx

    def close(self, idx: int, work: int | None = None) -> None:
        buf = self._buf()
        buf.end[idx] = _now()
        if work is not None:
            buf.work[idx] = work
        buf.stack.pop()

    def leaf(self, name: str, start: int, work: int = 0) -> None:
        self._append(self._buf(), name, start, _now(), work)

    def wrap(self, name: str, fn, work=None):
        """``fn`` inside a span; ``work(args, kwargs)`` sizes the span."""
        def wrapped(*args, **kwargs):
            idx = self.open(name, work(args, kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        wrapped.__wrapped__ = fn
        return wrapped

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as arrays; ``parent`` indexes the concatenated arrays."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "run", "work")}
        offset = 0
        for buf in self._buffers:
            n = len(buf.name)
            parent = np.frombuffer(buf.parent, dtype=np.int64, count=n).copy()
            parent[parent >= 0] += offset
            cols["parent"].append(parent)
            for k in ("name", "start", "end", "run", "work"):
                cols[k].append(np.frombuffer(getattr(buf, k),
                                             dtype=np.int32 if k in ("name", "run")
                                             else np.int64, count=n))
            offset += n
        return {k: (np.concatenate(v) if v else np.zeros(0, dtype=np.int64))
                for k, v in cols.items()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


class _TimedGenerator:
    """A generator whose first ``standard_normal`` call ends the draw span."""

    def __init__(self, tracer: Tracer, gen, start: int):
        self._tracer, self._gen, self._start = tracer, gen, start

    def standard_normal(self, *args, **kwargs):
        out = self._gen.standard_normal(*args, **kwargs)
        self._tracer.leaf("samples.draw", self._start, out.size)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


@contextmanager
def installed(tracer: Tracer):
    """Record spans for every layer while the block runs."""
    from bilevelbench import algorithms, harness, problem, samples, trace, verify

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    generator = samples.Sample.generator

    def timed_generator(self, *args, **kwargs):
        start = _now()
        return _TimedGenerator(tracer, generator(self, *args, **kwargs), start)

    patch(samples.Sample, "generator", timed_generator)
    for name in ORACLES:
        patch(problem.StochasticOracle, name,
              tracer.wrap(f"problem.{name}", getattr(problem.StochasticOracle, name)))

    def timed_metrics(factory):
        def make(prob):
            return tracer.wrap("algorithms.metrics", factory(prob))
        return make

    for module in (algorithms, harness):
        patch(module, "default_metrics", timed_metrics(module.default_metrics))
    # sgd_dd(problem, x, y0, alpha, n_steps, seed): one span per call
    patch(algorithms, "sgd_dd", tracer.wrap(
        "algorithms.sgd_dd", algorithms.sgd_dd,
        work=lambda a, k: a[4] if len(a) > 4 else k["n_steps"]))
    # every runner takes (problem, schedule, ...): the span's work is T
    for name in _RUNNERS:
        patch(harness, name, tracer.wrap(
            "algorithms.run", getattr(harness, name), work=lambda a, k: a[1].T))
    patch(verify, "inner_solve_exact",
          tracer.wrap("verify.inner_solve", verify.inner_solve_exact))
    patch(verify, "solve_linear_system_exact",
          tracer.wrap("verify.linear_solve", verify.solve_linear_system_exact))
    patch(trace, "trace_to_csv", tracer.wrap(
        "trace.encode", trace.trace_to_csv, work=lambda a, k: len(a[0].records)))
    write = harness.write_trace

    def timed_write(path, tr):
        idx = tracer.open("trace.write")
        try:
            write(path, tr)
        finally:
            tracer.close(idx, os.path.getsize(path))

    patch(harness, "write_trace", timed_write)
    run_experiment = harness.run_experiment

    def recorded_run_experiment(*args, **kwargs):
        result = run_experiment(*args, **kwargs)
        tracer.metadata.append(result.metadata)
        return result

    patch(harness, "run_experiment", recorded_run_experiment)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _median(values) -> float | None:
    values = np.asarray(values, dtype=float)
    return float(np.median(values)) if values.size else None


def layer_metrics(cols: dict[str, np.ndarray], names: list[str]) -> dict:
    """Per-layer numbers from the spans: median times and per-operation counts.

    A time is ``None`` where the layer recorded no span.  Each count is a
    list with one entry per traced operation.
    """
    ids = {n: i for i, n in enumerate(names)}
    dur = (cols["end"] - cols["start"]).astype(float)
    child = np.bincount(cols["parent"][cols["parent"] >= 0],
                        weights=dur[cols["parent"] >= 0], minlength=dur.size)
    runs = np.unique(cols["run"])

    def mask(*span_names: str) -> np.ndarray:
        wanted = [ids[n] for n in span_names if n in ids]
        return np.isin(cols["name"], wanted)

    def count(m: np.ndarray, values: np.ndarray | None = None) -> list[int]:
        values = np.ones(dur.size) if values is None else values
        return [int(values[m & (cols["run"] == r)].sum()) for r in runs]

    out: dict = {"times_us": {}, "counts": {}}
    times = out["times_us"]
    counts = out["counts"]

    m = mask("samples.draw")
    times["samples.draw"] = _median(dur[m] / 1e3)
    counts["samples.draws"] = count(m)
    for name in ORACLES:
        times[f"problem.{name}"] = _median(dur[mask(f"problem.{name}")] / 1e3)
    counts["problem.calls"] = count(mask(*(f"problem.{n}" for n in ORACLES)))

    m = mask("algorithms.run")
    times["algorithms.self"] = _median(
        (dur[m] - child[m]) / np.maximum(cols["work"][m], 1) / 1e3)
    times["algorithms.metrics"] = _median(dur[mask("algorithms.metrics")] / 1e3)
    m = mask("algorithms.sgd_dd") & (cols["work"] > 0)
    times["algorithms.warm_step"] = _median(dur[m] / cols["work"][m] / 1e3)

    times["verify.inner_solve"] = _median(dur[mask("verify.inner_solve")] / 1e3)
    times["verify.linear_solve"] = _median(dur[mask("verify.linear_solve")] / 1e3)
    counts["verify.solves"] = count(mask("verify.inner_solve", "verify.linear_solve"))

    m = mask("trace.write")
    times["trace.write"] = _median(dur[m] / 1e3)
    counts["trace.bytes"] = count(m, cols["work"].astype(float))
    m = mask("trace.encode") & (cols["work"] > 0)
    times["trace.encode_per_row"] = _median(dur[m] / cols["work"][m] / 1e3)
    out["spans"] = int(dur.size)
    return out
