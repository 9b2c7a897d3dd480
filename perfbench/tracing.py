"""Span recorder and per-layer tracer for the traced benchmark run.

The layers are the modules of the ``mtbounds`` package. ``LayerTracer``
rebinds every public function of each layer, in every ``mtbounds.*``
namespace that holds it, to a wrapper that opens a span around the call;
``uninstall`` puts the originals back. Nothing in the package changes.

Spans stay in memory until the run ends. A span's exclusive time is its
duration minus the durations of its direct children, and a layer's self time
is the sum of the exclusive times of its spans. That equals the time inside
the layer's outermost spans minus the child spans in other layers, while a
layer re-entered below another layer is still charged for its own part.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("matrices", "constants", "lp", "procedures", "simulation", "fileio", "cli")

# Totals over the traced phase. ``*.calls`` counts every call into a layer's
# public functions, nested ones too (fdp_sd_matrix calls fdp_sd_aux per row);
# ``matrices.bytes_built`` counts n*n*8 per outermost call that returns a matrix.
PER_LAYER_METRICS = (
    ("lp.self_s", "s"), ("lp.solve_s", "s"), ("lp.solves", "count"),
    ("lp.iterations", "count"), ("lp.non_optimal", "count"),
    ("lp.cache_hits", "count"), ("lp.cache_misses", "count"),
    ("lp.cache_hit_ratio", "ratio"), ("lp.cache_s", "s"),
    ("matrices.self_s", "s"), ("matrices.calls", "count"),
    ("matrices.bytes_built", "bytes"), ("matrices.bound_vector_calls", "count"),
    ("constants.self_s", "s"), ("constants.calls", "count"),
    ("procedures.self_s", "s"), ("procedures.step_s", "s"),
    ("procedures.adjusted_s", "s"), ("procedures.hypotheses", "count"),
    ("simulation.self_s", "s"), ("simulation.replications", "count"),
    ("simulation.reps_per_s", "1/s"), ("simulation.bitgens_created", "count"),
    ("simulation.thread_speedup", "ratio"), ("simulation.dropped_procedures", "count"),
    ("fileio.self_s", "s"), ("fileio.bytes_read", "bytes"), ("fileio.bytes_written", "bytes"),
    ("cli.self_s", "s"), ("cli.calls", "count"), ("cli.nonzero_exits", "count"),
    ("trace.op_s", "s"), ("trace.overhead_ratio", "ratio"),
)


class Span:
    __slots__ = ("id", "parent", "op", "layer", "name", "start", "end", "facts")

    def __init__(self, id, parent, op, layer, name, start, end=None, facts=None):
        self.id = id
        self.parent = parent
        self.op = op
        self.layer = layer
        self.name = name
        self.start = start
        self.end = end
        self.facts = facts if facts is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans in call order; ``op`` is the id stamped on every span opened
    while the benchmark issues that op. Single-threaded by design: the traced
    phase runs every op on the calling thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op: int | None = None

    def open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, layer, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "layer", "name", "start_s", "end_s"])
            for s in self.spans:
                out.writerow([s.id, "" if s.parent is None else s.parent,
                              "" if s.op is None else s.op, s.layer, s.name,
                              f"{s.start:.9f}", f"{s.end:.9f}"])


def exclusive_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    excl = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            excl[s.parent] -= s.duration
    return excl


def self_times(spans: list[Span], key=lambda s: s.layer) -> dict:
    """Sum of exclusive times grouped by ``key`` (the layer by default)."""
    out: dict = defaultdict(float)
    for s, e in zip(spans, exclusive_times(spans)):
        out[key(s)] += e
    return dict(out)


# --- facts recorded at the boundary of a call -------------------------------

def _matrix_facts(args, kwargs, result):
    if hasattr(result, "entries") and hasattr(result, "spec"):
        return {"bytes": result.n * result.n * 8}
    return None


def _solve_facts(args, kwargs, result):
    status = getattr(result.status, "value", result.status)
    return {"iterations": int(result.iterations), "optimal": status == "optimal"}


def _step_facts(args, kwargs, result):
    return {"hypotheses": args[0].n}


def _study_facts(args, kwargs, result):
    return {"replications": result.config.reps, "dropped": len(result.failures)}


def _read_facts(args, kwargs, result):
    return {"read": os.path.getsize(args[0])}


def _write_facts(args, kwargs, result):
    return {"written": len(args[0].encode("utf-8"))}


def _main_facts(args, kwargs, result):
    return {"exit": result}


def _facts_hook(layer: str, name: str):
    if layer == "matrices":
        return _matrix_facts
    if layer == "fileio":
        return (_read_facts if name.startswith("read_")
                else _write_facts if name.startswith("write_") else None)
    return {
        ("lp", "solve"): _solve_facts,
        ("procedures", "step_up"): _step_facts,
        ("procedures", "step_down"): _step_facts,
        ("simulation", "run_study"): _study_facts,
        ("cli", "main"): _main_facts,
    }.get((layer, name))


class LayerTracer:
    """Installs span wrappers on the public functions of every layer and a
    counter on ``numpy.random.Philox`` constructions."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.bitgens = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        rec = self.recorder
        hook = _facts_hook(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = rec.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.facts["raised"] = type(exc).__name__
                raise
            finally:
                rec.close(span)
            if hook is not None:
                facts = hook(args, kwargs, result)
                if facts:
                    span.facts.update(facts)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mtbounds.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != "mtbounds" and not modname.startswith("mtbounds."):
                continue
            for name, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    self._saved.append((module, name, obj))
                    setattr(module, name, found[1])

        import numpy.random

        real, lock = numpy.random.Philox, threading.Lock()

        def counting_philox(*args, **kwargs):
            with lock:  # simulation workers may construct generators concurrently
                self.bitgens += 1
            return real(*args, **kwargs)

        self._saved.append((numpy.random, "Philox", real))
        numpy.random.Philox = counting_philox

    def uninstall(self) -> None:
        while self._saved:
            module, name, obj = self._saved.pop()
            setattr(module, name, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_metrics(spans: list[Span], bitgens: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase (see ``PER_LAYER_METRICS``);
    ``simulation.thread_speedup`` and ``trace.overhead_ratio`` are filled in
    by the caller, which measured them."""
    m = {name: 0 for name, _ in PER_LAYER_METRICS}
    excl = exclusive_times(spans)
    missed = set()  # solve_cached spans that ran the solver
    for s in spans:
        if s.layer == "lp" and s.name == "solve":
            up = s.parent
            while up is not None and not (spans[up].layer == "lp"
                                          and spans[up].name == "solve_cached"):
                up = spans[up].parent
            if up is not None:
                missed.add(up)
    study_s = 0.0
    for s, own in zip(spans, excl):
        layer, name, facts = s.layer, s.name, s.facts
        m[f"{layer}.self_s"] += own
        outer = s.parent is None or spans[s.parent].layer != layer
        if layer == "lp" and name == "solve":
            m["lp.solve_s"] += s.duration
            m["lp.solves"] += 1
            m["lp.iterations"] += facts.get("iterations", 0)
            m["lp.non_optimal"] += 0 if facts.get("optimal") else 1
        elif layer == "lp" and name == "solve_cached":
            m["lp.cache_s"] += own
            m["lp.cache_misses" if s.id in missed else "lp.cache_hits"] += 1
        elif layer == "matrices":
            m["matrices.calls"] += 1
            m["matrices.bound_vector_calls"] += name == "bound_vector"
            if outer:
                m["matrices.bytes_built"] += facts.get("bytes", 0)
        elif layer == "constants":
            m["constants.calls"] += 1
        elif layer == "procedures":
            if name in ("step_up", "step_down"):
                m["procedures.step_s"] += s.duration
                m["procedures.hypotheses"] += facts.get("hypotheses", 0)
            elif name == "adjusted_pvalues":
                m["procedures.adjusted_s"] += s.duration
        elif layer == "simulation" and name == "run_study":
            study_s += s.duration
            m["simulation.replications"] += facts.get("replications", 0)
            m["simulation.dropped_procedures"] += facts.get("dropped", 0)
        elif layer == "fileio":
            m["fileio.bytes_read"] += facts.get("read", 0)
            m["fileio.bytes_written"] += facts.get("written", 0)
        elif layer == "cli" and name == "main":
            m["cli.calls"] += 1
            m["cli.nonzero_exits"] += facts.get("exit", 1) != 0
        if s.parent is None:
            m["trace.op_s"] += s.duration
    lookups = m["lp.cache_hits"] + m["lp.cache_misses"]
    m["lp.cache_hit_ratio"] = m["lp.cache_hits"] / lookups if lookups else 0.0
    m["simulation.reps_per_s"] = m["simulation.replications"] / study_s if study_s else 0.0
    m["simulation.bitgens_created"] = bitgens
    return m
