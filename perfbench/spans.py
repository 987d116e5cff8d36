"""Spans around themepath's layer boundaries, recorded from outside the package.

``traced(tracer)`` temporarily replaces each public layer function listed
in ``TARGETS`` with a wrapper that opens a span (name, start, end, parent)
and updates counters.  Every module of the package that holds the function
under any name gets the wrapper, so calls through ``from .x import f``
bindings are traced too.  Spans stay in memory; ``Tracer.dump`` writes
them out once the run is over.

A span's self time is its duration minus the time its child spans cover.
Summed per layer that gives ``<layer>.busy_s``; the run's wall time minus
all top-level spans is ``pipeline.self_s``, so the layers and the pipeline
account for the whole run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time

# (module, attribute, span name); the layer is the span name up to its first dot.
TARGETS = [
    ("themepath.chunking", "chunk_document", "chunking.chunk_document"),
    ("themepath.embeddings", "embed_batch", "embeddings.embed_batch"),
    ("themepath.embeddings", "EmbeddingCache.get", "embeddings.cache_get"),
    ("themepath.embeddings", "EmbeddingCache.put", "embeddings.cache_put"),
    ("themepath.transport", "post_json", "transport.post_json"),
    ("themepath.clustering", "choose_k", "clustering.choose_k"),
    ("themepath.clustering", "kmeans", "clustering.kmeans"),
    ("themepath.clustering", "representatives", "clustering.representatives"),
    ("themepath.markov", "build_transition_matrix", "markov.build_transition_matrix"),
    ("themepath.pathfinding", "solve_dp", "pathfinding.solve_dp"),
    ("themepath.pathfinding", "solve_greedy", "pathfinding.solve_greedy"),
    ("themepath.summarize", "summarize_cluster", "summarize.summarize_cluster"),
    ("themepath.summarize", "aggregate_final", "summarize.aggregate_final"),
    ("themepath.artifact", "save_artifact", "artifact.save_artifact"),
]

# Sub-steps whose whole duration, children included, is reported on its own.
STEP_METRICS = {
    "embeddings.cache_get": "embeddings.cache_get_s",
    "embeddings.cache_put": "embeddings.cache_put_s",
    "clustering.representatives": "clustering.reps_s",
    "summarize.aggregate_final": "summarize.aggregate_s",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, delta: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def set(self, name: str, value: float) -> None:
        self.counters[name] = value

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent})
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self time, sub-step durations and the unaccounted pipeline time."""
        out: dict[str, float] = {}

        def add(name: str, value: float) -> None:
            out[name] = out.get(name, 0.0) + value

        top_level = 0.0
        for span, self_s in zip(self.spans, self.self_times()):
            duration = span["end"] - span["start"]
            add(span["name"].split(".", 1)[0] + ".busy_s", self_s)
            if span["parent"] is None:
                top_level += duration
            if span["name"] in STEP_METRICS:
                add(STEP_METRICS[span["name"]], duration)
        out["pipeline.self_s"] = wall_s - top_level
        return out

    def dump(self, path: str) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counters": self.counters}, fh, indent=1)


def _observe(tracer: Tracer, name: str, call: inspect.BoundArguments, result) -> None:
    """Counters read off a traced call's arguments and result."""
    args = call.arguments
    if name == "chunking.chunk_document":
        tracer.count("chunking.chunks", len(result))
    elif name == "embeddings.embed_batch":
        tracer.count("embeddings.texts", len(args["texts"]))
    elif name == "embeddings.cache_get":
        tracer.count("embeddings.cache_misses" if result is None else "embeddings.cache_hits")
    elif name == "transport.post_json":
        tracer.count("transport.calls")
    elif name == "clustering.kmeans":
        tracer.set("clustering.k", result.k)
        tracer.set("clustering.dim", result.centroids.shape[1])
        tracer.count("clustering.iterations", len(result.inertia_history))
    elif name.startswith("pathfinding.solve_"):
        matrix = args["matrix"]
        tracer.set("pathfinding.k", matrix.k)
        table_bytes = (1 << matrix.k) * matrix.k * 8 if name == "pathfinding.solve_dp" else 0
        tracer.set("pathfinding.table_mb", table_bytes / 1e6)
        order = result.order
        tracer.set("pathfinding.zero_edges", sum(1 for a, b in zip(order, order[1:]) if matrix.probs[a, b] == 0.0))
    elif name.startswith("summarize."):
        tracer.count("summarize.calls")
    elif name == "artifact.save_artifact":
        tracer.set("artifact.bytes", os.path.getsize(args["path"]))


def _wrap(tracer: Tracer, name: str, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        _observe(tracer, name, signature.bind(*args, **kwargs), result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every TARGETS function through tracer for the duration of the block."""
    restore = []
    try:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = getattr(owner, method)
                setattr(owner, method, _wrap(tracer, span_name, original))
                restore.append((owner, method, original))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, span_name, original)
            for name, mod in list(sys.modules.items()):
                if name != "themepath" and not name.startswith("themepath."):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        restore.append((mod, binding, original))
        yield tracer
    finally:
        for owner, binding, original in reversed(restore):
            setattr(owner, binding, original)
