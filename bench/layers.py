"""Per-layer trace of one in-process pipeline run, with no change to the program.

`traced` swaps each wrapped function for a timing shim at the name its caller
imports (`divisive.build_emst`, not `emst.build_emst`), runs the body, and
puts every original back. Spans stay in memory. A span's self time is its
duration minus that of its direct children, so the self times of all spans
add up exactly to the root span, the `run_pipeline` call.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


def _forest(args, kwargs, result) -> dict[str, int]:
    return {"model.forest_builds": 1, "model.edges_validated": len(result.edges)}


def _svg(args, kwargs, result) -> dict[str, int]:
    return {"svg.bytes": len(result.encode())}


# (module, attribute, self-time metric, counts taken from args and result).
# SpanningForest and Cluster are the `model` layer wherever they are built,
# since building one validates the whole edge set again.
WRAPS: list[tuple[str, str, str, Callable | None]] = [
    ("io", "read_points_csv", "io.read_s", lambda a, kw, r: {"io.rows": len(r.points)}),
    ("io", "emstrd", "divisive.self_s", None),
    ("io", "emstucc", "meta.self_s", None),
    ("io", "write_outputs", "io.write_s",
     lambda a, kw, r: {"io.bytes_written": sum(p.stat().st_size for p in r)}),
    ("io", "cluster_compactness", "metrics.compactness_s", None),
    ("io", "scatter_svg", "svg.render_s", _svg),
    ("io", "dendrogram_svg", "svg.render_s", _svg),
    ("divisive", "build_emst", "emst.build_s", lambda a, kw, r: {"emst.points": r.vertex_count}),
    ("divisive", "edge_statistics", "emst.stats_s", None),
    ("divisive", "SpanningForest", "model.forest_s", _forest),
    ("divisive", "Cluster", "model.forest_s", _forest),
    ("emst", "SpanningForest", "model.forest_s", _forest),
    ("divisive", "select_edge_to_remove", "divisive.select_s",
     lambda a, kw, r: {"divisive.select_calls": 1, "divisive.edges_scanned": len(a[0].edges)}),
    ("divisive", "path_distance_table", "metrics.path_table_s",
     lambda a, kw, r: {"metrics.path_table_cells": len(r.vertices) ** 2}),
    ("divisive", "center_and_radius", "metrics.center_s", None),
    ("divisive", "diameter_and_set", "metrics.center_s", None),
    ("divisive", "cluster_variance", "metrics.variance_s", None),
    ("meta", "build_emst", "meta.build_s", None),
    ("meta", "central_cluster", "meta.central_s", None),
]
# The root: run_pipeline's own self time is the rest of the io layer.
ROOT = ("cli", "run_pipeline", "io.write_s", None)

SELF_TIMES = sorted({w[2] for w in WRAPS})
COUNTS = [
    "io.rows", "io.bytes_written", "emst.points", "model.forest_builds",
    "model.edges_validated", "divisive.select_calls", "divisive.edges_scanned",
    "metrics.path_table_cells", "svg.bytes",
]


@dataclass
class Span:
    name: str
    metric: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn: Callable, name: str, metric: str, count: Callable | None) -> Callable:
        def shim(*args, **kwargs):
            span = Span(name, metric, self._open[-1] if self._open else -1, time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.counts = count(args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return shim


@contextmanager
def traced(tracer: Tracer, layers: bool) -> Iterator[None]:
    """Install shims on the root, and with `layers` on every layer function;
    restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, metric, count in [ROOT, *WRAPS] if layers else [ROOT]:
            module = importlib.import_module(f"emstclust.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, f"{module_name}.{attr}", metric, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def summarise(spans: list[Span]) -> dict[str, float]:
    """Self time per layer metric, summed counts, and the largest path table."""
    out: dict[str, float] = {name: 0.0 for name in SELF_TIMES}
    out.update({name: 0 for name in COUNTS})
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    largest = 0
    for span, children in zip(spans, child_time):
        out[span.metric] += span.end - span.start - children
        for name, value in span.counts.items():
            out[name] += value
        largest = max(largest, span.counts.get("metrics.path_table_cells", 0))
    out["metrics.table_mb"] = 8 * largest / 2**20
    edges = out["model.edges_validated"]
    out["model.validation_yield"] = (out["io.rows"] - 1) / edges if edges else 0.0
    return out


def span_records(spans: list[Span], round_id: int) -> list[dict]:
    return [
        {"round": round_id, "name": s.name, "parent": s.parent,
         "start": s.start, "end": s.end, "counts": s.counts}
        for s in spans
    ]
