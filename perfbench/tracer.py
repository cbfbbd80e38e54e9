"""Spans around calls into each layer of ``probederand``, recorded from
outside the package.

A public function is wrapped where the caller looks it up, e.g.
``clustering.spherical_kmeans`` (called from ``_refine_labels``) or
``metrics.two_stage_cluster`` (the name ``metrics`` imported). Spans are
kept in memory and written out once, at the end of the run; every
wrapped attribute is restored afterwards. A span's self time is its
duration minus its child spans and minus the tracer's own bookkeeping
done inside it.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

# (module holding the looked-up name, attribute, span name). The span is
# named after the module that defines the function: its layer.
SITES = (
    ("pcap", "read_capture", "pcap.read_capture"),
    ("cli", "read_dataset", "pcap.read_dataset"),
    ("cli", "group_bursts", "features.group_bursts"),
    ("cli", "write_feature_file", "features.write_feature_file"),
    ("cli", "ie_stability_violations", "features.ie_stability_violations"),
    ("cli", "read_feature_file", "features.read_feature_file"),
    ("clustering", "normalize_ie_matrix", "features.normalize_ie_matrix"),
    ("clustering", "pad_matrix", "features.pad_matrix"),
    ("cli", "two_stage_labelings", "clustering.two_stage_labelings"),
    ("clustering", "two_stage_labelings", "clustering.two_stage_labelings"),
    ("metrics", "two_stage_cluster", "clustering.two_stage_cluster"),
    ("cli", "ie_only_cluster", "clustering.ie_only_cluster"),
    ("metrics", "ie_only_cluster", "clustering.ie_only_cluster"),
    ("clustering", "dbscan", "clustering.dbscan"),
    ("clustering", "dbscan_labels", "clustering.dbscan_labels"),
    ("clustering", "average_pairwise_similarity", "clustering.average_pairwise_similarity"),
    ("clustering", "spherical_kmeans", "clustering.spherical_kmeans"),
    ("clustering", "elbow_select_k", "clustering.elbow_select_k"),
    ("cli", "write_labeling_file", "clustering.write_labeling_file"),
    ("cli", "run_protocol", "metrics.run_protocol"),
    ("cli", "tune_dbscan", "metrics.tune_dbscan"),
    ("metrics", "homogeneity_completeness_v", "metrics.homogeneity_completeness_v"),
    ("cli", "write_report_files", "metrics.write_report_files"),
    ("cli", "write_tuning_file", "metrics.write_tuning_file"),
)

LAYERS = ("pcap", "features", "clustering", "metrics", "cli")
# the layers whose spans are the wrapped calls; ``cli`` spans each whole
# CLI call, so its self time is whatever no wrapped call covers
CALL_LAYERS = LAYERS[:-1]
# the clustering call of one protocol run (either method)
PROTOCOL_RUN_SPANS = ("clustering.two_stage_cluster", "clustering.ie_only_cluster")


class Tracer:
    """In-memory span recorder.

    A span is ``[name, parent index, start ns, end ns, bookkeeping ns,
    counts, iteration]``; ``iteration`` tags every span opened until it
    changes.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iteration = 0
        self._stack: list[int] = []
        self._distinct_for: Optional[object] = None
        self._distinct = 0

    def records(self) -> list[dict]:
        return [
            {"name": s[0], "parent": s[1], "start_ns": s[2], "end_ns": s[3],
             "bookkeeping_ns": s[4], "counts": s[5], "iteration": s[6]}
            for s in self.spans
        ]

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0, 0, {}, self.iteration])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def _bookkeeping(self, started_ns: int) -> None:
        if self._stack:
            self.spans[self._stack[-1]][4] += time.perf_counter_ns() - started_ns

    def wrap(self, fn: Callable, name: str) -> Callable:
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = None
            counts: dict = {}
            if count is not None:
                started = time.perf_counter_ns()
                args, kwargs, finish = count(self, args, kwargs, counts)
                self._bookkeeping(started)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.spans[index][5] = counts
            if finish is not None:
                started = time.perf_counter_ns()
                finish(result)
                self._bookkeeping(started)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every site in ``package`` (the imported ``probederand``)
        and restore the original attributes on exit."""
        saved = []
        try:
            for module_name, attr, span_name in SITES:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            for module, attr, original in saved:
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} was not restored")

    def distinct_rows(self, rows) -> int:
        # _refine_labels passes one row matrix for every k of a pool
        if rows is not self._distinct_for:
            self._distinct_for = rows
            self._distinct = int(np.unique(np.asarray(rows), axis=0).shape[0])
        return self._distinct


def _count_read_capture(tracer, args, kwargs, counts):
    from probederand.pcap import ParseDiagnostics

    args = list(args)
    if len(args) > 2:
        diag = args[2]
    else:
        diag = kwargs.get("diagnostics")
    if diag is None:
        # read_capture makes a fresh one itself when given none
        diag = ParseDiagnostics()
        if len(args) > 2:
            args[2] = diag
        else:
            kwargs["diagnostics"] = diag
    before = (diag.records_total, diag.probe_requests)
    source = args[0]
    counts["bytes"] = len(source) if isinstance(source, (bytes, bytearray)) else 0

    def finish(_):
        counts["records"] = diag.records_total - before[0]
        counts["probe_requests"] = diag.probe_requests - before[1]

    return tuple(args), kwargs, finish


def _count_group_bursts(tracer, args, kwargs, counts):
    def finish(result):
        counts["bursts"] = len(result)

    return args, kwargs, finish


def _count_dbscan_labels(tracer, args, kwargs, counts):
    counts["points"] = int(np.asarray(args[0]).shape[0])
    return args, kwargs, None


def _count_spherical_kmeans(tracer, args, kwargs, counts):
    rows = args[0]
    k = args[1] if len(args) > 1 else kwargs["k"]
    counts["rows"] = int(np.asarray(rows).shape[0])
    counts["distinct_rows"] = tracer.distinct_rows(rows)
    counts["k_above_distinct"] = int(k > counts["distinct_rows"])
    history = kwargs.get("history") if len(args) < 5 else args[4]
    if history is None and len(args) < 5:
        history = []
        kwargs = dict(kwargs, history=history)

    def finish(_):
        counts["iterations"] = sum(len(trace) for trace in history or ())

    return args, kwargs, finish


COUNTERS = {
    "pcap.read_capture": _count_read_capture,
    "features.group_bursts": _count_group_bursts,
    "clustering.dbscan_labels": _count_dbscan_labels,
    "clustering.spherical_kmeans": _count_spherical_kmeans,
}


def _tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of the usual percentiles that
    still has at least ten samples above it, or (0, 0) without one."""
    ordered = sorted(samples)
    best = (0.0, 0.0)
    for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
        rank = int(np.ceil(pct / 100.0 * len(ordered)))
        if len(ordered) - rank >= 10:
            best = (pct, ordered[max(rank - 1, 0)])
    return best


def layer_metrics(spans: list[dict], traced_walls: list[float], untraced_wall: float) -> dict:
    """Per-layer figures of a traced run, each the median over its
    traced iterations (``metrics.cluster_run_ms`` pools all of them)."""
    by_iteration: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_iteration.setdefault(span["iteration"], []).append(index)

    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]

    per_iteration = []
    run_ms: list[float] = []
    for iteration, indices in sorted(by_iteration.items()):
        figures: dict[str, float] = {}

        def add(key, value):
            figures[key] = figures.get(key, 0) + value

        for i in indices:
            span = spans[i]
            name = span["name"]
            duration = span["end_ns"] - span["start_ns"]
            self_s = (duration - child_ns[i] - span["bookkeeping_ns"]) / 1e9
            add(f"{name}.self_s", self_s)
            add(f"{name}.calls", 1)
            add(f"{name.split('.')[0]}.self_s", self_s)
            add("trace.bookkeeping_s", span["bookkeeping_ns"] / 1e9)
            for key, value in span["counts"].items():
                add(f"{name}.{key}", value)
            if name == "clustering.dbscan_labels":
                figures["clustering.dbscan_labels.max_points"] = max(
                    figures.get("clustering.dbscan_labels.max_points", 0),
                    span["counts"]["points"],
                )
            parent = span["parent"]
            if name in PROTOCOL_RUN_SPANS and spans[parent]["name"] == "metrics.run_protocol":
                run_ms.append(duration / 1e6)
        per_iteration.append(figures)

    names = sorted({key for figures in per_iteration for key in figures})
    medians = {
        key: statistics.median(figures.get(key, 0) for figures in per_iteration)
        for key in names
    }
    wall = statistics.median(traced_walls)

    def get(key):
        return medians.get(key, 0)

    rows = get("clustering.spherical_kmeans.rows")
    records = get("pcap.read_capture.records")
    result = {
        f"{layer}.self_s": get(f"{layer}.self_s") for layer in LAYERS
    }
    for _, _, name in SITES:
        result[f"{name}.self_s"] = get(f"{name}.self_s")
    for command in ("ingest", "cluster", "evaluate", "tune"):
        result[f"cli.{command}.self_s"] = get(f"cli.{command}.self_s")
    tail_pct, tail_value = _tail(run_ms)
    result.update(
        {
            "pcap.records": records,
            "pcap.bytes": get("pcap.read_capture.bytes"),
            "pcap.probe_ratio": get("pcap.read_capture.probe_requests") / records
            if records else 0.0,
            "features.bursts": get("features.group_bursts.bursts"),
            "clustering.dbscan_labels.calls": get("clustering.dbscan_labels.calls"),
            "clustering.dbscan_labels.points": get("clustering.dbscan_labels.points"),
            "clustering.dbscan_labels.max_points": get("clustering.dbscan_labels.max_points"),
            "clustering.spherical_kmeans.calls": get("clustering.spherical_kmeans.calls"),
            "clustering.spherical_kmeans.rows": rows,
            "clustering.elbow_select_k.calls": get("clustering.elbow_select_k.calls"),
            "clustering.kmeans.iterations": get("clustering.spherical_kmeans.iterations"),
            "clustering.kmeans.distinct_row_ratio":
                get("clustering.spherical_kmeans.distinct_rows") / rows if rows else 0.0,
            "clustering.kmeans.calls_k_above_distinct":
                get("clustering.spherical_kmeans.k_above_distinct"),
            "metrics.homogeneity_completeness_v.calls":
                get("metrics.homogeneity_completeness_v.calls"),
            "metrics.cluster_run_ms.p50": statistics.median(run_ms) if run_ms else 0.0,
            "metrics.cluster_run_ms.tail": tail_value,
            "metrics.cluster_run_ms.tail_pct": tail_pct,
            "metrics.cluster_run_ms.samples": len(run_ms),
            "trace.wall_s": wall,
            "trace.bookkeeping_s": get("trace.bookkeeping_s"),
            "trace.coverage_ratio": sum(get(f"{layer}.self_s") for layer in CALL_LAYERS) / wall,
            "trace.overhead_ratio": wall / untraced_wall,
        }
    )
    return result
