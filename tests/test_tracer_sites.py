"""The benchmark tracer (``perfbench/tracer.py``) hooks named package
attributes; renaming or deleting one would break ``perfbench/run.py
--trace 1``. These tests load the tracer by path and check its hooks."""

import importlib.util
from pathlib import Path

import numpy as np

import probederand
import probederand.cli  # noqa: F401  (the tracer looks up probederand.cli)
from probederand.clustering import DbscanConfig, KmeansConfig
from probederand.features import Burst
from probederand.metrics import EvalConfig
from probederand.randomness import DEFAULT_SEED, STREAM_KMEANS, substream

from oracles import plain_spherical_kmeans

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_resolves():
    for module_name, attr, _ in load_tracer().SITES:
        module = getattr(probederand, module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_spherical_kmeans_history_is_counted():
    tracer = load_tracer().Tracer()
    with tracer.installed(probederand):
        probederand.clustering.spherical_kmeans(
            np.eye(3) + 0.1, 2, substream(DEFAULT_SEED, STREAM_KMEANS)
        )
    (span,) = [s for s in tracer.records() if s["name"] == "clustering.spherical_kmeans"]
    assert span["counts"]["iterations"] > 0


def test_protocol_runs_are_traced():
    """Each protocol run's clustering call is a child of ``run_protocol``
    (the spans behind ``metrics.cluster_run_ms``), and the IE-only path
    still goes through ``dbscan``, once per draw."""
    bursts = [
        Burst(i, bytes([2, 0, 0, 0, 0, i]), (10.0 * (i % 3), 0.0, 0.0), (1, 6, 11), f"dev{i % 3}")
        for i in range(12)
    ]
    tracer = load_tracer().Tracer()
    with tracer.installed(probederand):
        probederand.cli.run_protocol(
            bursts, EvalConfig(d=1), DbscanConfig(min_pts=2), KmeansConfig(), 1
        )
    spans = tracer.records()
    names = [s["name"] for s in spans]
    for name in ("clustering.two_stage_cluster", "clustering.ie_only_cluster"):
        runs = [s for s in spans if s["name"] == name]
        assert len(runs) == 2  # p = 1, 2 with d = 1
        assert all(names[s["parent"]] == "metrics.run_protocol" for s in runs)
    assert names.count("clustering.dbscan") == names.count("clustering.dbscan_labels") == 2


def test_protocol_iterations_count_every_restart(monkeypatch):
    """Pools recur across draws and their Lloyd runs are memoised, but a
    memo hit still adds its trace to ``history``: the traced protocol
    counts the iterations of running every restart in full."""
    bursts = [
        Burst(i, bytes([2, 0, 0, 0, 0, i]), (10.0 * (i % 6 // 2), 0.0, 0.0),
              ((1, 6, 11), (11, 6, 1), (6, 1, 11, 1))[i % 3], f"dev{i % 6}")
        for i in range(36)
    ]
    args = (bursts, EvalConfig(d=3), DbscanConfig(min_pts=2), KmeansConfig(), 1)
    tracer = load_tracer().Tracer()
    with tracer.installed(probederand):
        traced = probederand.cli.run_protocol(*args)
    spans = [s for s in tracer.records() if s["name"] == "clustering.spherical_kmeans"]

    plain_traces = []

    def plain(rows, k, rng, history=None, pool=None):
        history = [] if history is None else history
        result = plain_spherical_kmeans(rows, k, rng, history)
        plain_traces.append(history)
        return result

    monkeypatch.setattr(probederand.clustering, "spherical_kmeans", plain)
    assert probederand.cli.run_protocol(*args) == traced
    assert len(spans) == len(plain_traces) > 0
    assert [s["counts"]["iterations"] for s in spans] == [
        sum(map(len, history)) for history in plain_traces
    ]
