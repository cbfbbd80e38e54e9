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
from probederand.metrics import METHODS, EvalConfig
from probederand.randomness import DEFAULT_SEED, STREAM_KMEANS, substream

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
    still goes through ``dbscan``."""
    bursts = [
        Burst(i, bytes([2, 0, 0, 0, 0, i]), (10.0 * (i % 3), 0.0, 0.0), (1, 6, 11), f"dev{i % 3}")
        for i in range(12)
    ]
    tracer = load_tracer().Tracer()
    with tracer.installed(probederand):
        for method in METHODS:
            probederand.cli.run_protocol(
                bursts, EvalConfig(d=1), DbscanConfig(min_pts=2), KmeansConfig(), method, 1
            )
    spans = tracer.records()
    names = [s["name"] for s in spans]
    for name in ("clustering.two_stage_cluster", "clustering.ie_only_cluster"):
        runs = [s for s in spans if s["name"] == name]
        assert len(runs) == 2  # p = 1, 2 with d = 1
        assert all(names[s["parent"]] == "metrics.run_protocol" for s in runs)
    assert "clustering.dbscan" in names
