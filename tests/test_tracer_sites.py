"""The benchmark tracer (``perfbench/tracer.py``) hooks named package
attributes; renaming or deleting one would break ``perfbench/run.py
--trace 1``. These tests load the tracer by path and check its hooks."""

import importlib.util
from pathlib import Path

import numpy as np

import probederand
import probederand.cli  # noqa: F401  (the tracer looks up probederand.cli)
from probederand.clustering import KmeansConfig

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
        probederand.clustering.spherical_kmeans(np.eye(3) + 0.1, 2, KmeansConfig())
    (span,) = [s for s in tracer.records() if s["name"] == "clustering.spherical_kmeans"]
    assert span["counts"]["iterations"] > 0
