"""The functions the benchmark traces by name must exist.

``bench/run.py --trace 1`` refuses to run when a ``<name>.calls`` metric of
BENCHMARK.json names a function the package no longer has, so a rename or
a deletion there breaks the benchmark, not the package's own tests.  This
test resolves every such name the same way, from the package alone.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_names():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    return [m["name"][: -len(".calls")] for m in metrics if m["name"].endswith(".calls")]


def test_traced_functions_exist():
    names = traced_names()
    assert "simplicial.SimplicialComplex.link" in names
    assert "homology.total_betti_numbers" in names
    for name in names:
        module, *path = name.split(".")
        target = importlib.import_module(f"quadbalance.{module}")
        for attribute in path:
            assert hasattr(target, attribute), name
            target = getattr(target, attribute)
        assert callable(target), name
