"""The benchmark's tracer wraps `ratar` functions by name; the names must resolve.

`perfbench/tests` is outside the default test paths, so without this check a
renamed layer function would only show when the benchmark itself runs.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve(monkeypatch):
    layers = load_workloads(monkeypatch).LAYER_FUNCTIONS
    assert layers
    for module_name, path in layers:
        obj = importlib.import_module(f"ratar.{module_name}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"ratar.{module_name}.{path} does not exist"
        assert callable(obj), f"ratar.{module_name}.{path} is not callable"
