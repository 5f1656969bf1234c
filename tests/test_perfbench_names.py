"""The benchmark's tracer wraps `ratar` functions by name; the names must resolve,
and on the shrunk workloads every function a workload requires must record calls.

`perfbench/tests` checks the same on workload processes it starts; the checks
here run in process, so a renamed or bypassed layer function shows in seconds.
`perfbench/` is outside the package, so its modules load by path.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ratar import data, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    """perfbench/<name>.py as the module `name`, which its siblings import."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up by name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    return load("workloads", monkeypatch)


def test_layer_functions_resolve(monkeypatch):
    layers = load_workloads(monkeypatch).LAYER_FUNCTIONS
    assert layers
    for module_name, path in layers:
        obj = importlib.import_module(f"ratar.{module_name}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"ratar.{module_name}.{path} does not exist"
        assert callable(obj), f"ratar.{module_name}.{path} is not callable"


@pytest.mark.parametrize("name", ["retrieve_wide", "ablate_c07"])
def test_tracer_records_every_required_function(name, tmp_path, monkeypatch):
    """One smoke run of the workload under the tracer, loaded from CSV as the
    benchmark worker loads it: every required function records a call, and
    retrieval compares pairs and refinement makes entries."""
    wl = load_workloads(monkeypatch).get(name, smoke=True)
    tracer = load("tracer", monkeypatch).Tracer(name)
    path = str(tmp_path / f"{name}.csv")
    data.save_dataset_csv(wl.panel(1), path)
    tracer.install()
    try:
        ds = data.load_dataset(path)
        getattr(pipeline, wl.entry)(wl.config(max(ds.years)), dataset=ds)
    finally:
        tracer.uninstall()
    seen = {span[2] for span in tracer.spans}
    assert [f for f in wl.required_functions() if f not in seen] == []
    assert tracer.counts["pairs"] > 0 and tracer.counts["entries"] > 0
