"""The benchmark's seed-1 prediction digests, pinned.

Each workload's seed-1 panel is generated, written to CSV and loaded back,
as `perfbench/run.py` does, and its entry point runs once through the
benchmark worker's own `Runner`, whose `check` hashes every variant, seed
and county prediction.  A change that moves any prediction's bits moves
its digest.  `perfbench/` is outside the package, so its modules load by
path.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from ratar.data import load_dataset, save_dataset_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DIGESTS = {
    "ablate_c07": "1b8bdc74e516066fc5170f5c1b1c7134c1b9e0ed7b9899474747f10c43fdfd36",
    "retrieve_wide": "d1dd1ca411b6f749223aabc41a6a6f4f811940c6324473e0120e9be43d8fd7f8",
    "finetune_county": "929d6495003f88efebf76f2908815e3593796cbb37e601db4f59d701f85677fb",
}


def load(name, monkeypatch):
    """perfbench/<name>.py as the module `name`, which its siblings import."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed1_digest(name, tmp_path, monkeypatch):
    workloads = load("workloads", monkeypatch)
    load("tracer", monkeypatch)
    worker = load("worker", monkeypatch)
    wl = workloads.get(name)
    path = str(tmp_path / f"{name}-seed1.csv")
    save_dataset_csv(wl.panel(1), path)
    ds = load_dataset(path)
    runner = worker.Runner(wl, wl.config(max(ds.years)), ds, host=None)
    sample = runner.call(sample_host=False)
    assert sample is not None, f"{name} raised; see the traceback on stderr"
    assert runner.totals["failed"] == 0
    assert sample.digest == DIGESTS[name]
