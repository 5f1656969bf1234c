"""Tests of the benchmark itself, on shrunk workloads.

Run from the repository root:

    python -m pytest perfbench/tests -q

Each workload runs in `--smoke` size (same code paths, seconds each) through
the same `run.py` the benchmark uses.
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


OUT = BENCH / "out"


def run_bench(workload, trace, seed=3, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=str(root), capture_output=True, text=True, timeout=170)


def record(workload, trace, seed=3):
    """Last stdout line and full record of one smoke run."""
    proc = run_bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    full = json.loads((OUT / f"{workload}-smoke-seed{seed}-trace{trace}.json").read_text())
    return last, full


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_metric_has_a_target():
    targets = json.loads((BENCH / "targets.json").read_text())["layers"]
    layers = [t["layer"] for t in targets]
    known = set(workloads.WORKLOADS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for t in targets:
        for side in ("moves", "flat"):
            assert set(t[side]) <= known
            assert all(set(ms) <= e2e for ms in t[side].values())
    for m in SPEC["per_layer"]:
        assert any(m["name"].startswith(layer + ".") for layer in layers), m["name"]
    # a layer cannot stay flat where one of its own child rows moves
    for parent in targets:
        for child in targets:
            if not child["layer"].startswith(parent["layer"] + "."):
                continue
            for wl, metrics in parent["flat"].items():
                clash = set(metrics) & set(child["moves"].get(wl, ()))
                assert not clash, (parent["layer"], child["layer"], wl, clash)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_emits_every_metric_and_repeats(workload):
    last0, full0 = record(workload, 0)
    assert last0["correct"] and last0["failed"] == 0 and last0["attempted"] >= 1
    assert list(last0["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert last0["metrics"][m["name"]]["unit"] == m["unit"]
        assert last0["metrics"][m["name"]]["value"] > 0
    # every untraced call and set-up load sampled the host's speed
    result0 = full0["result"]
    assert len(result0["slowdown_samples"]) == result0["runs"]
    assert all(s > 0 for s in result0["slowdown_samples"] + result0["setup_slowdown_samples"])

    traced = [record(workload, 1) for _ in range(2)]
    for last, _full in traced:
        assert last["correct"] and last["failed"] == 0
        assert list(last["metrics"]) == [m["name"] for m in SPEC["per_layer"]]

    (a, fa), (b, fb) = traced
    exact = [n for n in a["metrics"]
             if n.endswith(".calls") or n.startswith("numcore.ops")
             or n in ("retrieval.pairs", "refinement.entries")]
    assert len(exact) > 10
    for n in exact:
        assert a["metrics"][n]["value"] == b["metrics"][n]["value"], n
    # tracing must not change what the program computes
    for full in (fa, fb):
        assert full["result"]["digest"] == full0["result"]["digest"]
        assert full["result"]["rmse_by_variant"] == full0["result"]["rmse_by_variant"]
        assert full["result"]["rmse"] == full0["result"]["rmse"]
    for name in workloads.get(workload).required_functions():
        row = tr.row_of(name)
        assert a["metrics"][f"{row}.calls"]["value"] > 0, name


def test_trace_file_holds_spans():
    _last, full = record("finetune_county", 1)
    lines = Path(full["result"]["trace_file"]).read_text().splitlines()
    assert lines[0] == "id,parent,name,start,end,workload,run"
    names = {line.split(",")[2] for line in lines[1:]}
    assert {"pipeline.run_experiment", "retrieval.centered_cosine", "training.fine_tune",
            "data.load_dataset"} <= names


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench("ablate_c07", 0, root=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_wraps_every_binding_site():
    from ratar import backbone, pipeline, retrieval, training

    originals = (pipeline.fine_tune, training.fine_tune, retrieval.global_forward,
                 training.lyra_forward, training.Adam.step)
    t = tr.Tracer("unit")
    t.install()
    try:
        assert pipeline.fine_tune is training.fine_tune
        assert pipeline.lyra_predict is backbone.lyra_predict
        assert retrieval.global_forward is backbone.global_forward
        assert training.lyra_forward is backbone.lyra_forward
        wrapped = (pipeline.fine_tune, training.fine_tune, retrieval.global_forward,
                   training.lyra_forward, training.Adam.step)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        t.uninstall()
    restored = (pipeline.fine_tune, training.fine_tune, retrieval.global_forward,
                training.lyra_forward, training.Adam.step)
    assert all(r is o for r, o in zip(restored, originals))


def test_missing_layer_function_is_an_error():
    mod = types.ModuleType("fake")
    with pytest.raises(tr.TracerError, match="does not exist"):
        tr._resolve(mod, "renamed_away")
    with pytest.raises(tr.TracerError, match="not a class"):
        tr._resolve(mod, "Gone.step")


def test_self_time_subtracts_children():
    spans = [  # id, parent, name, start, end, run
        (0, -1, "pipeline.ablate", 0.0, 10.0, "rep0"),
        (1, 0, "training.train_global", 1.0, 4.0, "rep0"),
        (2, 1, "backbone.global_forward", 1.5, 2.5, "rep0"),
        (3, 0, "training.train_lyra", 5.0, 6.0, "rep0"),
    ]
    rows, modules = tr.layer_rows(spans)
    assert rows["training.train"] == (2, 4.0, 3.0)
    assert rows["backbone.global_forward"] == (1, 1.0, 1.0)
    assert modules["pipeline"] == 6.0 and modules["training"] == 3.0
