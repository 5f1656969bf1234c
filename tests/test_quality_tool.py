"""Tests of the accuracy-record script, `tools/quality.py`.

The smoke test runs the script on one shrunk panel with one epoch, with
this checkout as both the parent and the change tree, so every paired
difference is 0.  `tools/` is outside the package, so the script loads by
path.
"""
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

from ratar.backbone import LyraDims
from ratar.data import SyntheticConfig
from ratar.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
VARIANTS = ["ratar", "wo_refine", "lyra", "gruatt", "ratar_context"]


def test_settings_are_the_c07_fixture(ablation_setup):
    spec = importlib.util.spec_from_file_location("quality", ROOT / "tools" / "quality.py")
    quality = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(quality)
    s = quality.settings(smoke=False)
    assert quality.PANEL_SEEDS[0] == ablation_setup.synth.seed
    assert len(set(quality.PANEL_SEEDS)) == 10
    assert SyntheticConfig(seed=ablation_setup.synth.seed, **s["synth"]) == ablation_setup.synth
    cfg = ablation_setup.cfg
    assert TrainConfig(**s["train"]) == cfg.train
    assert LyraDims(**s["dims"]) == cfg.dims
    assert {k: getattr(cfg, k) for k in s["experiment"]} == s["experiment"]
    assert sorted(quality.VARIANTS) == sorted(ablation_setup.rmse)


def test_smoke_record_fields(tmp_path):
    out = tmp_path / "quality.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "quality.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--panels", "11", "--smoke", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rec = json.loads(out.read_text())
    assert rec["panel_seeds"] == [11] and rec["training_seeds"] == [0, 1, 2]
    assert rec["settings"]["train"]["epochs"] == 1
    assert set(rec["trees"]) == {"parent", "change"}
    for side in ("parent", "change"):
        assert sorted(rec["rmse"][side]) == sorted(VARIANTS)
        for name in VARIANTS:
            values = rec["rmse"][side][name]["11"]
            assert len(values) == 3 and all(math.isfinite(v) and v > 0 for v in values)
        assert set(rec["ordering"][side]) == {"11"}
        assert isinstance(rec["ordering"][side]["11"], bool)
    assert rec["rmse"]["parent"] == rec["rmse"]["change"]  # one tree, deterministic runs
    for name in VARIANTS:
        paired = rec["paired"][name]
        assert paired["differences"] == [0.0, 0.0, 0.0] and paired["n"] == 3
        assert paired["mean"] == 0.0 and paired["se"] == 0.0 and paired["within_two_se"]
    assert rec["summary"]["gated"] == ["ratar", "ratar_context"]
    assert rec["summary"]["passed"] is True
