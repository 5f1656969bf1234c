"""Accuracy record: the c07 fixture's `ablate` on two source trees, paired.

    python3 tools/quality.py --parent HEAD [--change .] [--out QUALITY_<commit>.json]

Run from the root of a checkout.  A tree is a directory or a git revision,
which is exported with `git archive` into a temporary directory.  For each
panel seed in PANEL_SEEDS, the c07 fixture's panel (`AblationSetup` in
tests/conftest.py: 60 counties x 12 years, T=50, d=12) is generated with
that seed, and `pipeline.ablate` runs on it at the fixture's settings with
training seeds 0, 1 and 2, once per tree.  Each run is a fresh child
process that imports `ratar` from its tree's `src` and gets
`OPENBLAS_NUM_THREADS=1`; the two trees' runs of a panel go side by side.

The record (`QUALITY_<parent commit>.json` by default) holds:
  - `rmse`: each variant's RMSE per tree, panel seed and training seed;
  - `paired`: per variant, the differences change - parent over every
    (panel seed, training seed), with their mean and standard error;
  - `ordering`: per tree and panel, whether c07's ordering of 3-seed means
    holds (ratar <= wo_refine <= lyra <= gruatt, each with 2% slack);
  - `passed`: whether the mean difference of each GATED variant is no more
    than two standard errors above 0.

A change that moves prediction bits commits its record.  The RMSEs are
deterministic, so the record repeats bit for bit on one host.  A full
record makes 20 `ablate` runs of about 20 s each, two at a time: about
4 min on a 2-core Xeon.
`--smoke` shrinks the panel to 8 counties at T=12 and training to one
epoch, for the script's own test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The c07 fixture's panel (less its seed), experiment, training and model
# settings.
SYNTH = dict(n_counties=60, n_years=12, T=50, d=12, n_hidden_clusters=4,
             year_bias_slope=0.6, year_shock_std=0.1, obs_noise_std=0.1)
EXPERIMENT = dict(w=5, threshold=0.5, top_k=1, integration="finetune", sigma=0.0,
                  seeds=(0, 1, 2), global_H=16, global_readout_hidden=0)
TRAIN = dict(lr=3e-3, batch_size=64, epochs=20, seed=0, fine_tune_lr=1e-3,
             fine_tune_epochs=2, freeze_encoder=True)
DIMS = dict(d=12, H=16, Z=8, E=4, attn_hidden=0, mlp_hidden=0)
SMOKE_SYNTH = dict(n_counties=8, T=12)
SMOKE_TRAIN = dict(epochs=1)

# The fixture's panel seed first, then nine others.
PANEL_SEEDS = (11, 12, 13, 14, 15, 16, 17, 18, 19, 20)
VARIANTS = ("ratar", "wo_refine", "lyra", "gruatt", "ratar_context")
GATED = ("ratar", "ratar_context")
ORDER_SLACK = 1.02  # test_c07_ablation_ordering's slack


def settings(smoke: bool) -> dict:
    return {"synth": {**SYNTH, **(SMOKE_SYNTH if smoke else {})}, "experiment": EXPERIMENT,
            "train": {**TRAIN, **(SMOKE_TRAIN if smoke else {})}, "dims": DIMS}


def child(src: str, panel_seed: int, smoke: bool) -> dict:
    """{variant: [RMSE per training seed]} of one `ablate` on one panel,
    with `ratar` imported from `src`."""
    sys.path.insert(0, src)
    from ratar import pipeline
    from ratar.backbone import LyraDims
    from ratar.data import SyntheticConfig, generate_synthetic
    from ratar.training import TrainConfig

    if Path(pipeline.__file__).resolve().parents[1] != Path(src).resolve():
        raise RuntimeError(f"ratar imported from {pipeline.__file__}, not from {src}")
    s = settings(smoke)
    dataset, _truth = generate_synthetic(SyntheticConfig(seed=panel_seed, **s["synth"]))
    cfg = pipeline.ExperimentConfig(test_year=max(dataset.years), out_dir=None,
                                    train=TrainConfig(**s["train"]),
                                    dims=LyraDims(**s["dims"]), **s["experiment"])
    reports = pipeline.ablate(cfg, dataset=dataset)
    return {name: [sr.rmse for sr in rep.seed_results] for name, rep in reports.items()}


def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=str(cwd), check=True, text=True,
                          capture_output=True).stdout.strip()


def resolve(tree: str, workdir: Path, side: str) -> tuple:
    """(source directory, record entry) of a tree argument."""
    if Path(tree).is_dir():
        path = Path(tree).resolve()
        try:
            head = _git("rev-parse", "HEAD", cwd=path)
            dirty = bool(_git("status", "--porcelain", "--", "src", cwd=path))
        except (OSError, subprocess.CalledProcessError):
            head, dirty = None, None
        return path, {"tree": tree, "commit": head, "uncommitted_src_changes": dirty}
    commit = _git("rev-parse", "--verify", f"{tree}^{{commit}}")
    path = workdir / side
    path.mkdir()
    archive = subprocess.run(["git", "archive", commit, "src"], cwd=str(ROOT), check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(path)], input=archive, check=True)
    return path, {"tree": tree, "commit": commit, "uncommitted_src_changes": False}


def run_panel(sources: dict, panel_seed: int, smoke: bool) -> dict:
    """{side: child result} of one panel, the sides' children side by side."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    procs, out = {}, {}
    try:
        for side, path in sources.items():
            cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(path / "src"),
                   "--panel-seed", str(panel_seed)] + (["--smoke"] if smoke else [])
            procs[side] = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        for side, proc in procs.items():
            stdout, _ = proc.communicate()
            if proc.returncode:
                raise RuntimeError(f"{side} run on panel {panel_seed} exited {proc.returncode}")
            out[side] = json.loads(stdout.splitlines()[-1])
    finally:
        for proc in procs.values():  # a failed side stops the other
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return out


def mean_se(values) -> tuple:
    """Mean and standard error of the mean (None below two values)."""
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, None
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def ordering_holds(rmse: dict) -> bool:
    """c07's ordering of one panel's 3-seed mean RMSEs."""
    m = {name: math.fsum(values) / len(values) for name, values in rmse.items()}
    return (m["ratar"] <= ORDER_SLACK * m["wo_refine"]
            and m["wo_refine"] <= ORDER_SLACK * m["lyra"]
            and m["lyra"] <= ORDER_SLACK * m["gruatt"])


def record(results: dict, panel_seeds, trees: dict, smoke: bool) -> dict:
    """The record of {panel seed: {side: {variant: [RMSE per training seed]}}}."""
    sides = ("parent", "change")
    rmse = {side: {name: {str(p): results[p][side][name] for p in panel_seeds}
                   for name in VARIANTS} for side in sides}
    paired = {}
    for name in VARIANTS:
        diffs = [c - p for panel in panel_seeds
                 for p, c in zip(results[panel]["parent"][name], results[panel]["change"][name])]
        mean, se = mean_se(diffs)
        paired[name] = {"differences": diffs, "n": len(diffs), "mean": mean, "se": se,
                        "within_two_se": se is not None and mean <= 2 * se}
    ordering = {side: {str(p): ordering_holds(results[p][side]) for p in panel_seeds}
                for side in sides}
    means = {side: {name: mean_se([v for p in panel_seeds for v in results[p][side][name]])[0]
                    for name in VARIANTS} for side in sides}
    return {
        "about": ("pipeline.ablate at the c07 fixture's settings on two source trees. "
                  "rmse[side][variant][panel seed] lists the RMSE of training seeds "
                  f"{list(EXPERIMENT['seeds'])}; paired differences are change - parent per "
                  "(panel seed, training seed), in that order; se is the standard error "
                  "of their mean."),
        "command": "python3 tools/quality.py " + " ".join(sys.argv[1:]),
        "settings": settings(smoke),
        "trees": trees,
        "panel_seeds": list(panel_seeds),
        "training_seeds": list(EXPERIMENT["seeds"]),
        "rmse": rmse,
        "paired": paired,
        "ordering": ordering,
        "summary": {
            "mean_rmse": means,
            "ordering_holds": {side: sum(ordering[side].values()) for side in sides},
            "gated": list(GATED),
            "passed": all(paired[name]["within_two_se"] for name in GATED),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="directory or git revision of the parent tree")
    ap.add_argument("--change", default=".", help="directory or git revision of the change")
    ap.add_argument("--panels", type=lambda s: tuple(int(x) for x in s.split(",")),
                    default=PANEL_SEEDS, help="comma-separated panel seeds")
    ap.add_argument("--out", help="record path (default QUALITY_<parent commit>.json)")
    ap.add_argument("--smoke", action="store_true", help="shrunk panel, one epoch")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--panel-seed", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.panel_seed, args.smoke)))
        return 0
    if not args.parent:
        ap.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="quality-") as workdir:
        sources, trees = {}, {}
        for side, tree in (("parent", args.parent), ("change", args.change)):
            sources[side], trees[side] = resolve(tree, Path(workdir), side)
        results = {}
        for panel in args.panels:
            results[panel] = run_panel(sources, panel, args.smoke)
            print(f"panel {panel}: " + "; ".join(
                f"{side} ratar {math.fsum(r['ratar']) / len(r['ratar']):.4f}"
                for side, r in results[panel].items()), file=sys.stderr)
    rec = record(results, args.panels, trees, args.smoke)
    out = args.out
    if out is None:
        if trees["parent"]["commit"] is None:
            ap.error("--out is required when the parent tree is not in git")
        out = str(ROOT / f"QUALITY_{trees['parent']['commit'][:7]}.json")
    with open(out, "w") as fh:
        json.dump(rec, fh, indent=1)
        fh.write("\n")
    for name in VARIANTS:
        p = rec["paired"][name]
        se = "n/a" if p["se"] is None else f"{p['se']:.4f}"
        print(f"{name}: mean change - parent {p['mean']:+.4f} (se {se}, n {p['n']})")
    print(f"passed: {rec['summary']['passed']}; record: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
