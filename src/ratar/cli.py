"""Command-line front end.

Subcommands cover the whole workflow: `synth` generates a labeled
synthetic panel, `train-global` / `train-lyra` fit the two models and
save checkpoints, `retrieve` / `refine` export the retrieval and bias
diagnostics, `predict` writes per-county predictions, and `run` /
`sweep` / `ablate` drive full multi-seed experiments.

Every experiment subcommand runs on the pipeline's public per-seed API
and nothing else: `load` and `train_models` (with any checkpoints) for
the first seed, then `retrieval_context`, `retrieve_refine` and
`predict_counties` as far as the subcommand needs.  `retrieve` and
`refine` therefore write exactly what `run` computes for the same
counties: they retrieve and refine every test county, and `--county`
only selects which county is written.

All experiment subcommands share one configuration surface: an
optional JSON file (--config) whose keys mirror ExperimentConfig
fields (with nested `train`, `dims`, and `synthetic` objects),
overridden field-by-field by flags.  --seed takes a comma list.
Exit status is 0 on success and 2 on any failure, with a
stage-tagged message on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import pipeline as pl
from . import refinement as rf
from . import retrieval as rt
from .backbone import LyraDims, load_checkpoint, save_checkpoint
from .data import (
    IngestionError,
    SyntheticConfig,
    generate_synthetic,
    label_audit,
    save_adjacency_csv,
    save_dataset_csv,
    save_truth_csv,
)
from .numcore import ContractError, NumericError
from .training import TrainConfig, TrainingError, save_train_report


def _parse_seeds(text: str) -> tuple:
    toks = [t for t in (s.strip() for s in text.split(",")) if t]
    try:
        seeds = tuple(int(t) for t in toks)
    except ValueError:
        raise ContractError(f"bad seed list {text!r}: expected comma-separated ints")
    if not seeds:
        raise ContractError("seed list is empty")
    return seeds


def _parse_values(axis: str, text: str) -> list:
    toks = [t for t in (s.strip() for s in text.split(",")) if t]
    if not toks:
        raise ContractError("value list is empty")
    cast = float if axis == "threshold" else int
    try:
        return [cast(t) for t in toks]
    except ValueError:
        raise ContractError(f"bad value list {text!r} for axis {axis}")


# ---------------------------------------------------------------------------
# config assembly: JSON file first, flags override


_SCALAR_FIELDS = (
    "data_path", "adjacency_path", "test_year", "w", "retrieval_mode",
    "threshold", "top_k", "integration", "refine", "sigma", "refine_copies",
    "variant", "global_H", "global_readout_hidden", "out_dir",
)
_TRAIN_FIELDS = ("lr", "batch_size", "epochs", "clip_norm", "fine_tune_lr",
                 "fine_tune_epochs", "freeze_encoder")
_DIM_FIELDS = ("d", "H", "Z", "E", "attn_hidden", "mlp_hidden")


def _experiment_config(args) -> pl.ExperimentConfig:
    blob = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                blob = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ContractError(f"bad JSON in {args.config}: {exc}")
    train_blob = dict(blob.pop("train", None) or {})
    dims_blob = blob.pop("dims", None)
    synth_blob = blob.pop("synthetic", None)
    file_seeds = blob.pop("seeds", None)
    kwargs = dict(blob)

    for name in _SCALAR_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    if getattr(args, "seeds", None) is not None:
        kwargs["seeds"] = _parse_seeds(args.seeds)
    elif file_seeds is not None:
        kwargs["seeds"] = tuple(file_seeds)

    for name in _TRAIN_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            train_blob[name] = value
    try:
        kwargs["train"] = TrainConfig(**train_blob)
    except TypeError as exc:
        raise ContractError(f"bad train config: {exc}")

    dim_over = {name: getattr(args, f"dim_{name}", None) for name in _DIM_FIELDS}
    dim_over = {k: v for k, v in dim_over.items() if v is not None}
    if dims_blob is not None or dim_over:
        base = dict(dims_blob or {})
        base.update(dim_over)
        if "d" not in base:
            raise ContractError("dims need d (--dim-d or dims.d in the config)")
        try:
            kwargs["dims"] = LyraDims(**base)
        except TypeError as exc:
            raise ContractError(f"bad dims config: {exc}")

    if synth_blob is not None:
        try:
            kwargs["synthetic"] = SyntheticConfig(**synth_blob)
        except TypeError as exc:
            raise ContractError(f"bad synthetic config: {exc}")

    if "test_year" not in kwargs:
        raise ContractError("test year is required (--test-year or config file)")
    try:
        return pl.ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ContractError(f"bad config: {exc}")


def _require_out(cfg) -> str:
    if cfg.out_dir is None:
        raise ContractError("--out is required for this subcommand")
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _seed_models(args, cfg, with_lyra=True):
    """Load data, then train or load the models of the first seed.

    Checkpoints must come from the same dataset and test year:
    `train_models` refuses one saved with other normalization statistics
    than the training split's (or none) before any model is trained.
    """
    ds, adjacency = pl.load(cfg)
    paths = {"lyra": getattr(args, "lyra_ckpt", None),
             "f": getattr(args, "global_ckpt", None)}
    loaded = {key: load_checkpoint(path) for key, path in paths.items() if path is not None}
    models = pl.train_models(cfg, ds, cfg.seeds[0], with_lyra=with_lyra,
                             checkpoints={key: (paths[key], stats)
                                          for key, (_params, stats) in loaded.items()},
                             **{key: params for key, (params, _stats) in loaded.items()})
    return models, adjacency


def _query_counties(args, models) -> list:
    if args.county is None:
        return models.test_counties
    if args.county not in models.test_counties:
        raise ContractError(f"county {args.county} has no test-year record")
    return [args.county]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_synth(args) -> int:
    cfg = SyntheticConfig(
        n_counties=args.counties, n_years=args.years, T=args.season_days,
        d=args.drivers, n_hidden_clusters=args.clusters,
        year_bias_slope=args.slope, year_shock_std=args.shock_std,
        obs_noise_std=args.noise_std, seed=args.seed, start_year=args.start_year,
    )
    ds, truth = generate_synthetic(cfg)
    os.makedirs(args.out, exist_ok=True)
    save_dataset_csv(ds, os.path.join(args.out, "data.csv"))
    save_adjacency_csv(ds, os.path.join(args.out, "adjacency.csv"))
    save_truth_csv(truth, os.path.join(args.out, "truth.csv"))
    print(f"wrote {len(ds)} county-year records "
          f"({cfg.n_counties} counties x {cfg.n_years} years) to {args.out}")
    return 0


def _save_trained(out, name, params, stats, report):
    ckpt = os.path.join(out, f"{name}.npz")
    save_checkpoint(ckpt, params, stats)
    report = replace(report, checkpoint=ckpt)
    save_train_report(report, os.path.join(out, f"train_{name}.csv"),
                      os.path.join(out, f"train_{name}.json"))
    return ckpt, report


def _cmd_train_global(args) -> int:
    cfg = _experiment_config(args).validate()
    out = _require_out(cfg)
    models, _adjacency = _seed_models(args, cfg, with_lyra=False)
    ckpt, report = _save_trained(out, "global", models.f, models.stats,
                                 models.global_report)
    print(f"global model: final loss {report.final_loss:.6f}, "
          f"{len(report.losses)} epochs, checkpoint {ckpt}")
    return 0


def _cmd_train_lyra(args) -> int:
    cfg = _experiment_config(args).validate()
    out = _require_out(cfg)
    models, _adjacency = _seed_models(args, cfg)
    ckpt, report = _save_trained(out, "lyra", models.lyra, models.stats,
                                 models.lyra_report)
    print(f"cross-year model: final loss {report.final_loss:.6f}, "
          f"{report.n_samples} window samples, checkpoint {ckpt}")
    return 0


def _cmd_retrieve(args) -> int:
    cfg = _experiment_config(args).validate()
    out = _require_out(cfg)
    models, adjacency = _seed_models(args, cfg,
                                     with_lyra=cfg.retrieval_mode == "embedding")
    ctx = pl.retrieval_context(cfg, models, adjacency)
    queries = set(_query_counties(args, models))
    results = [r for r in pl.retrieve_refine(cfg, models, ctx)[0] if r.query in queries]
    path = os.path.join(out, "retrieval.csv")
    rt.save_retrieval_csv(results, models.train_n, path)
    total = sum(len(r.samples) for r in results)
    print(f"retrieved {total} samples across {len(results)} queries -> {path}")
    return 0


def _cmd_refine(args) -> int:
    cfg = _experiment_config(args).validate()
    out = _require_out(cfg)
    models, adjacency = _seed_models(args, cfg)
    ctx = pl.retrieval_context(cfg, models, adjacency)
    queries = set(_query_counties(args, models))
    refined = pl.retrieve_refine(cfg, models, ctx)[1]
    refined = refined.select([query in queries for query in refined.queries])
    rf.save_bias_csv(ctx.biases, os.path.join(out, "bias.csv"))
    rf.save_refined_csv(refined, models.train_n, os.path.join(out, "refined.csv"))
    print(f"refined {len(refined.entries)} samples across {len(refined.queries)} queries -> {out}")
    return 0


def _cmd_predict(args) -> int:
    cfg = _experiment_config(args).validate()
    out = _require_out(cfg)
    label_audit.reset()
    with label_audit.guard(cfg.test_year):
        models, adjacency = _seed_models(args, cfg)
        ctx = (pl.retrieval_context(cfg, models, adjacency)
               if cfg.integration != "none" else None)
        predicted = pl.predict_counties(cfg, models, ctx)
        predictions, fallbacks = predicted.predictions, predicted.fallbacks
        if label_audit.violation_count():  # a leaking run writes nothing
            print(f"audit violations {label_audit.violation_count()}; nothing written")
            return 2
        lines = ["county,year,prediction,fallback"]
        for county in sorted(predictions):
            lines.append(f"{county},{cfg.test_year},{predictions[county]!r},"
                         f"{int(county in fallbacks)}")
        path = os.path.join(out, "predictions.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {len(predictions)} predictions -> {path}")
        if models.test.labeled.any():
            report = pl.evaluate(predictions, models.test, models.seed,
                                 fallbacks=fallbacks)
            print(f"test rmse {report.rmse_mean:.4f} (physical units)")
    print(f"audit violations {label_audit.violation_count()}")
    return 0 if label_audit.violation_count() == 0 else 2


def _cmd_run(args) -> int:
    cfg = _experiment_config(args)
    report = pl.run_experiment(cfg)
    for sr in report.seed_results:
        print(f"seed {sr.seed}: rmse {sr.rmse:.4f} "
              f"({sum(1 for r in sr.rows if r.fallback)} fallback counties, "
              f"{sr.retrieved_samples} retrieved samples)")
    print(f"rmse {report.rmse_mean:.4f} +/- {report.rmse_std:.4f} "
          f"over {len(report.seed_results)} seeds; "
          f"audit violations {report.audit_violations}")
    if cfg.out_dir and report.audit_violations == 0:  # a leaking run writes nothing
        print(f"artifacts -> {cfg.out_dir}")
    return 0 if report.audit_violations == 0 else 2


def _cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    values = _parse_values(args.axis, args.values)
    reports = pl.sweep(cfg, args.axis, values)
    for value, rep in zip(values, reports):
        print(f"{args.axis}={value}: rmse {rep.rmse_mean:.4f} +/- {rep.rmse_std:.4f}, "
              f"{rep.retrieved_total:.1f} retrieved samples/seed")
    if cfg.out_dir:
        print(f"consolidated table -> {os.path.join(cfg.out_dir, 'sweep.csv')}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _experiment_config(args)
    reports = pl.ablate(cfg)
    for name, rep in reports.items():
        print(f"{name}: rmse {rep.rmse_mean:.4f} +/- {rep.rmse_std:.4f}")
    if cfg.out_dir:
        print(f"variant table -> {os.path.join(cfg.out_dir, 'ablate.csv')}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--data", dest="data_path", help="dataset CSV path")
    p.add_argument("--adjacency", dest="adjacency_path", help="adjacency CSV path")
    p.add_argument("--test-year", type=int, dest="test_year")
    p.add_argument("--w", type=int, help="look-back window length")
    p.add_argument("--mode", dest="retrieval_mode",
                   choices=["residual", "neighboring", "embedding"])
    p.add_argument("--threshold", type=float, help="retrieval similarity threshold")
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--integration", choices=["finetune", "context", "none"])
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=None,
                   help="apply cross-year bias refinement to retrieved labels")
    p.add_argument("--sigma", type=float,
                   help="refinement noise scale (physical units)")
    p.add_argument("--copies", type=int, dest="refine_copies")
    p.add_argument("--seed", dest="seeds", help="comma list, e.g. 0,1,2")
    p.add_argument("--variant", help="label for reports")
    p.add_argument("--global-h", type=int, dest="global_H")
    p.add_argument("--global-readout-hidden", type=int, dest="global_readout_hidden")
    p.add_argument("--out", dest="out_dir", help="output directory")
    for flag, dest, typ in [("--lr", "lr", float),
                            ("--batch-size", "batch_size", int),
                            ("--epochs", "epochs", int),
                            ("--clip-norm", "clip_norm", float),
                            ("--fine-tune-lr", "fine_tune_lr", float),
                            ("--fine-tune-epochs", "fine_tune_epochs", int)]:
        p.add_argument(flag, dest=dest, type=typ)
    p.add_argument("--freeze-encoder", action=argparse.BooleanOptionalAction,
                   default=None, dest="freeze_encoder")
    for name in _DIM_FIELDS:
        p.add_argument(f"--dim-{name.lower().replace('_', '-')}",
                       dest=f"dim_{name}", type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratar",
        description="Annual yield prediction with retrieval-augmented "
                    "cross-year attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic county-year panel")
    p.add_argument("--out", required=True)
    p.add_argument("--counties", type=int, default=30)
    p.add_argument("--years", type=int, default=10)
    p.add_argument("--season-days", type=int, default=30)
    p.add_argument("--drivers", type=int, default=8)
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--slope", type=float, default=0.1)
    p.add_argument("--shock-std", type=float, default=0.3)
    p.add_argument("--noise-std", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-year", type=int, default=2000)
    p.set_defaults(func=_cmd_synth)

    for name, func, helptext in [
        ("train-global", _cmd_train_global, "fit the all-county global model"),
        ("train-lyra", _cmd_train_lyra, "fit the cross-year attention model"),
        ("run", _cmd_run, "full multi-seed experiment with artifacts"),
        ("ablate", _cmd_ablate, "run the variant matrix"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_experiment_flags(p)
        if name == "train-lyra":
            p.add_argument("--global-ckpt", help="checkpoint for label substitution")
        p.set_defaults(func=func)

    for name, func, helptext in [
        ("retrieve", _cmd_retrieve, "export retrieval matches and samples"),
        ("refine", _cmd_refine, "export bias matrices and refined labels"),
        ("predict", _cmd_predict, "write per-county test-year predictions"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_experiment_flags(p)
        p.add_argument("--global-ckpt")
        p.add_argument("--lyra-ckpt")
        if name != "predict":
            p.add_argument("--county", help="write only this query county")
        p.set_defaults(func=func)

    p = sub.add_parser("sweep", help="sensitivity sweep over one config axis")
    _add_experiment_flags(p)
    p.add_argument("--axis", required=True, choices=["lookback", "threshold", "topk"])
    p.add_argument("--values", required=True, help="comma list")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except pl.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, IngestionError, TrainingError, NumericError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
