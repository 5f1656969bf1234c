"""End-to-end experiment orchestration.

A run executes, per seed: split by test year, normalize on training
statistics, train the global model and the cross-year model, then for
each county retrieve relevant neighbors, refine their labels toward
the test year, integrate them (per-county fine-tuning or context
augmentation), predict, and evaluate physical-unit RMSE.  Reports
aggregate mean and standard deviation across seeds.

Every integration mode predicts through the same call: `lyra_predict`
runs one batched engine forward per county.  Fine-tuning changes the
parameters it is given; context augmentation appends the refined
samples, as (record, normalized refined label) pairs, to the look-back
set that cross-year attention runs over.

Every stage error is re-raised tagged with its stage name.  A label
audit guards the test year for the entire run; only evaluation reads
test labels, inside an explicit allow scope.  Counties whose retrieval
comes back empty fall back to the plain cross-year prediction and are
flagged in the report.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import refinement as rf
from . import retrieval as rt
from .backbone import (
    GruParams,
    LyraDims,
    LyraParams,
    assemble_history,
    embed_batch,
    global_forward,
    gruatt_forward,
    lyra_predict,
    save_checkpoint,
)
from .data import (
    Dataset,
    NormStats,
    SyntheticConfig,
    generate_synthetic,
    label_audit,
    load_adjacency,
    load_dataset,
    split_by_test_year,
    zscore_apply,
    zscore_fit,
)
from .numcore import ContractError
from .training import TrainConfig, fine_tune, train_global, train_gru_att, train_lyra

_RETRIEVAL_MODES = ("residual", "neighboring", "embedding")
_INTEGRATION_MODES = ("finetune", "context", "none")
_SIGMA_FRACTION = 0.05  # default sigma: this fraction of the training label std


class PipelineError(RuntimeError):
    """A stage failure, tagged with the stage (and county) it came from."""


@contextmanager
def _stage(name):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"[{name}] {exc}") from exc


@dataclass
class ExperimentConfig:
    test_year: int
    data_path: str | None = None
    synthetic: SyntheticConfig | None = None
    adjacency_path: str | None = None
    w: int = 5
    retrieval_mode: str = "residual"
    threshold: float = 0.9
    top_k: int | None = None
    integration: str = "finetune"
    refine: bool = True
    sigma: float | None = None  # None: _SIGMA_FRACTION * training label std
    refine_copies: int = 1
    refine_label_source: str = "model"
    seeds: tuple = (0, 1, 2)
    train: TrainConfig = field(default_factory=TrainConfig)
    dims: LyraDims | None = None
    global_H: int = 64
    global_readout_hidden: int = 64
    out_dir: str | None = None
    variant: str = "ratar"

    def validate(self):
        if not self.seeds:
            raise ContractError("seeds must be non-empty")
        if self.retrieval_mode not in _RETRIEVAL_MODES:
            raise ContractError(f"retrieval_mode must be one of {_RETRIEVAL_MODES}")
        if self.integration not in _INTEGRATION_MODES:
            raise ContractError(f"integration must be one of {_INTEGRATION_MODES}")
        if self.refine_label_source not in ("model", "observed"):
            raise ContractError("refine_label_source must be 'model' or 'observed'")
        if self.w < 1:
            raise ContractError("look-back window must be at least 1")
        if self.sigma is not None and self.sigma < 0:
            raise ContractError("sigma must be nonnegative")
        if self.refine_copies < 1:
            raise ContractError("refine_copies must be at least 1")
        self.train.validate()
        return self


@dataclass
class PredRow:
    county: str
    year: int
    prediction: float
    label: float
    error: float
    fallback: bool = False


@dataclass
class SeedResult:
    seed: int
    rmse: float
    rows: list
    retrieved_samples: int = 0


@dataclass
class EvalReport:
    variant: str
    seed_results: list
    rmse_mean: float
    rmse_std: float
    seconds: float = 0.0
    audit_violations: int = 0
    retrieved_total: float = 0.0


def evaluate(predictions, test, seed, variant="eval", fallbacks=frozenset(),
             retrieved=0) -> EvalReport:
    """Physical-unit RMSE of per-county predictions on one test split.

    Only labeled test records count; a labeled county without a
    prediction is a contract error naming the county.  Label reads
    happen inside an audit allow-scope: evaluation is the one stage
    entitled to test-year labels.
    """
    rows = []
    with label_audit.allow():
        for rec in test.records:
            if not rec.has_label:
                continue
            if rec.county not in predictions:
                raise ContractError(f"missing prediction for county {rec.county}")
            pred = float(predictions[rec.county])
            label = float(rec.yield_label)
            rows.append(PredRow(rec.county, rec.year, pred, label, pred - label,
                                rec.county in fallbacks))
    if not rows:
        raise ContractError("no labeled test records to evaluate")
    rmse = float(np.sqrt(np.mean([r.error ** 2 for r in rows])))
    sr = SeedResult(seed=seed, rmse=rmse, rows=rows, retrieved_samples=retrieved)
    return EvalReport(variant=variant, seed_results=[sr], rmse_mean=rmse, rmse_std=0.0)


def _merge_reports(variant, per_seed, seconds, violations=0):
    seed_results = [rep.seed_results[0] for rep in per_seed]
    seed_results.sort(key=lambda sr: sr.seed)
    rmses = np.array([sr.rmse for sr in seed_results])
    retrieved = float(np.mean([sr.retrieved_samples for sr in seed_results]))
    return EvalReport(
        variant=variant,
        seed_results=seed_results,
        rmse_mean=float(rmses.mean()),
        rmse_std=float(rmses.std()),
        seconds=seconds,
        audit_violations=violations,
        retrieved_total=retrieved,
    )


# ---------------------------------------------------------------------------
# data plumbing


def _load(cfg: ExperimentConfig, dataset):
    if dataset is not None:
        return dataset
    if cfg.data_path is not None:
        return load_dataset(cfg.data_path)
    if cfg.synthetic is not None:
        ds, _truth = generate_synthetic(cfg.synthetic)
        return ds
    raise ContractError("no data source: need dataset, data_path, or synthetic config")


def _adjacency_of(cfg, ds, adjacency):
    if adjacency is not None:
        return adjacency
    if cfg.adjacency_path is not None:
        return load_adjacency(cfg.adjacency_path)
    adj = {}
    for county in ds.counties:
        rec = ds.records_of_county(county)[0]
        if rec.neighbors is not None:
            adj[county] = list(rec.neighbors)
    return adj


# ---------------------------------------------------------------------------
# per-seed stages


@dataclass
class _SeedModels:
    stats: NormStats
    train_phys: Dataset
    train_n: Dataset
    test_n: Dataset
    f: GruParams
    lyra: LyraParams | None


def _split_stage(cfg, ds):
    with _stage("split"):
        train_phys, test_phys = split_by_test_year(ds, cfg.test_year)
    with _stage("normalize"):
        stats = zscore_fit(train_phys)
        train_n = zscore_apply(train_phys, stats)
        test_n = zscore_apply(test_phys, stats, labels=False)
    return stats, train_phys, train_n, test_n


def _train_stage(cfg, ds, seed, f=None, lyra=None, with_lyra=True) -> _SeedModels:
    """Split, normalize, and train the models a seed's run needs.

    Pre-trained parameters (from checkpoints) can be injected via `f`
    and `lyra` to skip the corresponding training runs.
    """
    stats, train_phys, train_n, test_n = _split_stage(cfg, ds)
    tcfg = replace(cfg.train, seed=seed)
    if f is None:
        with _stage(f"train_global seed {seed}"):
            f, _ = train_global(train_n, tcfg, H=cfg.global_H,
                                readout_hidden=cfg.global_readout_hidden)
    if with_lyra and lyra is None:
        with _stage(f"train_lyra seed {seed}"):
            dims = cfg.dims if cfg.dims is not None else LyraDims(d=train_n.d)
            lyra, _ = train_lyra(train_n, cfg.w, tcfg, dims=dims,
                                 year_max=cfg.test_year, global_params=f)
    return _SeedModels(stats=stats, train_phys=train_phys, train_n=train_n,
                       test_n=test_n, f=f, lyra=lyra)


def _training_embeddings(models: _SeedModels, label_source: str):
    """One yearly embedding per training record, keyed (county, year).

    These embeddings feed the per-year regressors and county matching,
    both of which compare years against each other, so they are
    computed in a year-neutral frame: the label input follows
    `label_source` (default: the global model's prediction, same
    substitution the backbone applies to the target year) and the
    year-embedding input is held at the mean training-year row. Feeding
    year-identity inputs (the stored label, or the year's own learned
    embedding row) would let a regressor fit on year s track the very
    cross-year drift the bias matrix is supposed to expose, collapsing
    the measured biases toward zero.
    """
    train_n = models.train_n
    xs = np.stack([r.features for r in train_n.records])
    if label_source == "model":
        labels = global_forward(None, models.f, xs).data
    else:
        labels = np.array([r.yield_label for r in train_n.records])
    lyra = models.lyra.copy()
    table = lyra.store.value("year_table")
    rows = sorted({lyra.year_row(r.year) for r in train_n.records})
    neutral = table[rows].mean(axis=0)
    lyra.store.set_value("year_table", np.tile(neutral, (table.shape[0], 1)))
    seq_rows = np.arange(len(train_n.records))
    year_rows = np.array([lyra.year_row(r.year) for r in train_n.records])
    z_all, _, _ = embed_batch(None, lyra, xs, (seq_rows, labels, year_rows))
    return {(r.county, r.year): z_all.data[i] for i, r in enumerate(train_n.records)}


def _refinement_setup(cfg, models: _SeedModels):
    """Per-year regressors and per-county bias matrices (physical units).

    All per-year fits share one standardization, computed over every
    training year's embeddings. Each regressor is evaluated on other
    years' embeddings when the bias matrices are built, so the scale
    must be common across years; a per-year scale would blow up along
    dimensions that vary little within a year but drift between years.
    """
    embeddings = _training_embeddings(models, cfg.refine_label_source)
    train_n, stats = models.train_n, models.stats
    z_mean, z_scale = rf.embedding_moments(np.stack(list(embeddings.values())))
    regressors = {}
    for year in train_n.years:
        recs = train_n.records_of_year(year)
        if len(recs) < 2:
            warnings.warn(f"year {year} has {len(recs)} records; regressor skipped")
            continue
        Z = np.stack([embeddings[(r.county, r.year)] for r in recs])
        y = np.array([stats.denormalize_label(r.yield_label) for r in recs])
        regressors[year] = rf.fit_year_regressor(year, Z, y, z_mean=z_mean, z_scale=z_scale)
    biases = {}
    for county in train_n.counties:
        emb = {y: embeddings[(county, y)] for y in train_n.county_years(county)}
        labels = {y: stats.denormalize_label(train_n.get(county, y).yield_label)
                  for y in train_n.county_years(county)}
        biases[county] = rf.build_bias_matrix(county, regressors, emb, labels)
    return embeddings, regressors, biases


def _mean_embeddings(embeddings, counties):
    out = {}
    by_county: dict[str, list] = {}
    for (county, _year), z in embeddings.items():
        by_county.setdefault(county, []).append(z)
    for county in counties:
        out[county] = np.mean(by_county[county], axis=0)
    return out


def _retrieve_for(cfg, county, residuals, mean_emb, adjacency, train_n):
    if cfg.retrieval_mode == "residual":
        return rt.retrieve(county, residuals, train_n,
                           threshold=cfg.threshold, top_k=cfg.top_k)
    if cfg.retrieval_mode == "neighboring":
        return rt.retrieve_neighboring(county, adjacency, train_n)
    return rt.retrieve_embedding(county, mean_emb, train_n,
                                 threshold=cfg.threshold, top_k=cfg.top_k)


def _predict_counties(cfg, models: _SeedModels, seed, biases, residuals,
                      mean_emb, adjacency, sigma_phys):
    """Retrieve/refine/integrate/predict for every test county.

    Each county is one `lyra_predict` call, with the fine-tuned copy of
    the parameters or the refined extras as its integration requires.
    Counties are not batched together, because fine-tuned counties each
    carry their own parameters.  Returns (predictions, fallbacks,
    retrieval results, refined sets, attention rows).
    """
    train_n, test_n, stats = models.train_n, models.test_n, models.stats
    tcfg = replace(cfg.train, seed=seed)
    predictions, fallbacks = {}, set()
    retrievals, refined_sets, attention = [], [], []
    counties = sorted({r.county for r in test_n.records})
    for idx, county in enumerate(counties):
        target = test_n.get(county, cfg.test_year)
        with _stage(f"history county {county}"):
            history = assemble_history(train_n, county, cfg.test_year, cfg.w)

        refined = None
        if cfg.integration != "none":
            with _stage(f"retrieval county {county}"):
                result = _retrieve_for(cfg, county, residuals, mean_emb,
                                       adjacency, train_n)
                retrievals.append(result)
            with _stage(f"refinement county {county}"):
                refined = rf.refine_labels(
                    result,
                    biases if cfg.refine else {},
                    sigma=sigma_phys if cfg.refine else 0.0,
                    seed=seed * 1000003 + idx,
                    target_year=cfg.test_year,
                    copies=cfg.refine_copies,
                    stats=stats,
                )
                refined_sets.append(refined)

        with _stage(f"integration county {county}"):
            params = models.lyra
            extra = ()
            if refined is None or not refined.entries:
                if cfg.integration != "none":
                    fallbacks.add(county)
            elif cfg.integration == "finetune":
                params = fine_tune(models.lyra, refined, train_n, tcfg,
                                   stats=stats, global_params=models.f)
            elif cfg.integration == "context":
                extra = [(e.record, stats.normalize_label(e.label_refined))
                         for e in refined.entries]

        with _stage(f"predict county {county}"):
            out = lyra_predict(history, target, params, stats,
                               label_source="model", global_params=models.f,
                               extra_context=extra)
            predictions[county] = out.prediction
            for year, beta in zip(out.history_years, out.beta):
                attention.append((county, cfg.test_year, year, float(beta)))
    return predictions, fallbacks, retrievals, refined_sets, attention


@dataclass
class _SeedArtifacts:
    retrievals: list
    refined_sets: list
    attention: list
    biases: dict
    models: _SeedModels


def _retrieval_context(cfg, models: _SeedModels, seed):
    """Residuals, mean embeddings, bias matrices, resolved sigma for one seed."""
    residuals, mean_emb, biases = {}, {}, {}
    sigma_phys = 0.0
    if cfg.integration != "none":
        with _stage(f"residuals seed {seed}"):
            if cfg.retrieval_mode == "residual":
                residuals = rt.compute_residuals(models.train_n, models.f, models.stats)
        with _stage(f"refinement_setup seed {seed}"):
            embeddings, _regressors, biases = _refinement_setup(cfg, models)
            if cfg.retrieval_mode == "embedding":
                mean_emb = _mean_embeddings(embeddings, models.train_n.counties)
            sigma_phys = (cfg.sigma if cfg.sigma is not None
                          else _SIGMA_FRACTION * models.stats.label_std)
    return residuals, mean_emb, biases, sigma_phys


def _run_seed(cfg, ds, seed, adjacency):
    models = _train_stage(cfg, ds, seed)
    residuals, mean_emb, biases, sigma_phys = _retrieval_context(cfg, models, seed)
    predictions, fallbacks, retrievals, refined_sets, attention = _predict_counties(
        cfg, models, seed, biases, residuals, mean_emb, adjacency, sigma_phys)
    with _stage(f"evaluate seed {seed}"):
        retrieved = sum(len(r.samples) for r in retrievals)
        report = evaluate(predictions, models.test_n, seed, variant=cfg.variant,
                          fallbacks=fallbacks, retrieved=retrieved)
    artifacts = _SeedArtifacts(retrievals=retrievals, refined_sets=refined_sets,
                               attention=attention, biases=biases, models=models)
    return report, artifacts


def run_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None,
                   adjacency: dict | None = None) -> EvalReport:
    """Execute the full pipeline for every seed and write artifacts.

    The test year's labels are guarded for the whole run; the report
    carries the audit's violation count (which must be zero).
    """
    with _stage("config"):
        cfg.validate()
    with _stage("load"):
        ds = _load(cfg, dataset)
        adjacency = _adjacency_of(cfg, ds, adjacency)
    start = time.perf_counter()
    label_audit.reset()
    per_seed, first_artifacts = [], None
    with label_audit.guard(cfg.test_year):
        for seed in cfg.seeds:
            report, artifacts = _run_seed(cfg, ds, seed, adjacency)
            per_seed.append(report)
            if first_artifacts is None:
                first_artifacts = artifacts
    merged = _merge_reports(cfg.variant, per_seed, time.perf_counter() - start,
                            label_audit.violation_count())
    if cfg.out_dir is not None:
        with _stage("export"):
            export_diagnostics(cfg, merged, first_artifacts)
    return merged


# ---------------------------------------------------------------------------
# artifact export


def _write(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _config_blob(cfg: ExperimentConfig):
    blob = dataclasses.asdict(cfg)
    blob["seeds"] = list(cfg.seeds)
    # the output location is not part of the experiment: identical runs
    # into different directories must produce identical run.json files
    blob.pop("out_dir")
    return blob


def export_diagnostics(cfg: ExperimentConfig, report: EvalReport,
                       artifacts: _SeedArtifacts) -> None:
    """Write the run's output directory.

    report.csv and predictions.csv cover all seeds; the diagnostic CSVs
    (attention, errors, retrieval, bias) describe the first seed's run,
    matching their fixed single-run column layouts.  Nothing written
    here includes wall-clock values, so reruns are byte-identical.
    """
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    os.makedirs(os.path.join(out, "ckpt"), exist_ok=True)

    with open(os.path.join(out, "run.json"), "w") as fh:
        json.dump(_config_blob(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")

    lines = ["seed,rmse"]
    for sr in report.seed_results:
        lines.append(f"{sr.seed},{sr.rmse!r}")
    lines.append(f"mean,{report.rmse_mean!r}")
    lines.append(f"std,{report.rmse_std!r}")
    _write(os.path.join(out, "report.csv"), lines)

    lines = ["seed,county,year,prediction,label,error,fallback"]
    for sr in report.seed_results:
        for row in sorted(sr.rows, key=lambda r: r.county):
            lines.append(f"{sr.seed},{row.county},{row.year},{row.prediction!r},"
                         f"{row.label!r},{row.error!r},{int(row.fallback)}")
    _write(os.path.join(out, "predictions.csv"), lines)

    lines = ["county,target_year,history_year,beta"]
    for county, ty, hy, beta in artifacts.attention:
        lines.append(f"{county},{ty},{hy},{beta!r}")
    _write(os.path.join(out, "attention.csv"), lines)

    first = report.seed_results[0]
    lines = ["county,year,error"]
    for row in sorted(first.rows, key=lambda r: r.county):
        lines.append(f"{row.county},{row.year},{row.error!r}")
    _write(os.path.join(out, "errors.csv"), lines)

    rt.save_retrieval_csv(artifacts.retrievals, os.path.join(out, "retrieval.csv"))
    rf.save_bias_csv(artifacts.biases, os.path.join(out, "bias.csv"))
    if artifacts.refined_sets:
        rf.save_refined_csv(artifacts.refined_sets, os.path.join(out, "refined.csv"))

    models = artifacts.models
    seed0 = report.seed_results[0].seed
    save_checkpoint(os.path.join(out, "ckpt", f"global_seed{seed0}.npz"),
                    models.f, models.stats)
    save_checkpoint(os.path.join(out, "ckpt", f"lyra_seed{seed0}.npz"),
                    models.lyra, models.stats)


# ---------------------------------------------------------------------------
# sweeps and ablations


_SWEEP_AXES = {
    "lookback": lambda cfg, v: replace(cfg, w=int(v)),
    "threshold": lambda cfg, v: replace(cfg, threshold=float(v)),
    "topk": lambda cfg, v: replace(cfg, top_k=int(v)),
}


def sweep(cfg: ExperimentConfig, axis: str, values, dataset: Dataset | None = None,
          adjacency: dict | None = None) -> list:
    """One full experiment per axis value, seeds shared, plus sweep.csv."""
    if axis not in _SWEEP_AXES:
        raise ContractError(f"sweep axis must be one of {sorted(_SWEEP_AXES)}")
    if not values:
        raise ContractError("sweep needs at least one value")
    out_dir = cfg.out_dir
    reports = []
    for value in values:
        sub = _SWEEP_AXES[axis](cfg, value)
        sub = replace(sub, out_dir=None, variant=f"{axis}={value}")
        reports.append(run_experiment(sub, dataset=dataset, adjacency=adjacency))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        lines = ["axis,value,rmse_mean,rmse_std,retrieved_total"]
        for value, rep in zip(values, reports):
            lines.append(f"{axis},{value},{rep.rmse_mean!r},{rep.rmse_std!r},"
                         f"{rep.retrieved_total!r}")
        _write(os.path.join(out_dir, "sweep.csv"), lines)
    return reports


def _gruatt_predictions(cfg, models: _SeedModels, seed):
    tcfg = replace(cfg.train, seed=seed)
    dims = cfg.dims if cfg.dims is not None else LyraDims(d=models.train_n.d)
    with _stage(f"train_gruatt seed {seed}"):
        params, _ = train_gru_att(models.train_n, tcfg, H=dims.H,
                                  attn_hidden=dims.attn_hidden,
                                  head_hidden=dims.mlp_hidden)
    test_n = models.test_n
    recs = sorted(test_n.records, key=lambda r: r.county)
    xs = np.stack([r.features for r in recs])
    preds = gruatt_forward(None, params, xs).data
    return {r.county: models.stats.denormalize_label(p) for r, p in zip(recs, preds)}


def ablate(cfg: ExperimentConfig, dataset: Dataset | None = None,
           adjacency: dict | None = None) -> dict:
    """Run the variant matrix, sharing trained models within each seed.

    Variants: "ratar" (full pipeline), "wo_refine" (retrieval kept, raw
    labels), "lyra" (no retrieval), "gruatt" (no cross-year stage), and
    "ratar_context" (context integration) when the base integration is
    fine-tuning.
    """
    with _stage("config"):
        cfg.validate()
        if cfg.integration == "none":
            raise ContractError("ablate needs an integrating base config")
    with _stage("load"):
        ds = _load(cfg, dataset)
        adjacency = _adjacency_of(cfg, ds, adjacency)

    variants = ["ratar", "wo_refine", "lyra", "gruatt"]
    if cfg.integration == "finetune":
        variants.append("ratar_context")
    per_variant: dict[str, list] = {v: [] for v in variants}
    start = time.perf_counter()
    label_audit.reset()
    with label_audit.guard(cfg.test_year):
        for seed in cfg.seeds:
            models = _train_stage(cfg, ds, seed)
            residuals, mean_emb, biases, sigma_phys = _retrieval_context(
                cfg, models, seed)

            def seed_eval(variant, sub_cfg):
                preds, fb, rtr, _refined, _att = _predict_counties(
                    sub_cfg, models, seed, biases, residuals, mean_emb,
                    adjacency, sigma_phys)
                retrieved = sum(len(r.samples) for r in rtr)
                return evaluate(preds, models.test_n, seed, variant=variant,
                                fallbacks=fb, retrieved=retrieved)

            per_variant["ratar"].append(seed_eval("ratar", cfg))
            per_variant["wo_refine"].append(
                seed_eval("wo_refine", replace(cfg, refine=False)))
            per_variant["lyra"].append(
                seed_eval("lyra", replace(cfg, integration="none", refine=False)))
            if "ratar_context" in per_variant:
                per_variant["ratar_context"].append(
                    seed_eval("ratar_context", replace(cfg, integration="context")))
            gp = _gruatt_predictions(cfg, models, seed)
            with _stage(f"evaluate gruatt seed {seed}"):
                per_variant["gruatt"].append(
                    evaluate(gp, models.test_n, seed, variant="gruatt"))

    seconds = time.perf_counter() - start
    violations = label_audit.violation_count()
    reports = {v: _merge_reports(v, reps, seconds, violations)
               for v, reps in per_variant.items()}
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        lines = ["variant,rmse_mean,rmse_std"]
        for v in variants:
            rep = reports[v]
            lines.append(f"{v},{rep.rmse_mean!r},{rep.rmse_std!r}")
        _write(os.path.join(cfg.out_dir, "ablate.csv"), lines)
    return reports
