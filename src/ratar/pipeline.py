"""End-to-end experiment orchestration.

A run executes one chain per seed.  Each link is a public call, and
`run_experiment`, `ablate` and every CLI subcommand are built from the
same links:

- `load`: the dataset and the county adjacency;
- `train_models`: split by test year, normalize on training statistics,
  train the global and the cross-year model (or take them from
  checkpoints), giving a `SeedModels`.  Its `model_labels` table holds
  the global model's prediction for every training and test record,
  made once per seed by one `global_forward` over each split; every
  label the global model stands in for (the cross-year model's target
  seasons in training, fine-tuning and prediction, the residuals and
  the training embeddings) is read from it;
- `retrieval_context`: residuals, training embeddings, bias matrices
  and the resolved refinement sigma, giving a `RetrievalContext`.  The
  residuals (and, in embedding mode, the mean embeddings) are held as a
  `retrieval.ResidualPanel`, whose all-pairs similarity screen is built
  once per seed on the first query;
- `retrieve_refine`: one test county's retrieved samples, with their
  labels refined toward the test year.  Retrieval reads the query's row
  of the screen and computes exact similarities for its short list
  only.  The context keeps each county's results, so runs sharing it
  retrieve and refine a county once;
- `predict_counties`: retrieve and refine every county, integrate
  (per-county fine-tuning or context augmentation), then predict,
  giving `CountyPredictions`;
- `evaluate`: physical-unit RMSE.

Reports aggregate mean and standard deviation across seeds.

Every integration mode predicts through the same call: `lyra_predict`
runs one batched engine forward over a list of windows.  Fine-tuning
gives each county with refined samples its own copy of the parameters;
one `fine_tune` call trains all of a seed's copies, stacked on a leading
model axis, and one `lyra_predict` on the stack predicts their counties.
Context augmentation appends the refined samples, as (record,
normalized refined label) pairs, to the look-back window that
cross-year attention runs over.

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
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import refinement as rf
from . import retrieval as rt
from .backbone import (
    GruParams,
    LyraDims,
    LyraParams,
    embed_batch,
    gruatt_forward,
    lookback_window,
    lyra_predict,
    model_labels,
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
from .training import (
    TrainConfig,
    TrainReport,
    fine_tune,
    train_global,
    train_gru_att,
    train_lyra,
)

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
# the per-seed API


def load(cfg: ExperimentConfig, dataset: Dataset | None = None,
         adjacency: dict | None = None):
    """The run's (dataset, adjacency); given values pass through.

    The dataset otherwise comes from `cfg.data_path` or `cfg.synthetic`,
    the adjacency from `cfg.adjacency_path` or the records' own
    neighbor lists.
    """
    with _stage("load"):
        if dataset is None:
            if cfg.data_path is not None:
                dataset = load_dataset(cfg.data_path)
            elif cfg.synthetic is not None:
                dataset, _truth = generate_synthetic(cfg.synthetic)
            else:
                raise ContractError(
                    "no data source: need dataset, data_path, or synthetic config")
        if adjacency is None and cfg.adjacency_path is not None:
            adjacency = load_adjacency(cfg.adjacency_path)
        elif adjacency is None:
            adjacency = {}
            for county in dataset.counties:
                rec = dataset.get(county, dataset.county_years(county)[0])
                if rec.neighbors is not None:
                    adjacency[county] = list(rec.neighbors)
    return dataset, adjacency


@dataclass
class SeedModels:
    """One seed's normalized split and models.

    A report is None for a model that was passed in rather than trained.
    """
    seed: int
    stats: NormStats
    train_n: Dataset
    test_n: Dataset
    f: GruParams
    lyra: LyraParams | None
    global_report: TrainReport | None = None
    lyra_report: TrainReport | None = None

    @cached_property
    def test_counties(self) -> list:
        """Counties with a test-year record, sorted: the per-county order."""
        return sorted({r.county for r in self.test_n.records})

    @cached_property
    def model_labels(self) -> dict:
        """The global model's normalized prediction per (county, year).

        One `global_forward` over the training records (the batch every
        training-side reader shares) and one over the test records.
        """
        return {**model_labels(self.f, self.train_n.records),
                **model_labels(self.f, self.test_n.records)}


def train_models(cfg: ExperimentConfig, ds: Dataset, seed: int, f=None, lyra=None,
                 with_lyra=True) -> SeedModels:
    """Split, normalize, and train the models a seed's run needs.

    Pre-trained parameters (from checkpoints) can be injected via `f`
    and `lyra` (whose window must be `cfg.w` and whose last year must be
    `cfg.test_year`) to skip the corresponding training runs;
    `with_lyra` false skips the cross-year model.
    """
    if lyra is not None and lyra.w != cfg.w:
        raise ContractError(
            f"cross-year model has look-back window w={lyra.w}, config has w={cfg.w}")
    if lyra is not None and lyra.year_max != cfg.test_year:
        raise ContractError(
            f"cross-year model was trained for test year {lyra.year_max}, "
            f"config has test year {cfg.test_year}")
    with _stage("split"):
        train_phys, test_phys = split_by_test_year(ds, cfg.test_year)
    with _stage("normalize"):
        stats = zscore_fit(train_phys)
        train_n = zscore_apply(train_phys, stats)
        test_n = zscore_apply(test_phys, stats, labels=False)
    models = SeedModels(seed=seed, stats=stats, train_n=train_n, test_n=test_n,
                        f=f, lyra=lyra)
    tcfg = replace(cfg.train, seed=seed)
    if f is None:
        with _stage(f"train_global seed {seed}"):
            models.f, models.global_report = train_global(
                train_n, tcfg, H=cfg.global_H, readout_hidden=cfg.global_readout_hidden)
    if with_lyra and lyra is None:
        with _stage(f"train_lyra seed {seed}"):
            dims = cfg.dims if cfg.dims is not None else LyraDims(d=train_n.d)
            models.lyra, models.lyra_report = train_lyra(
                train_n, cfg.w, tcfg, models.model_labels, dims=dims,
                year_max=cfg.test_year)
    return models


def _training_embeddings(models: SeedModels):
    """One yearly embedding per training record, keyed (county, year).

    These embeddings feed the per-year regressors and county matching,
    both of which compare years against each other, so they are
    computed in a year-neutral frame: the label input is the global
    model's prediction from `models.model_labels` (the substitution the
    target year gets) and the year-embedding input is held at the mean
    training-year row. Feeding year-identity inputs (the stored label,
    or the year's own learned embedding row) would let a regressor fit
    on year s track the very cross-year drift the bias matrix is
    supposed to expose, collapsing the measured biases toward zero.
    """
    train_n = models.train_n
    xs = np.stack([r.features for r in train_n.records])
    labels = np.array([models.model_labels[r.county, r.year] for r in train_n.records])
    lyra = models.lyra.copy()
    table = lyra.store.value("year_table")
    rows = sorted({lyra.year_row(r.year) for r in train_n.records})
    neutral = table[rows].mean(axis=0)
    lyra.store.set_value("year_table", np.tile(neutral, (table.shape[0], 1)))
    seq_rows = np.arange(len(train_n.records))
    year_rows = np.array([lyra.year_row(r.year) for r in train_n.records])
    z_all, _, _ = embed_batch(None, lyra, xs, (seq_rows, labels, year_rows))
    return {(r.county, r.year): z_all.data[i] for i, r in enumerate(train_n.records)}


def _refinement_setup(models: SeedModels, embeddings):
    """Per-year regressors and per-county bias matrices (physical units).

    All per-year fits share one standardization, computed over every
    training year's embeddings. Each regressor is evaluated on other
    years' embeddings when the bias matrices are built, so the scale
    must be common across years; a per-year scale would blow up along
    dimensions that vary little within a year but drift between years.
    """
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
    return regressors, biases


def _mean_embeddings(embeddings, counties):
    out = {}
    by_county: dict[str, list] = {}
    for (county, _year), z in embeddings.items():
        by_county.setdefault(county, []).append(z)
    for county in counties:
        out[county] = np.mean(by_county[county], axis=0)
    return out


@dataclass
class RetrievalContext:
    """What per-county retrieval and refinement read, for one seed.

    `residuals` (a `retrieval.ResidualPanel`) are filled in residual
    mode only.  The training `embeddings` (keyed (county, year)), the
    per-year `regressors`, the per-county `biases` and the mean
    embeddings `mean_emb` (a `retrieval.embedding_panel`) need the
    cross-year model and are empty without one.  `sigma` is the
    refinement noise scale in physical units.  `retrieved` and `refined`
    keep what `retrieve_refine` computed from it, so that runs sharing
    the context (the ablation variants) retrieve and refine each county
    once.
    """
    adjacency: dict
    sigma: float
    residuals: Mapping = field(default_factory=dict)
    embeddings: dict = field(default_factory=dict)
    regressors: dict = field(default_factory=dict)
    biases: dict = field(default_factory=dict)
    mean_emb: Mapping = field(default_factory=dict)
    retrieved: dict = field(default_factory=dict)
    refined: dict = field(default_factory=dict)


def retrieval_context(cfg: ExperimentConfig, models: SeedModels,
                      adjacency: dict) -> RetrievalContext:
    """Residuals, embeddings, bias matrices and resolved sigma for one seed.

    The training embeddings are computed once; the bias matrices and
    the embedding-mode match keys both come from them.  An unset
    `cfg.sigma` resolves to a fixed fraction of the training label std.
    """
    sigma = (cfg.sigma if cfg.sigma is not None
             else _SIGMA_FRACTION * models.stats.label_std)
    ctx = RetrievalContext(adjacency=adjacency, sigma=sigma)
    if cfg.retrieval_mode == "residual":
        with _stage(f"residuals seed {models.seed}"):
            ctx.residuals = rt.compute_residuals(models.train_n, models.model_labels,
                                                 models.stats)
    if models.lyra is not None:
        with _stage(f"refinement_setup seed {models.seed}"):
            ctx.embeddings = _training_embeddings(models)
            ctx.regressors, ctx.biases = _refinement_setup(models, ctx.embeddings)
            ctx.mean_emb = rt.embedding_panel(
                _mean_embeddings(ctx.embeddings, models.train_n.counties))
    return ctx


def retrieve_refine(cfg: ExperimentConfig, models: SeedModels, ctx: RetrievalContext,
                    county: str):
    """One test county's (retrieval result, refined sample set).

    The refinement noise is seeded from the seed and the county's index
    in `models.test_counties`, so it does not depend on which other
    counties are processed.  With `cfg.refine` off, labels pass through
    unshifted and without noise.  Results are kept in `ctx.retrieved`
    and `ctx.refined`, keyed by the county and the settings they depend
    on: a county is retrieved once per retrieval setting and refined
    once per refinement setting.
    """
    idx = models.test_counties.index(county)
    train_n = models.train_n
    key = (county, cfg.retrieval_mode, cfg.threshold, cfg.top_k)
    if key not in ctx.retrieved:
        with _stage(f"retrieval county {county}"):
            if cfg.retrieval_mode == "residual":
                result = rt.retrieve(county, ctx.residuals, train_n,
                                     threshold=cfg.threshold, top_k=cfg.top_k)
            elif cfg.retrieval_mode == "neighboring":
                result = rt.retrieve_neighboring(county, ctx.adjacency, train_n)
            else:
                result = rt.retrieve_embedding(county, ctx.mean_emb, train_n,
                                               threshold=cfg.threshold, top_k=cfg.top_k)
        ctx.retrieved[key] = result
    result = ctx.retrieved[key]
    refine_key = key + (cfg.refine, cfg.refine_copies, cfg.test_year)
    if refine_key not in ctx.refined:
        with _stage(f"refinement county {county}"):
            ctx.refined[refine_key] = rf.refine_labels(
                result,
                ctx.biases if cfg.refine else {},
                sigma=ctx.sigma if cfg.refine else 0.0,
                seed=models.seed * 1000003 + idx,
                target_year=cfg.test_year,
                copies=cfg.refine_copies,
                stats=models.stats,
            )
    return result, ctx.refined[refine_key]


@dataclass
class CountyPredictions:
    """One seed's per-county outputs, in `SeedModels.test_counties` order."""
    predictions: dict = field(default_factory=dict)
    fallbacks: set = field(default_factory=set)
    retrievals: list = field(default_factory=list)
    refined_sets: list = field(default_factory=list)
    attention: list = field(default_factory=list)  # (county, year, history year, beta)


def predict_counties(cfg: ExperimentConfig, models: SeedModels,
                     ctx: RetrievalContext | None) -> CountyPredictions:
    """Retrieve/refine/integrate/predict for every test county.

    Fine-tuning tunes every county with refined samples in one
    `fine_tune` call, which returns their copies stacked, and predicts
    them in one `lyra_predict` call on the stack; every county on the
    seed's shared parameters (no integration, context, fallbacks) is
    predicted in one call at the end.  Outputs come in `test_counties`
    order.  `ctx` is not read when `cfg.integration` is "none".
    """
    train_n, test_n, stats = models.train_n, models.test_n, models.stats
    tcfg = replace(cfg.train, seed=models.seed)
    w = models.lyra.w
    out = CountyPredictions()
    results, shared = {}, []  # shared: windows predicted on models.lyra
    tuned_windows, tuned_sets = [], []  # one window and sample set per tuned county
    for county in models.test_counties:
        target = test_n.get(county, cfg.test_year)
        label = models.model_labels[county, cfg.test_year]
        with _stage(f"history county {county}"):
            window = lookback_window(train_n, target, label, w)

        refined = None
        if cfg.integration != "none":
            result, refined = retrieve_refine(cfg, models, ctx, county)
            out.retrievals.append(result)
            out.refined_sets.append(refined)

        if refined is None or not refined.entries:
            if cfg.integration != "none":
                out.fallbacks.add(county)
            shared.append(window)
        elif cfg.integration == "finetune":
            tuned_windows.append(window)
            tuned_sets.append(refined)
        else:
            extra = [(e.record, stats.normalize_label(e.label_refined))
                     for e in refined.entries]
            with _stage(f"integration county {county}"):
                shared.append(lookback_window(train_n, target, label, w, extra))

    if tuned_sets:
        counties = [win.target.county for win in tuned_windows]
        with _stage(f"fine_tune seed {models.seed} counties {' '.join(counties)}"):
            tuned = fine_tune(models.lyra, tuned_sets, train_n, tcfg,
                              models.model_labels, stats=stats)
            results.update(zip(counties, lyra_predict(tuned, stats, tuned_windows)))
    if shared:
        with _stage(f"predict seed {models.seed}"):
            results.update(zip((win.target.county for win in shared),
                               lyra_predict(models.lyra, stats, shared)))
    for county in models.test_counties:
        pred = results[county]
        out.predictions[county] = pred.prediction
        for year, beta in zip(pred.history_years, pred.beta):
            out.attention.append((county, cfg.test_year, year, float(beta)))
    return out


def _evaluate_seed(variant, models: SeedModels, out: CountyPredictions) -> EvalReport:
    retrieved = sum(len(r.samples) for r in out.retrievals)
    return evaluate(out.predictions, models.test_n, models.seed, variant=variant,
                    fallbacks=out.fallbacks, retrieved=retrieved)


def _run_seed(cfg, ds, seed, adjacency):
    models = train_models(cfg, ds, seed)
    ctx = (retrieval_context(cfg, models, adjacency) if cfg.integration != "none"
           else RetrievalContext(adjacency=adjacency, sigma=0.0))
    out = predict_counties(cfg, models, ctx)
    with _stage(f"evaluate seed {seed}"):
        report = _evaluate_seed(cfg.variant, models, out)
    return report, (models, ctx.biases, out)


def run_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None,
                   adjacency: dict | None = None) -> EvalReport:
    """Execute the full pipeline for every seed and write artifacts.

    The test year's labels are guarded for the whole run; the report
    carries the audit's violation count (which must be zero).
    """
    with _stage("config"):
        cfg.validate()
    ds, adjacency = load(cfg, dataset, adjacency)
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
            export_diagnostics(cfg, merged, *first_artifacts)
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


def export_diagnostics(cfg: ExperimentConfig, report: EvalReport, models: SeedModels,
                       biases: dict, predicted: CountyPredictions) -> None:
    """Write the run's output directory.

    report.csv and predictions.csv cover all seeds; the diagnostic CSVs
    (attention, errors, retrieval, flags, bias) describe the first seed's run,
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
    for county, ty, hy, beta in predicted.attention:
        lines.append(f"{county},{ty},{hy},{beta!r}")
    _write(os.path.join(out, "attention.csv"), lines)

    first = report.seed_results[0]
    lines = ["county,year,error"]
    for row in sorted(first.rows, key=lambda r: r.county):
        lines.append(f"{row.county},{row.year},{row.error!r}")
    _write(os.path.join(out, "errors.csv"), lines)

    rt.save_retrieval_csv(predicted.retrievals, os.path.join(out, "retrieval.csv"))
    rt.save_flags_csv(predicted.retrievals, os.path.join(out, "flags.csv"))
    rf.save_bias_csv(biases, os.path.join(out, "bias.csv"))
    if predicted.refined_sets:
        rf.save_refined_csv(predicted.refined_sets, os.path.join(out, "refined.csv"))

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


def _gruatt_predictions(cfg, models: SeedModels):
    tcfg = replace(cfg.train, seed=models.seed)
    dims = cfg.dims if cfg.dims is not None else LyraDims(d=models.train_n.d)
    with _stage(f"train_gruatt seed {models.seed}"):
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
    ds, adjacency = load(cfg, dataset, adjacency)

    variants = ["ratar", "wo_refine", "lyra", "gruatt"]
    if cfg.integration == "finetune":
        variants.append("ratar_context")
    per_variant: dict[str, list] = {v: [] for v in variants}
    start = time.perf_counter()
    label_audit.reset()
    with label_audit.guard(cfg.test_year):
        for seed in cfg.seeds:
            models = train_models(cfg, ds, seed)
            ctx = retrieval_context(cfg, models, adjacency)

            def seed_eval(variant, sub_cfg):
                return _evaluate_seed(variant, models,
                                      predict_counties(sub_cfg, models, ctx))

            per_variant["ratar"].append(seed_eval("ratar", cfg))
            per_variant["wo_refine"].append(
                seed_eval("wo_refine", replace(cfg, refine=False)))
            per_variant["lyra"].append(
                seed_eval("lyra", replace(cfg, integration="none", refine=False)))
            if "ratar_context" in per_variant:
                per_variant["ratar_context"].append(
                    seed_eval("ratar_context", replace(cfg, integration="context")))
            gp = _gruatt_predictions(cfg, models)
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
