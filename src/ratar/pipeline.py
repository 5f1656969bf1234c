"""End-to-end experiment orchestration.

A run executes one chain per seed.  Each link is a public call, and the
experiment driver and every CLI subcommand are built from the same links:

- `load`: the dataset with no label from the test year on, the adjacency,
  and the labelled test split, which only `evaluate` reads;
- `train_models`: split by test year, normalize the panel on training
  statistics and split it again (the normalized splits share one block),
  and train the global and the cross-year model (or take them from
  checkpoints), giving a `SeedModels`.  Its `model_labels` table holds
  the global model's prediction for every training and test season, one
  value per block row, made once per seed by one `global_forward` over
  each split; every label the global model stands in for (the
  cross-year model's target seasons in training, fine-tuning and
  prediction, the residuals and the training embeddings) is read from
  it by row;
- `retrieval_context`: residuals, training embeddings, bias matrices,
  their rows extended to the test year (a `refinement.BiasTable`) and
  the resolved refinement sigma, giving a `RetrievalContext`.  The
  embeddings and the labels the bias matrices read are arrays with a
  row per training season, in the training split's row order.  The
  residuals (and, in embedding mode, the mean embeddings, built on
  first read) are held as a `retrieval.ResidualPanel`, built from
  arrays, whose all-pairs similarity table is built once per seed and
  whose screen once per retrieval setting, for every query at once.
  Every county's bias matrix comes from one `build_bias_matrix` call;
- `retrieve_refine`: every test county's retrieved samples, with their
  labels refined toward the test year.  Each county reads its row of
  the screen and computes exact similarities for its short list only;
  one `refine_labels` call then refines every county's samples, as
  arrays cut by per-county offsets.  The context keeps the results per
  setting, so runs sharing it retrieve and refine the counties once;
- `predict_counties`: retrieve and refine every county, build every
  county's look-back window in one `lookback_windows` call, integrate
  (per-county fine-tuning or context augmentation), then predict,
  giving `CountyPredictions`;
- `evaluate`: physical-unit RMSE.

`run_experiment`, `sweep` and `ablate` share one driver over a table of
named variant configs.  Per seed it trains the global model once, and
the cross-year model and its retrieval context once per distinct
look-back window, then predicts and evaluates every variant on them.
Reports aggregate mean and standard deviation across seeds and carry
their first seed's models, biases and predictions for export.

Every integration mode predicts through the same call: `lyra_predict`
runs one batched engine forward over a list of windows.  Fine-tuning
gives each county with refined samples its own copy of the parameters;
one `fine_tune` call trains all of a seed's copies, stacked on a leading
model axis, and one `lyra_predict` on the stack predicts their counties.
Context augmentation appends the refined samples' rows, with their
normalized refined labels, to the look-back window that cross-year
attention runs over.

Every stage error is re-raised tagged with its stage name, non-finite
model labels, training embeddings and predictions included: each is
checked inside the stage that made it.  While a seed runs, every stage
also adds its own seconds, less those of the stages nested in it, to the
seed's total for its kind, the stage name's first word
(`EvalReport.stage_seconds`, written to timings.json).  No
stage but `evaluate` can read a test label: the dataset `load` returns
holds none, so a stage that reads one gets NaN, which its named finite
check refuses.  Counties whose retrieval comes back empty fall back to
the plain cross-year prediction and are flagged in the report.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import math
import os
import time
import warnings
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
    lookback_windows,
    lyra_predict,
    model_labels,
    save_checkpoint,
)
from .data import (
    Dataset,
    NormStats,
    SyntheticConfig,
    generate_synthetic,
    load_adjacency,
    load_dataset,
    split_by_test_year,
    zscore_apply,
    zscore_fit,
)
from .numcore import ContractError, _check_finite
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


# The current seed's stage seconds by kind, while `_run_variants` runs it.
_STAGE_SECONDS = contextvars.ContextVar("_STAGE_SECONDS", default=None)
# The innermost open stage's running total of its nested stages' seconds.
_NESTED_SECONDS = contextvars.ContextVar("_NESTED_SECONDS", default=None)


@contextmanager
def _timing_stages(seconds: dict):
    """Within the block, every `_stage` adds its seconds to `seconds`."""
    token = _STAGE_SECONDS.set(seconds)
    try:
        yield
    finally:
        _STAGE_SECONDS.reset(token)


@contextmanager
def _stage(name):
    """Tag errors raised in the block with the stage name, and add the
    block's own seconds, less its nested stages', to its kind (the name's
    first word) in `_STAGE_SECONDS`."""
    start = time.perf_counter()
    nested = [0.0]
    token = _NESTED_SECONDS.set(nested)
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"[{name}] {exc}") from exc
    finally:
        _NESTED_SECONDS.reset(token)
        elapsed = time.perf_counter() - start
        outer = _NESTED_SECONDS.get()
        if outer is not None:
            outer[0] += elapsed
        seconds = _STAGE_SECONDS.get()
        if seconds is not None:
            kind = name.split()[0]
            seconds[kind] = seconds.get(kind, 0.0) + (elapsed - nested[0])


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
        if not isinstance(self.seeds, (tuple, list)) or not all(
                isinstance(seed, int) and not isinstance(seed, bool) for seed in self.seeds):
            raise ContractError(f"seeds must be a list of ints, got {self.seeds!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ContractError(f"seeds must be distinct, got {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ContractError(f"seeds must be non-negative, got {list(self.seeds)}")
        if self.retrieval_mode not in _RETRIEVAL_MODES:
            raise ContractError(f"retrieval_mode must be one of {_RETRIEVAL_MODES}")
        if self.integration not in _INTEGRATION_MODES:
            raise ContractError(f"integration must be one of {_INTEGRATION_MODES}")
        if self.w < 1:
            raise ContractError("look-back window must be at least 1")
        if self.top_k is not None and self.top_k < 1:
            raise ContractError(f"top_k must be at least 1, got {self.top_k}")
        if not math.isfinite(self.threshold):
            raise ContractError(f"threshold must be finite, got {self.threshold}")
        if self.sigma is not None and not 0 <= self.sigma < math.inf:
            raise ContractError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.refine_copies < 1:
            raise ContractError("refine_copies must be at least 1")
        widths = {"global_H": (self.global_H, 1),
                  "global_readout_hidden": (self.global_readout_hidden, 0)}
        if self.dims is not None:
            widths.update({f"dims.{name}": (getattr(self.dims, name), low) for name, low in (
                ("d", 1), ("H", 1), ("Z", 1), ("E", 1), ("attn_hidden", 0), ("mlp_hidden", 0))})
        for name, (width, low) in widths.items():
            if width < low:
                raise ContractError(f"{name} must be at least {low}, got {width}")
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
    audit_violations: int = 0  # always 0; the benchmark worker still reads it
    retrieved_total: float = 0.0
    # the run's wall-clock seconds per seed and stage kind, {seed: {kind: s}};
    # a kind sums its stages' own seconds, less those of stages nested in
    # them, so a seed's kinds add up to no more than its time
    # (`export_diagnostics` writes it to timings.json)
    stage_seconds: dict = field(default_factory=dict, compare=False)
    # the first seed's (SeedModels, bias matrices, CountyPredictions), for
    # export and inspection; written to no artifact
    first_seed: tuple | None = field(default=None, repr=False, compare=False)


def evaluate(predictions, test, seed, variant="eval", fallbacks=frozenset(),
             retrieved=0) -> EvalReport:
    """Physical-unit RMSE of per-county predictions on one test split.

    Only labeled test records count; a labeled county without a
    prediction is a contract error naming the county.  `test` is the
    labelled test split `load` returns, which no other stage gets.
    """
    labels = test.labels().tolist()
    rows = []
    for (county, year), label in zip(test.keys(), labels):
        if label != label:  # NaN: unlabeled
            continue
        if county not in predictions:
            raise ContractError(f"missing prediction for county {county}")
        pred = float(predictions[county])
        rows.append(PredRow(county, year, pred, label, pred - label, county in fallbacks))
    if not rows:
        raise ContractError("no labeled test records to evaluate")
    rmse = float(np.sqrt(np.mean([r.error ** 2 for r in rows])))
    sr = SeedResult(seed=seed, rmse=rmse, rows=rows, retrieved_samples=retrieved)
    return EvalReport(variant=variant, seed_results=[sr], rmse_mean=rmse, rmse_std=0.0)


def _merge_reports(variant, per_seed, seconds, stage_seconds):
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
        retrieved_total=retrieved,
        stage_seconds=stage_seconds,
        first_seed=per_seed[0].first_seed,
    )


# ---------------------------------------------------------------------------
# the per-seed API


def load(cfg: ExperimentConfig, dataset: Dataset | None = None,
         adjacency: dict | None = None):
    """The run's (dataset, adjacency, test); a given adjacency passes through.

    The dataset is `dataset` (or the panel `cfg.data_path` or
    `cfg.synthetic` gives) with no label from `cfg.test_year` on, which
    the caller's panel keeps; `test` is that panel's labelled test split,
    for `evaluate` only.  The adjacency comes from `cfg.adjacency_path`
    or the dataset's own neighbor lists.
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
            adjacency = {county: list(nbs) for county, nbs in dataset.neighbors.items()}
    with _stage("split"):
        _train, test = split_by_test_year(dataset, cfg.test_year)
    return dataset.labels_before(cfg.test_year), adjacency, test


@dataclass
class SeedModels:
    """One seed's normalized split and models.

    `train_n` and `test_n` share one normalized block and the label array
    of the dataset they were split from, which for a run holds no test
    label (see `load`).  A report is None for a model that was passed in
    rather than trained.
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
        return self.test_n.counties

    @cached_property
    def model_labels(self) -> np.ndarray:
        """The global model's normalized prediction per block row, indexed
        like `Dataset.row_years`; NaN on rows in neither split.

        One `global_forward` over the training rows (the batch every
        training-side reader shares) and one over the test rows.
        """
        labels = model_labels(self.f, self.train_n)
        test = self.test_n.rows
        labels[test] = model_labels(self.f, self.test_n)[test]
        return labels


def _stats_bits(stats: NormStats) -> dict:
    return {key: (arr.shape, arr.tobytes()) for key, arr in stats.to_arrays().items()}


def train_models(cfg: ExperimentConfig, ds: Dataset, seed: int, f=None, lyra=None,
                 with_lyra=True, checkpoints=None) -> SeedModels:
    """Split, normalize, and train the models a seed's run needs.

    Pre-trained parameters (from checkpoints) can be injected via `f`
    and `lyra` (whose window must be `cfg.w` and whose last year must be
    `cfg.test_year`) to skip the corresponding training runs;
    `with_lyra` false skips the cross-year model.  `checkpoints` maps
    "f" or "lyra" to the (path, statistics) of the file the injected
    parameters came from: a checkpoint saved with other statistics than
    this training split's (or none) is refused before any model is
    trained.
    """
    if lyra is not None and lyra.w != cfg.w:
        raise ContractError(
            f"cross-year model has look-back window w={lyra.w}, config has w={cfg.w}")
    if lyra is not None and lyra.year_max != cfg.test_year:
        raise ContractError(
            f"cross-year model was trained for test year {lyra.year_max}, "
            f"config has test year {cfg.test_year}")
    with _stage("split"):
        train_phys, _test = split_by_test_year(ds, cfg.test_year)
    with _stage("normalize"):
        stats = zscore_fit(train_phys)
        train_n, test_n = split_by_test_year(zscore_apply(ds, stats), cfg.test_year)
    for key, (path, saved) in (checkpoints or {}).items():
        if saved is None or _stats_bits(saved) != _stats_bits(stats):
            # only the cross-year model records the test year it was fit for
            fit_for = f" (fit for test year {lyra.year_max})" if key == "lyra" else ""
            raise ContractError(
                f"checkpoint {path}{fit_for} does not hold the normalization "
                f"statistics of this run's training split (test year {cfg.test_year})")
    models = SeedModels(seed=seed, stats=stats, train_n=train_n, test_n=test_n, f=f, lyra=lyra)
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


def _training_embeddings(models: SeedModels) -> np.ndarray:
    """One yearly embedding per training season, in `train_n.rows` order.

    These embeddings feed the per-year regressors and county matching,
    both of which compare years against each other, so they are
    computed in a year-neutral frame: the label input is the global
    model's prediction from `models.model_labels` (the substitution the
    target year gets) and the year-embedding input is held at the mean
    training-year row. Feeding year-identity inputs (the stored label,
    or the year's own learned embedding row) would let a regressor fit
    on year s track the very cross-year drift the bias matrix is
    supposed to expose, collapsing the measured biases toward zero.
    A non-finite embedding raises NumericError.
    """
    train_n = models.train_n
    xs = np.take(train_n.features, train_n.rows, axis=0)
    lyra = models.lyra.copy()
    table = lyra.store.value("year_table")
    neutral = table[[lyra.year_row(year) for year in train_n.years]].mean(axis=0)
    lyra.store.set_value("year_table", np.tile(neutral, (table.shape[0], 1)))
    triples = (np.arange(len(train_n)), models.model_labels[train_n.rows],
               train_n.row_years[train_n.rows] - lyra.year_min)
    z_all, _, _ = embed_batch(None, lyra, xs, triples)
    return _check_finite(z_all.data, "training embeddings")


def _refinement_setup(models: SeedModels, Z):
    """Per-year regressors and every county's bias matrix (physical units).

    `Z` holds the training embeddings, a row per season in `train_n.rows`
    order.  All per-year fits share one standardization, computed over
    every training year's embeddings. Each regressor is evaluated on other
    years' embeddings when the bias matrices are built, so the scale
    must be common across years; a per-year scale would blow up along
    dimensions that vary little within a year but drift between years.
    """
    train_n, stats = models.train_n, models.stats
    y = train_n.labels() * stats.label_std + stats.label_mean
    years = train_n.row_years[train_n.rows]
    z_mean, z_scale = rf.embedding_moments(Z)
    regressors = {}
    for year in train_n.years:
        in_year = years == year  # its rows, in county order
        if in_year.sum() < 2:
            warnings.warn(f"year {year} has {in_year.sum()} records; regressor skipped")
            continue
        regressors[year] = rf.fit_year_regressor(year, Z[in_year], y[in_year],
                                                 z_mean=z_mean, z_scale=z_scale)
    return regressors, rf.build_bias_matrix(regressors, train_n, Z, y)


@dataclass
class RetrievalContext:
    """What per-county retrieval and refinement read, for one seed.

    `residuals` (a `retrieval.ResidualPanel`) is filled in residual
    mode only, and None otherwise.  The training `embeddings` (a row per
    season of `train`, in its row order), the per-year `regressors`, the
    per-county `biases`, their `bias_table` toward the test year and
    `mean_emb` (the mean embeddings as a `retrieval.embedding_panel`,
    built on first read) need the cross-year model and are None or empty
    without one.  `sigma` is the refinement noise scale in physical units.
    `retrieved` and `refined` keep what `retrieve_refine` computed from
    it, one entry per setting holding every test county, so that runs
    sharing the context (the variants of one driver run) retrieve and
    refine the counties once per setting.
    """
    adjacency: dict
    sigma: float
    train: Dataset
    residuals: rt.ResidualPanel | None = None
    embeddings: np.ndarray | None = None
    regressors: dict = field(default_factory=dict)
    biases: dict = field(default_factory=dict)
    bias_table: rf.BiasTable | None = None
    retrieved: dict = field(default_factory=dict)
    refined: dict = field(default_factory=dict)

    @cached_property
    def mean_emb(self) -> rt.ResidualPanel | None:
        """Each county's mean training embedding, as a `retrieval.embedding_panel`."""
        if self.embeddings is None:
            return None
        return rt.embedding_panel(self.train.counties,
                                  np.stack([self.embeddings[start:stop].mean(axis=0)
                                            for _, start, stop in self.train.runs()]))


def retrieval_context(cfg: ExperimentConfig, models: SeedModels,
                      adjacency: dict) -> RetrievalContext:
    """Residuals, embeddings, bias matrices and resolved sigma for one seed.

    The training embeddings are computed once; the bias matrices and
    the embedding-mode match keys both come from them, and the bias
    rows are extended to `cfg.test_year` once.  An unset
    `cfg.sigma` resolves to a fixed fraction of the training label std.
    """
    sigma = (cfg.sigma if cfg.sigma is not None
             else _SIGMA_FRACTION * models.stats.label_std)
    ctx = RetrievalContext(adjacency=adjacency, sigma=sigma, train=models.train_n)
    if cfg.retrieval_mode == "residual":
        with _stage(f"residuals seed {models.seed}"):
            ctx.residuals = rt.compute_residuals(models.train_n, models.model_labels,
                                                 models.stats)
    if models.lyra is not None:
        with _stage(f"refinement_setup seed {models.seed}"):
            ctx.embeddings = _training_embeddings(models)
            ctx.regressors, ctx.biases = _refinement_setup(models, ctx.embeddings)
            ctx.bias_table = rf.extrapolate_biases(ctx.biases, models.train_n, cfg.test_year)
    return ctx


def retrieve_refine(cfg: ExperimentConfig, models: SeedModels, ctx: RetrievalContext):
    """Every test county's retrieval result, with its retrieved labels
    refined toward the test year: (results in `models.test_counties`
    order, their `refinement.RefinedSampleSet`).

    Each county is retrieved on its own; all of them are refined in one
    `refine_labels` call.  A county's refinement noise is seeded from the
    seed and its index in `models.test_counties`, so it does not depend
    on the other counties.  With `cfg.refine` off, labels pass through
    unshifted and without noise.  The results are kept in `ctx.retrieved`
    and `ctx.refined`, keyed by the settings they depend on: the counties
    are retrieved once per retrieval setting and refined once per
    refinement setting.
    """
    counties, train_n = models.test_counties, models.train_n
    key = (cfg.retrieval_mode, cfg.threshold, cfg.top_k)
    if key not in ctx.retrieved:
        results = []
        for county in counties:
            with _stage(f"retrieval county {county}"):
                if cfg.retrieval_mode == "neighboring":
                    results.append(rt.retrieve_neighboring(county, ctx.adjacency, train_n))
                else:
                    panel = ctx.residuals if cfg.retrieval_mode == "residual" else ctx.mean_emb
                    results.append(rt.retrieve(county, panel, train_n,
                                               threshold=cfg.threshold, top_k=cfg.top_k))
        ctx.retrieved[key] = results
    results = ctx.retrieved[key]
    refine_key = key + (cfg.refine, cfg.refine_copies, cfg.test_year)
    if refine_key not in ctx.refined:
        with _stage(f"refinement seed {models.seed}"):
            ctx.refined[refine_key] = rf.refine_labels(
                results,
                train_n,
                ctx.bias_table if cfg.refine else None,
                sigma=ctx.sigma if cfg.refine else 0.0,
                seeds=[models.seed * 1000003 + idx for idx in range(len(counties))],
                target_year=cfg.test_year,
                copies=cfg.refine_copies,
                stats=models.stats,
            )
    return results, ctx.refined[refine_key]


@dataclass
class CountyPredictions:
    """One seed's per-county outputs, in `SeedModels.test_counties` order."""
    predictions: dict = field(default_factory=dict)
    fallbacks: set = field(default_factory=set)
    retrievals: list = field(default_factory=list)
    refined: rf.RefinedSampleSet | None = None
    attention: list = field(default_factory=list)  # (county, year, history year, beta)


def predict_counties(cfg: ExperimentConfig, models: SeedModels,
                     ctx: RetrievalContext | None) -> CountyPredictions:
    """Retrieve/refine/integrate/predict for every test county.

    Every county is retrieved and refined by one `retrieve_refine` call,
    then every county's look-back window, with any context extras, comes
    from one `lookback_windows` call.  Fine-tuning tunes every county with
    refined samples in one `fine_tune` call, which returns their copies
    stacked, and predicts them in one `lyra_predict` call on the stack;
    every county on the seed's shared parameters (no integration,
    context, fallbacks) is predicted in one call at the end.  Outputs come in `test_counties`
    order.  `ctx` is not read when `cfg.integration` is "none".
    """
    train_n, test_n, stats = models.train_n, models.test_n, models.stats
    counties = models.test_counties
    out = CountyPredictions()
    sizes = np.zeros(len(counties), dtype=np.int64)  # per county: its context extras
    rows, labels = np.empty(0, np.int64), np.empty(0)  # every county's context extras
    is_tuned = np.zeros(len(counties), dtype=bool)
    if cfg.integration != "none":
        out.retrievals, out.refined = retrieve_refine(cfg, models, ctx)
        found = out.refined.sizes > 0
        out.fallbacks = {county for county, hit in zip(counties, found.tolist()) if not hit}
        if cfg.integration == "finetune":
            is_tuned = found
        else:
            sizes, rows, labels = out.refined.sizes, out.refined.entries, out.refined.label_refined
    with _stage(f"history seed {models.seed}"):
        # one season per county, so the test rows come in county order
        windows = lookback_windows(train_n, test_n.rows, models.model_labels, models.lyra.w,
                                   (sizes, rows, stats.normalize_label(labels)))

    results = {}
    if is_tuned.any():
        tuned = out.refined.select(is_tuned)
        with _stage(f"fine_tune seed {models.seed} counties {' '.join(tuned.queries)}"):
            stack = fine_tune(models.lyra, tuned, train_n,
                              replace(cfg.train, seed=models.seed), models.model_labels,
                              stats=stats)
            at = np.flatnonzero(is_tuned)
            results.update(zip(at.tolist(), lyra_predict(stack, stats, train_n, windows.take(at))))
    if not is_tuned.all():
        with _stage(f"predict seed {models.seed}"):
            at = np.flatnonzero(~is_tuned)
            results.update(zip(at.tolist(),
                               lyra_predict(models.lyra, stats, train_n, windows.take(at))))
    for i, county in enumerate(counties):
        out.predictions[county] = results[i].prediction
        out.attention += [(county, cfg.test_year, year, float(beta))
                          for year, beta in zip(results[i].history_years, results[i].beta)]
    return out


def _gruatt_predictions(cfg, models: SeedModels) -> CountyPredictions:
    tcfg = replace(cfg.train, seed=models.seed)
    dims = cfg.dims if cfg.dims is not None else LyraDims(d=models.train_n.d)
    with _stage(f"train_gruatt seed {models.seed}"):
        params, _ = train_gru_att(models.train_n, tcfg, H=dims.H,
                                  attn_hidden=dims.attn_hidden,
                                  head_hidden=dims.mlp_hidden)
    test_n = models.test_n  # one season per county, so its rows come in county order
    with _stage(f"predict seed {models.seed}"):
        preds = _check_finite(gruatt_forward(None, params, np.take(test_n.features, test_n.rows,
                                                                   axis=0)).data, "predictions")
    return CountyPredictions(dict(zip(test_n.counties, map(models.stats.denormalize_label, preds))))


def _run_variants(cfg: ExperimentConfig, variants: list, dataset, adjacency) -> list:
    """One merged report per (name, config) variant, in table order.

    Variants may differ from `cfg` only in `w` and in what prediction
    reads (threshold, top_k, refine, integration); a None config is the
    pooled-only GRU-attention baseline.  All are validated before any
    data is loaded.  Every report carries the run's seconds.
    """
    groups: dict[int, list] = {}  # w -> (index, name, config) of the variants sharing it
    with _stage("config"):
        for i, (name, sub) in enumerate(variants):
            if sub is not None:
                sub.validate()
            groups.setdefault(cfg.w if sub is None else sub.w, []).append((i, name, sub))
    ds, adjacency, test = load(cfg, dataset, adjacency)
    per_variant = [[] for _ in variants]
    stage_seconds = {seed: {} for seed in cfg.seeds}
    start = time.perf_counter()
    for n, seed in enumerate(cfg.seeds):
        with _timing_stages(stage_seconds[seed]):
            f = None  # the seed's global model, once trained
            for w, members in groups.items():
                models = train_models(replace(cfg, w=w), ds, seed, f=f)
                f = models.f
                ctx = None
                if any(sub is not None and sub.integration != "none"
                       for *_, sub in members):
                    ctx = retrieval_context(cfg, models, adjacency)
                for i, name, sub in members:
                    with _stage(f"evaluate {name} seed {seed}"):
                        out = (_gruatt_predictions(cfg, models) if sub is None
                               else predict_counties(sub, models, ctx))
                        report = evaluate(out.predictions, test, seed, name,
                                          out.fallbacks,
                                          sum(len(r.samples) for r in out.retrievals))
                    if n == 0:
                        report.first_seed = (models, ctx.biases if ctx else {}, out)
                    per_variant[i].append(report)
                del models, ctx, out  # nothing of this seed is alive in the next one
    seconds = time.perf_counter() - start
    return [_merge_reports(name, reports, seconds, stage_seconds)
            for (name, _sub), reports in zip(variants, per_variant)]


def run_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None,
                   adjacency: dict | None = None) -> EvalReport:
    """Execute the full pipeline for every seed and write artifacts."""
    (report,) = _run_variants(cfg, [(cfg.variant, cfg)], dataset, adjacency)
    if cfg.out_dir is not None:
        with _stage("export"):
            export_diagnostics(cfg, report)
    return report


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


def export_diagnostics(cfg: ExperimentConfig, report: EvalReport) -> None:
    """Write the run's output directory.

    report.csv and predictions.csv cover all seeds; the diagnostic CSVs
    (attention, errors, retrieval, flags, bias, refined) describe the first
    seed's run in `cfg.seeds` order, matching their fixed single-run column
    layouts, and the checkpoints, named by that seed, hold its models (all
    from `report.first_seed`).  Only timings.json holds wall-clock values:
    the run's seconds and its stage seconds per seed and stage kind (see
    `EvalReport.stage_seconds`).  Every other file is byte-identical
    between reruns.
    """
    models, biases, predicted = report.first_seed
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    os.makedirs(os.path.join(out, "ckpt"), exist_ok=True)

    with open(os.path.join(out, "run.json"), "w") as fh:
        json.dump(_config_blob(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(os.path.join(out, "timings.json"), "w") as fh:
        json.dump({"seconds": report.seconds,
                   "stage_seconds": [{"seed": seed, "stages": stages}
                                     for seed, stages in report.stage_seconds.items()]},
                  fh, indent=2, sort_keys=True)
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

    first = next(sr for sr in report.seed_results if sr.seed == models.seed)
    lines = ["county,year,error"]
    for row in sorted(first.rows, key=lambda r: r.county):
        lines.append(f"{row.county},{row.year},{row.error!r}")
    _write(os.path.join(out, "errors.csv"), lines)

    rt.save_retrieval_csv(predicted.retrievals, models.train_n,
                          os.path.join(out, "retrieval.csv"))
    rt.save_flags_csv(predicted.retrievals, os.path.join(out, "flags.csv"))
    rf.save_bias_csv(biases, os.path.join(out, "bias.csv"))
    if predicted.refined is not None:
        rf.save_refined_csv(predicted.refined, models.train_n, os.path.join(out, "refined.csv"))

    save_checkpoint(os.path.join(out, "ckpt", f"global_seed{models.seed}.npz"),
                    models.f, models.stats)
    save_checkpoint(os.path.join(out, "ckpt", f"lyra_seed{models.seed}.npz"),
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
    """One report per axis value, seeds and models shared, plus sweep.csv.

    Every value is validated before any training.  Threshold and top-k
    values share every model of a seed; look-back values share its
    global model.
    """
    if axis not in _SWEEP_AXES:
        raise ContractError(f"sweep axis must be one of {sorted(_SWEEP_AXES)}")
    if not values:
        raise ContractError("sweep needs at least one value")
    variants = [(f"{axis}={value}", _SWEEP_AXES[axis](cfg, value)) for value in values]
    reports = _run_variants(cfg, variants, dataset, adjacency)
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        lines = ["axis,value,rmse_mean,rmse_std,retrieved_total"]
        for value, rep in zip(values, reports):
            lines.append(f"{axis},{value},{rep.rmse_mean!r},{rep.rmse_std!r},"
                         f"{rep.retrieved_total!r}")
        _write(os.path.join(cfg.out_dir, "sweep.csv"), lines)
    return reports


def ablate(cfg: ExperimentConfig, dataset: Dataset | None = None,
           adjacency: dict | None = None) -> dict:
    """Run the variant matrix, sharing trained models within each seed.

    Variants: "ratar" (full pipeline), "wo_refine" (retrieval kept, raw
    labels), "lyra" (no retrieval), "gruatt" (no cross-year stage), and
    "ratar_context" (context integration) when the base integration is
    fine-tuning.
    """
    with _stage("config"):
        if cfg.integration == "none":
            raise ContractError("ablate needs an integrating base config")
    variants = [("ratar", cfg), ("wo_refine", replace(cfg, refine=False)),
                ("lyra", replace(cfg, integration="none", refine=False)), ("gruatt", None)]
    if cfg.integration == "finetune":
        variants.append(("ratar_context", replace(cfg, integration="context")))
    reports = dict(zip((name for name, _sub in variants),
                       _run_variants(cfg, variants, dataset, adjacency)))
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        lines = ["variant,rmse_mean,rmse_std"]
        for name, rep in reports.items():
            lines.append(f"{name},{rep.rmse_mean!r},{rep.rmse_std!r}")
        _write(os.path.join(cfg.out_dir, "ablate.csv"), lines)
    return reports
