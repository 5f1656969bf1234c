"""Training loops for the global model, the backbones, and per-county
fine-tuning.

All loops share the same skeleton: per step record a tape, run the
batched forward, backprop MSE, and apply an adaptive-moment update with
global-norm gradient clipping.  The cross-year model's work is a list of
`LyraWindow`s built once (one per training season, or one per usable
refined sample when fine-tuning); each step's engine inputs are
`window_table` of that batch's windows.  Every source of randomness
(init, shuffling) is seeded through TrainConfig, so a (seed, config,
data) triple reproduces its loss trace bitwise.

Fine-tuning never touches the input parameters: it deep-copies the
store, trains the copy on refined retrieved samples, and returns it,
so one county's adaptation cannot leak into another's.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .backbone import (
    GruAttParams,
    GruParams,
    LyraDims,
    LyraParams,
    LyraWindow,
    embed_batch,
    global_forward,
    gruatt_forward,
    lyra_forward,
    window_table,
)
from .numcore import ComputeTape, ContractError, NumericError, Tensor


class TrainingError(RuntimeError):
    """Raised when optimization itself fails (e.g. divergence)."""


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int | None = 32  # None = full batch
    epochs: int = 100
    seed: int = 0
    clip_norm: float = 5.0
    fine_tune_lr: float = 1e-4
    fine_tune_epochs: int = 20
    freeze_encoder: bool = False
    # label fed to the target-year embedding during training; "model"
    # substitutes the global model's prediction, mirroring test time
    target_label_source: str = "model"

    def validate(self):
        if self.lr <= 0 or self.fine_tune_lr <= 0:
            raise ContractError("learning rates must be positive")
        if self.epochs < 1:
            raise ContractError("epochs must be at least 1")
        if self.fine_tune_epochs < 0:
            raise ContractError("fine-tune epochs must be nonnegative")
        if self.clip_norm <= 0:
            raise ContractError("clip norm must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ContractError("batch size must be positive or None")
        if self.target_label_source not in ("model", "observed"):
            raise ContractError(
                f"target_label_source must be 'model' or 'observed', got {self.target_label_source!r}"
            )
        return self


@dataclass
class TrainReport:
    losses: list
    seconds: float
    n_samples: int
    checkpoint: str | None = None

    @property
    def final_loss(self):
        return self.losses[-1] if self.losses else float("nan")


def save_train_report(report: TrainReport, csv_path: str, json_path: str) -> None:
    lines = ["epoch,loss"]
    for i, loss in enumerate(report.losses, start=1):
        lines.append(f"{i},{loss!r}")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {
        "final_loss": report.final_loss,
        "epochs": len(report.losses),
        "seconds": report.seconds,
        "n_samples": report.n_samples,
        "checkpoint": report.checkpoint,
    }
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Adam:
    """Adaptive-moment gradient step over a ParamStore.

    Gradients are first rescaled so their global norm never exceeds
    clip_norm, then each parameter gets the standard bias-corrected
    first/second-moment update.  Moments and parameters are updated in
    place.  A zero gradient on a fresh optimizer leaves parameters bitwise
    unchanged.
    """

    def __init__(self, store, lr, clip_norm=5.0, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0:
            raise ContractError("learning rate must be positive")
        if clip_norm <= 0:
            raise ContractError("clip norm must be positive")
        self._store = store
        self._lr = lr
        self._clip = clip_norm
        self._b1 = beta1
        self._b2 = beta2
        self._eps = eps
        self._t = 0
        self._m = {n: np.zeros_like(store.value(n)) for n in store.names()}
        self._v = {n: np.zeros_like(store.value(n)) for n in store.names()}

    def step(self):
        store = self._store
        names = store.names()
        total = np.sqrt(sum(float((store.grad(n) ** 2).sum()) for n in names))
        scale = self._clip / total if total > self._clip else 1.0
        self._t += 1
        b1, b2 = self._b1, self._b2
        for n in names:
            g = store.grad(n) * scale
            m, v = self._m[n], self._v[n]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self._t)
            vhat = v / (1 - b2 ** self._t)
            store.set_value(n, store.value(n) - self._lr * mhat / (np.sqrt(vhat) + self._eps))


def _check_labeled(train):
    unlabeled = [(r.county, r.year) for r in train.records if not r.has_label]
    if unlabeled:
        raise ContractError(f"training records without labels: {unlabeled[:5]}")
    if len(train) == 0:
        raise ContractError("empty training set")


def _labeled_arrays(train):
    _check_labeled(train)
    xs = np.stack([r.features for r in train.records])
    ys = np.array([r.yield_label for r in train.records], dtype=np.float64)
    return xs, ys


def _check_finite(loss, epoch):
    if not np.isfinite(loss):
        raise TrainingError(f"training diverged at epoch {epoch}: loss {loss}")


def _run_epochs(cfg, n, epoch_fn):
    """Shared epoch/minibatch driver; epoch_fn(idx array) -> (loss, size)."""
    rng = np.random.default_rng([cfg.seed, 211])
    losses = []
    start = time.perf_counter()
    for epoch in range(1, cfg.epochs + 1):
        try:
            if cfg.batch_size is None or cfg.batch_size >= n:
                loss, _ = epoch_fn(np.arange(n))
            else:
                perm = rng.permutation(n)
                total, seen = 0.0, 0
                for lo in range(0, n, cfg.batch_size):
                    chunk = perm[lo:lo + cfg.batch_size]
                    chunk_loss, size = epoch_fn(chunk)
                    total += chunk_loss * size
                    seen += size
                loss = total / seen
        except NumericError as exc:
            raise TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
        _check_finite(loss, epoch)
        losses.append(float(loss))
    return losses, time.perf_counter() - start


def _mse_step(params_store, opt, forward_fn, targets):
    tape = ComputeTape()
    preds = forward_fn(tape)
    loss = nc.mse_loss(preds, Tensor(targets))
    params_store.zero_grad()
    tape.backward(loss)
    opt.step()
    return float(loss.data)


def train_global(train, cfg: TrainConfig, H=64, readout_hidden=64):
    """Fit the global sequence regressor on all training records by MSE."""
    cfg.validate()
    xs, ys = _labeled_arrays(train)
    params = GruParams.init(d=train.d, H=H, readout_hidden=readout_hidden, seed=cfg.seed)
    opt = Adam(params.store, cfg.lr, cfg.clip_norm)

    def epoch_fn(idx):
        loss = _mse_step(params.store, opt,
                         lambda tape: global_forward(tape, params, xs[idx]),
                         ys[idx])
        return loss, idx.size

    losses, seconds = _run_epochs(cfg, len(ys), epoch_fn)
    return params, TrainReport(losses=losses, seconds=seconds, n_samples=len(ys))


def train_gru_att(train, cfg: TrainConfig, H=64, attn_hidden=32, head_hidden=64):
    """Fit the attention-pooled backbone (no cross-year stage) by MSE."""
    cfg.validate()
    xs, ys = _labeled_arrays(train)
    params = GruAttParams.init(d=train.d, H=H, attn_hidden=attn_hidden,
                               head_hidden=head_hidden, seed=cfg.seed)
    opt = Adam(params.store, cfg.lr, cfg.clip_norm)

    def epoch_fn(idx):
        loss = _mse_step(params.store, opt,
                         lambda tape: gruatt_forward(tape, params, xs[idx]),
                         ys[idx])
        return loss, idx.size

    losses, seconds = _run_epochs(cfg, len(ys), epoch_fn)
    return params, TrainReport(losses=losses, seconds=seconds, n_samples=len(ys))


def _target_labels(records, source: str, global_params) -> list:
    """The label fed to each record's target-year embedding.

    "model" substitutes the global model's prediction, mirroring test time;
    "observed" uses the record's own label.
    """
    if source == "observed":
        return [r.yield_label for r in records]
    if global_params is None:
        raise ContractError("target_label_source='model' needs global_params")
    xs = np.stack([r.features for r in records])
    return global_forward(None, global_params, xs).data.tolist()


def training_windows(train, w: int, labels) -> list:
    """One LyraWindow per (county, year) with at least one prior year.

    The context holds the county's last w years strictly before the
    target with their observed labels, truncated to what the county
    actually has, so a two-year county still yields one window.
    labels[i] is the target-year label of train.records[i]; windows come
    in (county, year) order.
    """
    if w < 1:
        raise ContractError("look-back window must be at least 1")
    windows, prior = [], []
    for rec, label in zip(train.records, labels):  # records sorted by (county, year)
        if prior and prior[-1][0].county != rec.county:
            prior = []
        if prior:
            windows.append(LyraWindow(rec, label, tuple(prior[-w:])))
        prior.append((rec, rec.yield_label))
    return windows


def sync_year_rows(p: LyraParams, trained_years) -> list:
    """Copy each untrained year-table row from its nearest trained year.

    A test year never appears as a training target, so its embedding row
    would otherwise stay at random init; pinning it to the nearest
    trained year keeps the target embedding in-distribution.
    """
    trained = sorted(set(trained_years))
    if not trained:
        raise ContractError("cannot sync year rows without trained years")
    table = p.store.value("year_table").copy()
    synced = []
    for year in range(p.year_min, p.year_max + 1):
        if year in trained:
            continue
        nearest = min(trained, key=lambda t: (abs(t - year), t))
        table[p.year_row(year)] = table[p.year_row(nearest)]
        synced.append(year)
    p.store.set_value("year_table", table)
    return synced


def train_lyra(train, w: int, cfg: TrainConfig, dims: LyraDims | None = None,
               year_max: int | None = None, global_params: GruParams | None = None):
    """Fit the full cross-year model on all window samples by MSE.

    The supervision target is always the observed label; the label fed
    into the target year's own embedding never is (see TrainConfig).
    Untrained year-table rows are synced to the nearest trained year
    afterwards so a held-out year can be embedded.
    """
    cfg.validate()
    if dims is None:
        dims = LyraDims(d=train.d)
    if dims.d != train.d:
        raise ContractError(f"dims.d={dims.d} does not match dataset d={train.d}")
    if not train.years:
        raise ContractError("empty training set")
    year_min = train.years[0]
    year_max = train.years[-1] if year_max is None else year_max
    params = LyraParams.init(dims=dims, w=w, year_min=year_min, year_max=year_max,
                             seed=cfg.seed)
    _check_labeled(train)
    labels = _target_labels(train.records, cfg.target_label_source, global_params)
    windows = training_windows(train, w, labels)
    if not windows:
        raise ContractError("no trainable samples: every county has a single year")
    targets = np.array([win.target.yield_label for win in windows], dtype=np.float64)
    opt = Adam(params.store, cfg.lr, cfg.clip_norm)

    def epoch_fn(idx):
        xs, triples, samples = window_table(params, [windows[i] for i in idx])
        loss = _mse_step(
            params.store, opt,
            lambda tape: lyra_forward(tape, params, xs, triples, samples)[0],
            targets[idx])
        return loss, idx.size

    losses, seconds = _run_epochs(cfg, len(windows), epoch_fn)
    sync_year_rows(params, train.years)
    return params, TrainReport(losses=losses, seconds=seconds, n_samples=len(windows))


def fine_tune(p: LyraParams, sample_set, train, cfg: TrainConfig,
              stats=None, global_params: GruParams | None = None) -> LyraParams:
    """Adapt a copy of the parameters to one county's refined samples.

    Returns a county-specific copy after a few full-batch MSE steps on
    the refined retrieved samples; the input parameters are never
    mutated.  Each refined entry with history is one window: its season
    as the target, the source county's last w training years before it
    as context, and its normalized refined label as supervision.  An
    empty or unusable sample set returns an unchanged copy with a
    warning.  freeze_encoder pins the sequence encoder and attention
    pooling by reusing their pooled outputs as constants.
    """
    cfg.validate()
    tuned = p.copy()
    if not sample_set.entries:
        warnings.warn(f"empty fine-tune sample set for query {sample_set.query}")
        return tuned
    usable = []  # (target record, history records, normalized refined label)
    for entry in sample_set.entries:
        rec = entry.record
        years = [y for y in train.county_years(rec.county) if y < rec.year]
        if not years:
            warnings.warn(
                f"retrieved sample ({rec.county},{rec.year}) has no history; skipped"
            )
            continue
        refined = entry.label_refined
        usable.append((train.get(rec.county, rec.year),
                       [train.get(rec.county, y) for y in years[-tuned.w:]],
                       stats.normalize_label(refined) if stats is not None else refined))
    if not usable or cfg.fine_tune_epochs == 0:
        return tuned

    seasons, histories, supervision = zip(*usable)
    labels = _target_labels(seasons, cfg.target_label_source, global_params)
    windows = [LyraWindow(rec, label, tuple((h, h.yield_label) for h in history))
               for rec, label, history in zip(seasons, labels, histories)]
    xs, triples, samples = window_table(tuned, windows)
    targets = np.asarray(supervision, dtype=np.float64)

    pooled_const = None
    if cfg.freeze_encoder:
        _, pooled, _ = embed_batch(None, tuned, xs, triples)
        pooled_const = pooled.data

    opt = Adam(tuned.store, cfg.fine_tune_lr, cfg.clip_norm)

    def forward(tape):
        return lyra_forward(tape, tuned, xs, triples, samples, pooled_const=pooled_const)[0]

    for epoch in range(1, cfg.fine_tune_epochs + 1):
        try:
            loss = _mse_step(tuned.store, opt, forward, targets)
        except NumericError as exc:
            raise TrainingError(f"fine-tuning diverged at epoch {epoch}: {exc}") from exc
        _check_finite(loss, epoch)
    return tuned
