"""Training loops for the global model, the backbones, and per-county
fine-tuning.

All loops share one epoch driver and one step: record a tape, run the
batched forward, backprop MSE, and apply an adaptive-moment update with
global-norm gradient clipping.  The cross-year model's work is a list of
`LyraWindow`s built once by `backbone.lookback_window` (one per training
season with an earlier season, or one per usable refined sample when
fine-tuning); each step's engine inputs are `window_table` of that
batch's windows.  The label a window feeds its target season comes from
the caller's `target_labels` table, keyed (county, year); the pipeline
fills it with the global model's predictions (`backbone.model_labels`),
so the cross-year loops never run the global model.  Every source of
randomness (init, shuffling) is seeded through TrainConfig, so a (seed,
config, data) triple reproduces its loss trace bitwise.

Fine-tuning never touches the input parameters.  It trains one copy of
them per county, on that county's refined retrieved samples, and all of a
seed's copies train at once: stacked on a leading model axis, one tape
per epoch, with a loss and a gradient clip that keep each copy's update
exactly its own, so one county's adaptation cannot leak into another's.
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
    embed_batch,
    global_forward,
    gruatt_forward,
    lookback_window,
    lyra_forward,
    stack_tables,
    window_table,
)
from .numcore import ComputeTape, ContractError, NumericError, Tensor
from .refinement import RefinedSampleSet


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
    """Adaptive-moment gradient step over a ParamStore's flat vector.

    Gradients are first rescaled so their global norm never exceeds
    clip_norm, then the whole flat vector gets the standard
    bias-corrected first/second-moment update.  The norm sums each
    parameter's squares separately, in store order, so it rounds exactly
    as a per-parameter loop would.  On a store of K stacked copies the
    norm and the clip are per copy (per row of the [K x n] flat vector),
    so copy k moves exactly as it would under an optimizer of its own.
    The flat moments and parameters are updated in place.  A zero
    gradient on a fresh optimizer leaves parameters bitwise unchanged.
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
        self._m = np.zeros_like(store.flat)
        self._v = np.zeros_like(store.flat)

    def step(self):
        store = self._store
        rows = store.copies or 1
        squares = [(store.grad(n) ** 2).reshape(rows, -1).sum(axis=1).tolist()
                   for n in store.names()]
        total = np.sqrt([sum(row) for row in zip(*squares)])
        scale = self._clip / np.maximum(total, self._clip)
        self._t += 1
        b1, b2 = self._b1, self._b2
        g = store.flat_grad * scale.reshape(store.flat.shape[:-1] + (1,))
        m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1 ** self._t)
        vhat = v / (1 - b2 ** self._t)
        store.set_flat(store.flat - self._lr * mhat / (np.sqrt(vhat) + self._eps))


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


def _run_epochs(n, epochs, epoch_fn, batch_size=None, seed=0):
    """Shared epoch driver, batch_size None for full batch; epoch_fn(idx) -> (loss, size)."""
    rng = np.random.default_rng([seed, 211])
    losses = []
    start = time.perf_counter()
    with nc._reused_scratch():  # one set of BPTT buffers for every step
        for epoch in range(1, epochs + 1):
            try:
                if batch_size is None or batch_size >= n:
                    loss, _ = epoch_fn(np.arange(n))
                else:
                    perm = rng.permutation(n)
                    total, seen = 0.0, 0
                    for lo in range(0, n, batch_size):
                        chunk = perm[lo:lo + batch_size]
                        chunk_loss, size = epoch_fn(chunk)
                        total += chunk_loss * size
                        seen += size
                    loss = total / seen
            except NumericError as exc:
                raise TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
            _check_finite(loss, epoch)
            losses.append(float(loss))
    return losses, time.perf_counter() - start


def _mse_step(params_store, opt, forward_fn, targets, counts=None):
    tape = ComputeTape()
    preds = forward_fn(tape)
    loss = nc.mse_loss(preds, Tensor(targets), counts)
    params_store.zero_grad()
    tape.backward(loss)
    opt.step()
    return float(loss.data)


def _fit_records(train, cfg: TrainConfig, make_params, forward):
    """Fit make_params() by MSE of forward(tape, params, xs) on every training record."""
    cfg.validate()
    xs, ys = _labeled_arrays(train)
    params = make_params()
    opt = Adam(params.store, cfg.lr, cfg.clip_norm)

    def epoch_fn(idx):
        loss = _mse_step(params.store, opt,
                         lambda tape: forward(tape, params, xs[idx]),
                         ys[idx])
        return loss, idx.size

    losses, seconds = _run_epochs(len(ys), cfg.epochs, epoch_fn, cfg.batch_size, cfg.seed)
    return params, TrainReport(losses=losses, seconds=seconds, n_samples=len(ys))


def train_global(train, cfg: TrainConfig, H=64, readout_hidden=64):
    """Fit the global sequence regressor on all training records by MSE."""
    return _fit_records(
        train, cfg,
        lambda: GruParams.init(d=train.d, H=H, readout_hidden=readout_hidden, seed=cfg.seed),
        global_forward)


def train_gru_att(train, cfg: TrainConfig, H=64, attn_hidden=32, head_hidden=64):
    """Fit the attention-pooled backbone (no cross-year stage) by MSE."""
    return _fit_records(
        train, cfg,
        lambda: GruAttParams.init(d=train.d, H=H, attn_hidden=attn_hidden,
                                  head_hidden=head_hidden, seed=cfg.seed),
        gruatt_forward)


def training_windows(train, w: int, labels) -> list:
    """One LyraWindow per training season that has an earlier season.

    Each is the season's `lookback_window`: the county's last w seasons
    before it, so a two-year county still yields one window.  labels
    maps (county, year) to the label fed to that season's target
    embedding; windows come in (county, year) order.
    """
    return [lookback_window(train, rec, labels[rec.county, rec.year], w)
            for rec in train.records  # sorted by (county, year)
            if train.county_years(rec.county)[0] < rec.year]


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


def train_lyra(train, w: int, cfg: TrainConfig, target_labels: dict,
               dims: LyraDims | None = None, year_max: int | None = None):
    """Fit the full cross-year model on all window samples by MSE.

    The supervision target is always the observed label; the label fed
    into the target year's own embedding is `target_labels[(county,
    year)]`, the same substitute the target year gets at test time.
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
    windows = training_windows(train, w, target_labels)
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

    losses, seconds = _run_epochs(len(windows), cfg.epochs, epoch_fn, cfg.batch_size,
                                  cfg.seed)
    sync_year_rows(params, train.years)
    return params, TrainReport(losses=losses, seconds=seconds, n_samples=len(windows))


def _tuning_windows(p: LyraParams, sample_set, train, target_labels, stats):
    """One county's fine-tune windows and normalized targets; warns on what it skips."""
    if not sample_set.entries:
        warnings.warn(f"empty fine-tune sample set for query {sample_set.query}")
    windows, targets = [], []
    for entry in sample_set.entries:
        rec = train.get(entry.record.county, entry.record.year)
        if train.county_years(rec.county)[0] == rec.year:
            warnings.warn(
                f"retrieved sample ({rec.county},{rec.year}) has no history; skipped"
            )
            continue
        windows.append(lookback_window(train, rec, target_labels[rec.county, rec.year], p.w))
        refined = entry.label_refined
        targets.append(stats.normalize_label(refined) if stats is not None else refined)
    return windows, targets


def fine_tune(p: LyraParams, sample_sets, train, cfg: TrainConfig,
              target_labels: dict, stats=None) -> LyraParams:
    """Adapt copies of the parameters to counties' refined samples, in one pass.

    sample_sets is one county's RefinedSampleSet, giving its tuned copy as
    plain parameters, or a list of them, giving stacked parameters (see
    `LyraParams.stack`) whose copy k is tuned on set k.  Each copy takes a
    few full-batch MSE steps on its refined retrieved samples; the input
    parameters are never mutated.  Each refined entry with an earlier
    season is one window: the `lookback_window` of its season, with its
    `target_labels` entry fed to its own embedding and its normalized
    refined label as supervision.  An entry without an earlier season is
    skipped with a warning; a copy whose set is empty or unusable stays
    an unchanged copy.  freeze_encoder pins the sequence encoder and
    attention pooling by reusing their pooled outputs as constants.

    All copies with windows train together: one tape per epoch over
    `stack_tables` of their window tables, with a loss that sums each
    copy's own mean squared error, so each copy's gradient is the one it
    would get alone, and Adam clips each copy's gradient by its own norm.
    """
    cfg.validate()
    single = isinstance(sample_sets, RefinedSampleSet)
    sets = [sample_sets] if single else list(sample_sets)
    tuned = p.stack(len(sets))
    active, windows, targets = [], [], []
    for k, sample_set in enumerate(sets):
        copy_windows, copy_targets = _tuning_windows(p, sample_set, train, target_labels,
                                                     stats)
        if copy_windows and cfg.fine_tune_epochs > 0:
            active.append(k)
            windows.append(copy_windows)
            targets.append(copy_targets)
    if active:
        inputs = stack_tables(p, [window_table(p, w) for w in windows])
        tuned.store.flat[active] = _tune_stack(p, inputs, targets, cfg).store.flat
    return tuned.member(0) if single else tuned


def _tune_stack(p: LyraParams, inputs, targets, cfg: TrainConfig) -> LyraParams:
    """Stacked copies of p, copy k trained on group k of the `stack_tables` inputs.

    targets[k] lists copy k's normalized targets, one per real sample.
    """
    xs, triples, samples, counts = inputs
    stack = p.stack(len(targets))
    size = len(samples) // len(targets)
    padded = np.zeros((len(targets), size))
    for k, copy_targets in enumerate(targets):
        padded[k, :len(copy_targets)] = copy_targets
    padded = padded.ravel()

    pooled_const = None
    if cfg.freeze_encoder:
        _, pooled, _ = embed_batch(None, stack, xs, triples)
        pooled_const = pooled.data

    opt = Adam(stack.store, cfg.fine_tune_lr, cfg.clip_norm)

    def epoch_fn(idx):
        loss = _mse_step(
            stack.store, opt,
            lambda tape: lyra_forward(tape, stack, xs, triples, samples,
                                      pooled_const=pooled_const)[0],
            padded, counts)
        return loss, idx.size

    _run_epochs(len(samples), cfg.fine_tune_epochs, epoch_fn)
    return stack
