"""Training loops for the global model, the backbones, and per-county
fine-tuning.

All loops share one epoch driver and one step: record a tape, run the
batched forward, backprop MSE, and apply an adaptive-moment update with
global-norm gradient clipping.  Inputs are row gathers from the training
Dataset's block.  The cross-year model's work is one `backbone.Windows`
batch built once, by one `backbone.lookback_windows` call: one window per
training season with an earlier season, or, when fine-tuning, one per
usable refined sample (a block row of the training Dataset).  Each step's
engine inputs are `window_table` of that step's `Windows.take`.  The label a
window feeds its target season comes from the caller's `target_labels`
table, one value per block row; the pipeline fills it with the global
model's predictions (`backbone.model_labels`), so the cross-year loops
never run the global model.  Every source of randomness (init,
shuffling) is seeded through TrainConfig, so a (seed, config, data)
triple reproduces its loss trace bitwise.

Minibatch loops shuffle chunks of their work, not single items.  The
record models (`train_global`, `train_gru_att`) shuffle one record per
chunk.  The cross-year model shuffles runs of up to `_WINDOW_CHUNK`
consecutive windows of one county.  A window reads its target and up to
w earlier seasons of its county, and a batch encodes (GRU forward and
backward) each season it reads once; windows shuffled one by one spread
a season's windows over as many batches, so it is encoded up to w+1
times per epoch.  c neighbouring windows read only c-1 seasons more than
one does, which at c=4 cuts those encodings by a fifth to a half, while
each batch still mixes many counties.

Fine-tuning never touches the input parameters.  It trains one copy of
them per county, on that county's refined retrieved samples, and all of a
seed's copies train at once: stacked on a leading model axis, one tape
per epoch, with a loss and a gradient clip that keep each copy's update
exactly its own, so one county's adaptation cannot leak into another's.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from itertools import compress

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
    lookback_windows,
    lyra_forward,
    stack_tables,
    window_table,
)
from .numcore import ComputeTape, ContractError, NumericError, Tensor


# Consecutive windows of one county shuffled as one unit in `train_lyra`.
_WINDOW_CHUNK = 4


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
        for name in ("lr", "fine_tune_lr", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
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
        squares = [(store.grad(n) ** 2).reshape(rows, -1).sum(axis=1) for n in store.names()]
        # a left fold over the parameters, rounded alike on every Python
        # (from 3.12 the builtin `sum` of floats is compensated)
        total = np.sqrt(np.add.accumulate(squares)[-1])
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


def _training_labels(train):
    """Every training season's label, in row order, in one read; none may be missing."""
    labels = train.labels()
    unlabeled = [train.key(row) for row in train.rows[np.isnan(labels)][:5].tolist()]
    if unlabeled:
        raise ContractError(f"training records without labels: {unlabeled}")
    if len(train) == 0:
        raise ContractError("empty training set")
    return labels


def _check_finite(loss, epoch):
    if not np.isfinite(loss):
        raise TrainingError(f"training diverged at epoch {epoch}: loss {loss}")


def _run_epochs(chunks, epochs, epoch_fn, batch_size=None, seed=0):
    """Shared epoch driver; epoch_fn(idx) -> (loss, size).

    `chunks` are index arrays that together hold each of the work's n
    indices once, in order.  With batch_size None (or at least n) every
    epoch is one batch of all n indices in order.  Otherwise each epoch
    shuffles the chunks, keeping each chunk's own order, and cuts
    batch_size batches from their concatenation; single-index chunks
    make that a plain permutation of the indices.
    """
    rng = np.random.default_rng([seed, 211])
    order = np.concatenate(chunks)
    n = order.size
    sizes = np.array([len(chunk) for chunk in chunks])
    starts = np.cumsum(sizes) - sizes  # each chunk's offset in order
    losses = []
    start = time.perf_counter()
    with nc._reused_scratch():  # one set of BPTT buffers for every step
        for epoch in range(1, epochs + 1):
            try:
                if batch_size is None or batch_size >= n:
                    loss, _ = epoch_fn(order)
                else:
                    pick = rng.permutation(len(chunks))
                    # the picked chunks' runs of order, one after another
                    lengths = sizes[pick]
                    shift = starts[pick] - (np.cumsum(lengths) - lengths)
                    perm = order[np.repeat(shift, lengths) + np.arange(n)]
                    total, seen = 0.0, 0
                    for lo in range(0, n, batch_size):
                        batch_loss, size = epoch_fn(perm[lo:lo + batch_size])
                        total += batch_loss * size
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
    ys = _training_labels(train)
    xs = np.take(train.features, train.rows, axis=0)
    params = make_params()
    opt = Adam(params.store, cfg.lr, cfg.clip_norm)

    def epoch_fn(idx):
        loss = _mse_step(params.store, opt,
                         lambda tape: forward(tape, params, xs[idx]),
                         ys[idx])
        return loss, idx.size

    losses, seconds = _run_epochs(np.arange(len(ys))[:, None], cfg.epochs, epoch_fn,
                                  cfg.batch_size, cfg.seed)
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


def _window_chunks(train) -> list:
    """`train_lyra`'s shuffle units, as index arrays into its windows: runs
    of at most `_WINDOW_CHUNK` consecutive windows of one county, cut from
    the county's first.  Every season but its county's first has a window,
    in row order, so a county's windows are consecutive.
    """
    chunks, lo = [], 0
    for _, start, stop in train.runs():
        hi = lo + stop - start - 1
        chunks += [np.arange(at, min(at + _WINDOW_CHUNK, hi))
                   for at in range(lo, hi, _WINDOW_CHUNK)]
        lo = hi
    return chunks


def train_lyra(train, w: int, cfg: TrainConfig, target_labels: np.ndarray,
               dims: LyraDims | None = None, year_max: int | None = None):
    """Fit the full cross-year model on all window samples by MSE.

    There is one window per training season that has an earlier season
    (so a two-year county still yields one), in (county, year) order:
    its look-back window from `lookback_windows`.  The supervision
    target is always the observed label; the label fed into the target
    year's own embedding is `target_labels[row]`, the season's entry in a
    table per block row, the same substitute the target year gets at test
    time.  Minibatches are cut from shuffled runs of consecutive windows
    of one county (`_window_chunks`).
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
    later = train.run_starts(train.rows) < np.arange(len(train))  # with an earlier season
    targets = _training_labels(train)[later]
    rows = train.rows[later]
    if not rows.size:
        raise ContractError("no trainable samples: every county has a single year")
    windows = lookback_windows(train, rows, target_labels, w)
    opt = Adam(params.store, cfg.lr, cfg.clip_norm)

    def epoch_fn(idx):
        xs, triples, samples = window_table(params, train, windows.take(idx))
        loss = _mse_step(
            params.store, opt,
            lambda tape: lyra_forward(tape, params, xs, triples, samples)[0],
            targets[idx])
        return loss, idx.size

    losses, seconds = _run_epochs(_window_chunks(train), cfg.epochs, epoch_fn,
                                  cfg.batch_size, cfg.seed)
    sync_year_rows(params, train.years)
    return params, TrainReport(losses=losses, seconds=seconds, n_samples=len(windows))


def _tuning_windows(p: LyraParams, refined, train, target_labels, stats):
    """(windows, normalized targets, windows per query) of a `RefinedSampleSet`'s
    usable entries, from one `lookback_windows` call; warns on what it skips."""
    for query in compress(refined.queries, refined.sizes == 0):
        warnings.warn(f"empty fine-tune sample set for query {query}")
    rows = refined.entries
    usable = train.run_starts(rows) < np.searchsorted(train.rows, rows)  # with history
    for county, year in map(train.key, rows[~usable].tolist()):
        warnings.warn(f"retrieved sample ({county},{year}) has no history; skipped")
    owner = np.repeat(np.arange(len(refined.queries)), refined.sizes)
    return (lookback_windows(train, rows[usable], target_labels, p.w),
            stats.normalize_label(refined.label_refined[usable]),
            np.bincount(owner[usable], minlength=len(refined.queries)))


def fine_tune(p: LyraParams, refined, train, cfg: TrainConfig,
              target_labels: np.ndarray, stats) -> LyraParams:
    """Adapt copies of the parameters to counties' refined samples, in one pass.

    refined is a `RefinedSampleSet` of counties' refined samples; the
    result is stacked parameters (see `LyraParams.stack`) whose copy k is
    tuned on query k's entries.  Each copy takes a few full-batch MSE steps
    on its refined retrieved samples; the input parameters are never
    mutated.  Each refined entry with an earlier season is one window: the
    look-back window of its block row (one `lookback_windows` call for all),
    with its row's `target_labels` entry fed to its own embedding and its
    refined label, normalized by `stats`, as supervision.  An entry
    without an earlier season is skipped with a warning; a copy whose set
    is empty or unusable stays an unchanged copy.  freeze_encoder pins the
    sequence encoder and attention pooling by reusing their pooled outputs
    as constants.

    All copies with windows train together: one tape per epoch over
    `stack_tables` of their window tables, with a loss that sums each
    copy's own mean squared error, so each copy's gradient is the one it
    would get alone, and Adam clips each copy's gradient by its own norm.
    """
    cfg.validate()
    tuned = p.stack(len(refined.queries))
    windows, targets, sizes = _tuning_windows(p, refined, train, target_labels, stats)
    active = np.flatnonzero(sizes)
    if not len(active) or cfg.fine_tune_epochs == 0:
        return tuned
    stop = np.cumsum(sizes)
    xs, triples, samples, counts = stack_tables(
        p, [window_table(p, train, windows.take(np.arange(stop[k] - sizes[k], stop[k])))
            for k in active])
    stack = p.stack(len(active))
    # each copy's targets lead its group of samples, in set order
    padded = np.zeros((len(active), len(samples[0]) // len(active)))
    padded[np.arange(padded.shape[1]) < sizes[active, None]] = targets

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
            padded.ravel(), counts)
        return loss, idx.size

    _run_epochs([np.arange(len(samples[0]))], cfg.fine_tune_epochs, epoch_fn)
    tuned.store.flat[active] = stack.store.flat
    return tuned
