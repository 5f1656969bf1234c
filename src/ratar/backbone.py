"""Recurrent backbone: GRU daily encoder, intra-year attention pooling,
yearly embeddings with label and year-index injection, cross-year attention,
MLP head, plus the global GRU regressor used for label substitution and
residuals.

A target season's label is unknown, so the global model's prediction
stands in for it in that season's embedding; `model_labels` makes those
predictions, one `global_forward` over a Dataset's rows, as a table
indexed by block row.

There is one forward implementation, a batched engine over stacked
sequences [B,T,d]: `gru_encode` is the encoder every model shares,
`embed_batch` adds attention pooling and the yearly embeddings, and
`lyra_forward` adds cross-year attention and the head (`global_forward` and
`gruatt_forward` are the two smaller models).  With a ComputeTape the engine
records for training; with tape None it runs as plain inference.  Windows
of any history lengths share one cross-year attention pass, padded to the
longest history and masked so that padded slots get weight exactly 0.

Training, fine-tuning and prediction describe their work as one `Windows`
batch: per window a target row of the panel's feature block (see
`data.Dataset`) and its label, and labeled context rows, all contexts end
to end in arrays cut by offsets.  `lookback_windows` is the one place a
context is chosen (the county's last w training seasons before the
target, then any extras), for a batch of targets with array operations
and one label read; `window_table` is the one place windows
become the engine's inputs: one row gather for `xs`, index arrays for the
samples.  `lyra_predict` predicts any windows in one `lyra_forward` call.

The engine also runs K stacked copies of a model at once (a `ParamStore`
of K copies, every parameter with a leading model axis): each input is
then laid out county-major in K equal row groups, group k run by copy k.
`stack_tables` builds such inputs from one `window_table` per copy,
padding them to equal sizes; per-county fine-tuning trains all of a
seed's tuned copies this way, and `lyra_predict` predicts them.

Features entering any function here are assumed z-score normalized, as are
the labels read from training seasons; predictions come back in physical
units via NormStats.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace

import numpy as np

from . import numcore as nc
from .data import Dataset, NormStats
from .numcore import ContractError, ParamStore, Tensor

# nc.gru_sequence's parameter order
_GRU_PARAMS = tuple(f"gru.{m}_{gate}" for gate in "ruc" for m in "WUb")


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class LyraDims:
    d: int
    H: int = 64
    Z: int = 64
    E: int = 8
    attn_hidden: int = 32
    mlp_hidden: int = 64


def _init_linear(arrays: dict, prefix: str, fan_in: int, fan_out: int, rng) -> None:
    arrays[prefix + ".W"] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out))
    arrays[prefix + ".b"] = np.zeros(fan_out)


def _init_mlp(arrays: dict, prefix: str, n_in: int, hidden: int, n_out: int, rng) -> None:
    # hidden == 0 collapses to a single linear map, handy for identity tests
    if hidden > 0:
        _init_linear(arrays, prefix + ".h", n_in, hidden, rng)
        _init_linear(arrays, prefix + ".out", hidden, n_out, rng)
    else:
        _init_linear(arrays, prefix + ".out", n_in, n_out, rng)


def _init_scores(arrays: dict, H: int, hidden: int, rng) -> None:
    # The day-attention score head.  Softmax over a season's days ignores a
    # shift shared by every score, so an output bias would get a gradient of
    # exactly 0: the head has none.
    _init_mlp(arrays, "attn", H, hidden, 1, rng)
    del arrays["attn.out.b"]


def _init_gru(arrays: dict, d: int, H: int, rng) -> None:
    for gate in ("r", "u", "c"):
        arrays[f"gru.W_{gate}"] = rng.normal(0.0, 1.0 / np.sqrt(d), (d, H))
        arrays[f"gru.U_{gate}"] = rng.normal(0.0, 1.0 / np.sqrt(H), (H, H))
        arrays[f"gru.b_{gate}"] = np.zeros(H)


@dataclass
class GruParams:
    """Global GRU regressor f(.): encoder plus mean-pool readout MLP."""

    store: ParamStore
    d: int
    H: int
    readout_hidden: int

    @classmethod
    def init(cls, d: int, H: int = 64, readout_hidden: int = 64, seed: int = 0):
        rng = np.random.default_rng(seed)
        arrays = {}
        _init_gru(arrays, d, H, rng)
        _init_mlp(arrays, "readout", H, readout_hidden, 1, rng)
        return cls(store=ParamStore(arrays), d=d, H=H, readout_hidden=readout_hidden)


@dataclass
class GruAttParams:
    """Ablation backbone: daily encoder, attention pooling (its score head
    without an output bias) and a head MLP."""

    store: ParamStore
    d: int
    H: int
    attn_hidden: int
    head_hidden: int

    @classmethod
    def init(cls, d: int, H: int = 64, attn_hidden: int = 32, head_hidden: int = 64, seed: int = 0):
        rng = np.random.default_rng(seed)
        arrays = {}
        _init_gru(arrays, d, H, rng)
        _init_scores(arrays, H, attn_hidden, rng)
        _init_mlp(arrays, "head", H, head_hidden, 1, rng)
        return cls(store=ParamStore(arrays), d=d, H=H, attn_hidden=attn_hidden,
                   head_hidden=head_hidden)


@dataclass
class LyraParams:
    """The cross-year model: daily encoder, attention pooling (its score
    head without an output bias), the yearly embedding MLP and year table,
    and the head MLP; `w` is its look-back window."""

    store: ParamStore
    dims: LyraDims
    w: int
    year_min: int
    year_max: int

    @classmethod
    def init(cls, dims: LyraDims, w: int, year_min: int, year_max: int, seed: int = 0):
        if w < 1:
            raise ContractError("look-back window must be at least 1")
        if year_max < year_min:
            raise ContractError("empty year range for the embedding table")
        rng = np.random.default_rng(seed)
        arrays = {}
        _init_gru(arrays, dims.d, dims.H, rng)
        _init_scores(arrays, dims.H, dims.attn_hidden, rng)
        _init_mlp(arrays, "embed", dims.H + 1 + dims.E, dims.mlp_hidden, dims.Z, rng)
        _init_mlp(arrays, "head", dims.Z, dims.mlp_hidden, 1, rng)
        arrays["year_table"] = rng.normal(0.0, 0.1, (year_max - year_min + 1, dims.E))
        return cls(store=ParamStore(arrays), dims=dims, w=w, year_min=year_min,
                   year_max=year_max)

    def year_row(self, year: int) -> int:
        if not (self.year_min <= year <= self.year_max):
            raise ContractError(
                f"year {year} outside embedding range {self.year_min}..{self.year_max}"
            )
        return year - self.year_min

    def copy(self) -> "LyraParams":
        return replace(self, store=self.store.copy())

    def stack(self, copies: int) -> "LyraParams":
        """`copies` stacked copies of these parameters (see `ParamStore.stack`)."""
        return replace(self, store=self.store.stack(copies))


# ---------------------------------------------------------------------------
# semantic containers


def _ranges(lo, hi) -> np.ndarray:
    """The concatenation of the ranges lo[i]:hi[i], as one index array."""
    n = hi - lo
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


@dataclass(frozen=True, eq=False)
class Windows:
    """A batch of target seasons and the look-back contexts their
    predictions attend over, the contexts laid end to end: window i
    predicts block row `targets[i]`, feeding the (normalized) `labels[i]`
    to its own embedding, and attends over the block rows
    `context[offsets[i]:offsets[i + 1]]`, whose (normalized) labels are the
    same slice of `context_labels`."""

    targets: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    context: np.ndarray
    context_labels: np.ndarray

    def __len__(self):
        return len(self.targets)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, idx) -> "Windows":
        """The windows at positions `idx`, in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        lo, hi = self.offsets[idx], self.offsets[idx + 1]
        offsets, pick = np.concatenate([[0], np.cumsum(hi - lo)]), _ranges(lo, hi)
        return Windows(self.targets[idx], self.labels[idx], offsets, self.context[pick],
                       self.context_labels[pick])


@dataclass
class PredictResult:
    prediction: float
    beta: np.ndarray
    history_years: list


# ---------------------------------------------------------------------------
# batched forward engine


def bind_params(tape, store: ParamStore) -> dict:
    """Every parameter of `store` as a Tensor: tape leaves, or constants if tape is None."""
    return {name: nc.ComputeTape.bind(tape, store, name) for name in store.names()}


def _mlp(bound: dict, x: Tensor, prefix: str) -> Tensor:
    hidden_key = prefix + ".h.W"
    if hidden_key in bound:
        x = nc.tanh(nc.add_bias(nc.matmul(x, bound[hidden_key]), bound[prefix + ".h.b"]))
    out = nc.matmul(x, bound[prefix + ".out.W"])
    bias = bound.get(prefix + ".out.b")  # the attention score head has none
    return out if bias is None else nc.add_bias(out, bias)


def gru_encode(bound: dict, xs: np.ndarray) -> Tensor:
    """GRU over xs [B,T,d]; returns sample-major hidden states [B*T x H].

    Row b*T + t holds sequence b's state after day t; the whole recurrence
    is one `nc.gru_sequence` op.
    """
    return nc.gru_sequence(xs, *(bound[name] for name in _GRU_PARAMS))


def _pooled_batch(bound: dict, xs: np.ndarray):
    """Encoder plus attention pooling; returns (pooled [B x H], weights [B x T])."""
    B, T, _ = xs.shape
    stack = gru_encode(bound, xs)
    scores = nc.reshape(_mlp(bound, stack, "attn"), (B, T))
    weights = nc.softmax_rows(scores)
    pooled = nc.pool_rows(stack, weights)
    return pooled, weights


def global_forward(tape, p: GruParams, xs: np.ndarray) -> Tensor:
    """Normalized predictions [B] of the global model on xs [B,T,d]."""
    bound = bind_params(tape, p.store)
    B, T, _ = xs.shape
    stack = gru_encode(bound, xs)
    mean_w = Tensor(np.full((B, T), 1.0 / T))
    pooled = nc.pool_rows(stack, mean_w)
    return nc.reshape(_mlp(bound, pooled, "readout"), (B,))


def model_labels(p: GruParams, ds: Dataset) -> np.ndarray:
    """The global model's normalized prediction per block row, NaN off ds's rows.

    One `global_forward` over ds's rows; a season's value can differ in
    its last bits with the batch it is computed in, so each run computes
    every label it uses once, from one table.  A non-finite label raises
    NumericError.
    """
    table = np.full(len(ds.row_years), np.nan)
    table[ds.rows] = nc._check_finite(
        global_forward(None, p, np.take(ds.features, ds.rows, axis=0)).data, "model labels")
    return table


def gruatt_forward(tape, p: GruAttParams, xs: np.ndarray) -> Tensor:
    """Normalized predictions [B] of the pooled-only ablation backbone."""
    bound = bind_params(tape, p.store)
    pooled, _ = _pooled_batch(bound, xs)
    return nc.reshape(_mlp(bound, pooled, "head"), (B := xs.shape[0],))


def embed_batch(tape, p: LyraParams, xs: np.ndarray, triples):
    """Yearly embeddings for (sequence row, label, year row) triples.

    Returns (z_all Tensor [R x Z], pooled Tensor [U x H], attention weights
    Tensor [U x T]).  Shared by training and the pooled-frozen fine-tune path.
    """
    bound = bind_params(tape, p.store)
    pooled, attn_w = _pooled_batch(bound, xs)
    z_all = _embed_from_pooled(bound, pooled, triples)
    return z_all, pooled, attn_w


def _embed_from_pooled(bound: dict, pooled: Tensor, triples) -> Tensor:
    seq_rows, labels, year_rows = triples
    seq_rows = np.asarray(seq_rows, dtype=np.int64)
    year_rows = np.asarray(year_rows, dtype=np.int64)
    base = nc.gather_rows(pooled, seq_rows)
    lab = Tensor(np.asarray(labels, dtype=np.float64).reshape(-1, 1))
    emb = nc.gather_rows(bound["year_table"], year_rows)
    return _mlp(bound, nc.concat_cols([base, lab, emb]), "embed")


# padded history slots' scores: finite, unlike -inf, and exp of it is 0
_PAD_SCORE = -1e300


def lyra_forward(tape, p: LyraParams, xs: np.ndarray, triples, samples, pooled_const=None):
    """Batched LYRA forward over window samples.

    xs: [U,T,d] unique sequences; triples: arrays (seq_row, label, year_row)
    defining the embedding table rows; samples: index arrays (target [S],
    history [S x W], length [S]) into that table, each history padded to W
    by repeating its first index.  pooled_const short-circuits the encoder
    with precomputed pooled vectors (frozen-encoder fine-tuning).  Returns
    (normalized predictions Tensor [S] in sample order, attention weights
    [S x W]).  On K stacked copies the inputs are `stack_tables` of K
    tables.  _PAD_SCORE gives padded slots softmax weight exactly 0.
    """
    target, history, length = samples
    if not len(target):
        raise ContractError("no samples to run")
    if (length < 1).any():
        raise ContractError("sample with empty history window")
    bound = bind_params(tape, p.store)
    if pooled_const is not None:
        pooled = Tensor(np.asarray(pooled_const, dtype=np.float64))
    else:
        pooled, _ = _pooled_batch(bound, xs)
    z_all = _embed_from_pooled(bound, pooled, triples)

    mask = np.where(np.arange(history.shape[1]) < length[:, None], 0.0, _PAD_SCORE)
    stack = nc.gather_rows(z_all, history.ravel())
    tgt = nc.gather_rows(z_all, target)
    beta = nc.softmax_rows(nc.add(nc.rowdot_groups(stack, tgt), Tensor(mask)))
    z_tilde = nc.add(tgt, nc.pool_rows(stack, beta))
    preds = nc.reshape(_mlp(bound, z_tilde, "head"), (len(target),))
    return preds, beta.data


def window_table(p: LyraParams, ds: Dataset, windows: Windows):
    """Engine inputs (xs, triples, samples) for windows over ds's block, one sample each.

    Sequences are the distinct rows and context triples the distinct (row,
    label) pairs, so a season shared by windows is encoded once and two
    labels of one season stay two triples; every target gets a triple of
    its own.  Rows follow key order, so sequences and context triples come
    sorted by key, then the target triples sorted by (key, label); each
    history lists its window's context in order.
    """
    if not len(windows):
        raise ContractError("no windows to tabulate")
    target, target_labels, length = windows.targets, windows.labels, windows.lengths
    if (length < 1).any():
        raise ContractError("sample with empty history window")
    order = np.lexsort((windows.context_labels, windows.context))
    rows, labels = windows.context[order], windows.context_labels[order]
    first = np.ones(len(rows), dtype=bool)  # first of its (row, label) pair
    first[1:] = (rows[1:] != rows[:-1]) | (labels[1:] != labels[:-1])
    context = (np.cumsum(first) - 1)[np.argsort(order)]  # each context entry's triple
    tgt_order = np.lexsort((target_labels, target))
    table = np.concatenate([rows[first], target[tgt_order]])
    years = ds.row_years[table]
    p.year_row(int(years.min()))  # the range check: raises on a year outside the table
    p.year_row(int(years.max()))
    seq, seq_rows = np.unique(table, return_inverse=True)
    triples = (seq_rows, np.concatenate([labels[first], target_labels[tgt_order]]),
               years - p.year_min)
    col = np.arange(length.max())
    history = context[windows.offsets[:-1, None]
                      + np.where(col < length[:, None], col, 0)]  # padded with the first
    samples = (np.argsort(tgt_order) + first.sum(), history, length)
    return np.take(ds.features, seq, axis=0), triples, samples


def lookback_windows(train: Dataset, targets, labels, w: int, extras=None) -> Windows:
    """One window per block row in `targets`: the one place look-back
    windows are chosen.

    A target's context is its county's last w training seasons before it,
    ascending, with their observed labels, then its extras: `extras`, if
    given, is (sizes, rows, normalized labels), target i's sizes[i] extras
    and every target's extras concatenated in target order.  `labels` is a
    table per block row (`model_labels`): labels[t] is the normalized
    label fed to target t's own embedding.  Targets may be rows of `train`
    or of another split of its block.  The observed labels of every
    window are one label read.
    """
    if w < 1:
        raise ContractError("look-back window must be at least 1")
    targets = np.asarray(targets, dtype=np.int64)
    # A target's earlier seasons end where it sorts into train.rows, and
    # start no earlier than its county's run or w seasons back.
    stop = np.searchsorted(train.rows, targets)
    start = np.maximum(stop - w, train.run_starts(targets))
    for i in np.flatnonzero(start >= stop)[:1]:
        county, year = train.key(targets[i])
        raise ContractError(f"county {county} has no feature history before {year}")
    sizes, extra_rows, extra_labels = extras or (0, train.rows[:0], np.empty(0))
    own = stop - start
    windows = Windows(targets, labels[targets], np.concatenate([[0], np.cumsum(own + sizes)]),
                      np.empty(own.sum() + len(extra_rows), dtype=np.int64),
                      np.empty(own.sum() + len(extra_rows)))
    lo, hi = windows.offsets[:-1], windows.offsets[1:]
    rows = train.rows[_ranges(start, stop)]
    for part, values, at in ((rows, train.labels(rows), _ranges(lo, lo + own)),
                             (extra_rows, extra_labels, _ranges(lo + own, hi))):
        windows.context[at] = part
        windows.context_labels[at] = values
    return windows


def stack_tables(p: LyraParams, tables):
    """One engine input over K `window_table`s, for K stacked copies of p.

    Returns (xs, triples, samples, counts).  Table k fills the k-th of K
    equal row groups of every input, padded to the largest table's counts
    of sequences, triples and samples and to the widest history: a padded
    sequence is all zeros, and padded triples (label 0) and samples point
    at their group's first sequence, year row and triple.  Sequence,
    triple and year rows are offset by their group's start (year rows into
    the row stack of K stacked year tables), so group k reads only table
    k.  counts[k] is table k's own sample count; its real samples lead its
    group.  A single table comes back unpadded and unshifted.
    """
    K = len(tables)
    U = max(len(xs) for xs, _, _ in tables)
    R = max(len(triples[0]) for _, triples, _ in tables)
    S = max(len(samples[0]) for _, _, samples in tables)
    W = max(samples[1].shape[1] for _, _, samples in tables)
    n_years = p.year_max - p.year_min + 1
    group = np.arange(K, dtype=np.int64)[:, None]
    xs = np.zeros((K, U) + tables[0][0].shape[1:])
    seq_rows = np.tile(group * U, (1, R))
    labels = np.zeros((K, R))
    year_rows = np.tile(group * n_years, (1, R))
    target = np.tile(group * R, (1, S))
    history = np.tile((group * R)[:, :, None], (1, S, W))
    length = np.ones((K, S), dtype=np.int64)
    for k, (x, (seq, lab, year), (tgt, hist, n)) in enumerate(tables):
        xs[k, :len(x)] = x
        seq_rows[k, :len(seq)] += seq
        labels[k, :len(lab)] = lab
        year_rows[k, :len(year)] += year
        target[k, :len(tgt)] += tgt
        history[k, :len(tgt), :hist.shape[1]] += hist
        history[k, :len(tgt), hist.shape[1]:] += hist[:, :1]
        length[k, :len(tgt)] = n
    return (xs.reshape((K * U,) + xs.shape[2:]),
            (seq_rows.ravel(), labels.ravel(), year_rows.ravel()),
            (target.ravel(), history.reshape(K * S, W), length.ravel()),
            [len(samples[0]) for _, _, samples in tables])


def lyra_predict(p: LyraParams, stats: NormStats, ds: Dataset, windows: Windows) -> list:
    """Predictions for windows over ds's block in one untraced lyra_forward call.

    On plain parameters every window is predicted by them; on K stacked
    copies the windows come in K equal groups, group k predicted by copy
    k, over `stack_tables` of one `window_table` per group.  Results come in
    window order, each with the prediction in physical units, the window's
    attention weights and the years of its context, in attention order.
    A non-finite prediction raises NumericError.
    """
    groups = p.store.copies or 1
    size = len(windows) // groups
    if size * groups != len(windows):
        raise ContractError(f"{len(windows)} windows for {groups} parameter copies")
    tables = [window_table(p, ds, windows.take(np.arange(k * size, (k + 1) * size)))
              for k in range(groups)]
    xs, triples, samples, _ = stack_tables(p, tables)
    preds, beta = lyra_forward(None, p, xs, triples, samples)
    nc._check_finite(preds.data, "predictions")
    years = np.split(ds.row_years[windows.context], windows.offsets[1:-1])
    return [PredictResult(prediction=pred, beta=weights[:n].copy(), history_years=y.tolist())
            for pred, weights, n, y in zip(stats.denormalize_label(preds.data).tolist(), beta,
                                           windows.lengths.tolist(), years)]


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = "ratar-checkpoint-v1"
_KINDS = {"gru": GruParams, "gruatt": GruAttParams, "lyra": LyraParams}


def save_checkpoint(path: str, params, stats: NormStats | None) -> None:
    """Single-file npz container: magic tag, dims header, named tensors."""
    kind = next((k for k, cls in _KINDS.items() if type(params) is cls), None)
    if kind is None:
        raise ContractError(f"cannot checkpoint {type(params).__name__}")
    meta = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)
            if f.name != "store"}
    arrays = {
        "magic": np.array(_MAGIC),
        "kind": np.array(kind),
        "meta": np.array(json.dumps(meta, sort_keys=True, default=dataclasses.asdict)),
    }
    for name in params.store.names():
        arrays["param:" + name] = params.store.value(name)
    if stats is not None:
        for key, arr in stats.to_arrays().items():
            arrays["stats:" + key] = arr
    np.savez(path, **arrays)


def load_checkpoint(path: str):
    """Inverse of save_checkpoint; returns (params, stats or None)."""
    with np.load(path, allow_pickle=False) as z:
        if "magic" not in z.files or str(z["magic"]) != _MAGIC:
            raise ContractError(f"{path} is not a recognized checkpoint")
        kind = str(z["kind"])
        meta = json.loads(str(z["meta"]))
        store = ParamStore({key[len("param:"):]: z[key] for key in z.files
                            if key.startswith("param:")})
        stats = None
        stat_keys = {k[len("stats:"):]: z[k] for k in z.files if k.startswith("stats:")}
        if stat_keys:
            stats = NormStats.from_arrays(stat_keys)
    if kind not in _KINDS:
        raise ContractError(f"unknown checkpoint kind {kind!r}")
    if "dims" in meta:
        meta["dims"] = _from_meta(path, LyraDims, meta["dims"])
    params = _from_meta(path, _KINDS[kind], meta, store=store)
    # the parameters a model of these dims has (an old cross-year or
    # attention checkpoint holds the score bias `attn.out.b`)
    _same_names(path, "parameter", _KINDS[kind].init(**meta).store.names(), store.names())
    return params, stats


def _from_meta(path: str, cls, meta: dict, **given):
    """cls(**meta, **given) once meta holds exactly cls's other fields."""
    expected = {f.name for f in dataclasses.fields(cls)} - given.keys()
    _same_names(path, f"{cls.__name__} field", expected, meta.keys())
    return cls(**meta, **given)


def _same_names(path: str, what: str, expected, got) -> None:
    """Refuse checkpoint `path` unless `got` holds exactly the `expected` names."""
    odd = sorted(set(expected) ^ set(got))
    if odd:
        state = "lacks" if odd[0] in expected else "has unknown"
        raise ContractError(f"checkpoint {path} {state} {what} {odd[0]!r}")
