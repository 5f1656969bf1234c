"""Recurrent backbone: GRU daily encoder, intra-year attention pooling,
yearly embeddings with label and year-index injection, cross-year attention,
MLP head, plus the global GRU regressor used for label substitution and
residuals.

A target season's label is unknown, so the global model's prediction
stands in for it in that season's embedding; `model_labels` makes those
predictions, one `global_forward` over a list of records.

There is one forward implementation, a batched engine over stacked
sequences [B,T,d]: `gru_encode` is the encoder every model shares,
`embed_batch` adds attention pooling and the yearly embeddings, and
`lyra_forward` adds cross-year attention and the head (`global_forward` and
`gruatt_forward` are the two smaller models).  With a ComputeTape the engine
records for training; with tape None it runs as plain inference.  Windows
of any history lengths share one cross-year attention pass, padded to the
longest history and masked so that padded slots get weight exactly 0.

Training, fine-tuning and prediction all describe their work as
`LyraWindow`s, a target season plus (season, label) context pairs.
`lookback_window` is the one place a window's context is chosen (the
county's last w training seasons before the target, then any extras),
and `window_table` is the one place windows become the engine's inputs.
`lyra_predict` predicts any number of windows on one parameter set as one
untraced `lyra_forward` call.

Features entering any function here are assumed z-score normalized, as are
the labels stored on training records; predictions come back in physical
units via NormStats.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace

import numpy as np

from . import numcore as nc
from .data import CountyYearRecord, NormStats
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
    """Ablation backbone: daily encoder and attention pooling only."""

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
        _init_mlp(arrays, "attn", H, attn_hidden, 1, rng)
        _init_mlp(arrays, "head", H, head_hidden, 1, rng)
        return cls(store=ParamStore(arrays), d=d, H=H, attn_hidden=attn_hidden,
                   head_hidden=head_hidden)


@dataclass
class LyraParams:
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
        _init_mlp(arrays, "attn", dims.H, dims.attn_hidden, 1, rng)
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


# ---------------------------------------------------------------------------
# semantic containers


@dataclass
class LyraSample:
    """Engine sample: indices into the embedding-triple table."""

    target: int
    history: tuple


@dataclass(frozen=True)
class LyraWindow:
    """A target season and the look-back context its prediction attends over.

    label is the (normalized) label fed to the target year's own embedding;
    context holds (record, normalized label) pairs in attention order.
    """

    target: CountyYearRecord
    label: float
    context: tuple


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
    return nc.add_bias(nc.matmul(x, bound[prefix + ".out.W"]), bound[prefix + ".out.b"])


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


def model_labels(p: GruParams, records) -> dict:
    """The global model's normalized prediction per record, keyed (county, year).

    One `global_forward` over the records in the given order; a record's
    value can differ in its last bits with the batch it is computed in,
    so each run computes every label it uses once, from one table.
    """
    xs = np.stack([rec.features for rec in records])
    preds = global_forward(None, p, xs).data.tolist()
    return {(rec.county, rec.year): pred for rec, pred in zip(records, preds)}


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
    defining the embedding table rows; samples: LyraSample index structures.
    pooled_const short-circuits the encoder with precomputed pooled vectors
    (frozen-encoder fine-tuning).  Returns (normalized predictions Tensor [S]
    in sample order, list of per-sample attention weight arrays).

    Every history is padded to the longest by repeating its first index,
    and _PAD_SCORE on the padded scores gives them softmax weight exactly
    0, so each sample's betas are its own row cut to its own length.
    """
    if not samples:
        raise ContractError("no samples to run")
    if any(len(s.history) < 1 for s in samples):
        raise ContractError("sample with empty history window")
    bound = bind_params(tape, p.store)
    if pooled_const is not None:
        pooled = Tensor(np.asarray(pooled_const, dtype=np.float64))
    else:
        pooled, _ = _pooled_batch(bound, xs)
    z_all = _embed_from_pooled(bound, pooled, triples)

    lengths = np.array([len(s.history) for s in samples])
    width = int(lengths.max())
    hist_idx = np.array([s.history + s.history[:1] * (width - len(s.history)) for s in samples],
                        dtype=np.int64)
    mask = np.where(np.arange(width) < lengths[:, None], 0.0, _PAD_SCORE)
    stack = nc.gather_rows(z_all, hist_idx.ravel())
    tgt = nc.gather_rows(z_all, np.array([s.target for s in samples], dtype=np.int64))
    beta = nc.softmax_rows(nc.add(nc.rowdot_groups(stack, tgt), Tensor(mask)))
    z_tilde = nc.add(tgt, nc.pool_rows(stack, beta))
    preds = nc.reshape(_mlp(bound, z_tilde, "head"), (len(samples),))
    betas = [beta.data[i, :n].copy() for i, n in enumerate(lengths)]
    return preds, betas


def window_table(p: LyraParams, windows):
    """Engine inputs (xs, triples, samples) for windows, one sample each, in order.

    Sequences are keyed by (county, year) and context triples by (county,
    year, label), so a record shared by windows is encoded once and two
    labels of one record stay two triples; every window's target gets a
    triple of its own.  Sequences and context triples are sorted by key,
    the target triples follow in sorted order, and each sample's history
    lists its window's context in order.
    """
    if not windows:
        raise ContractError("no windows to tabulate")
    ctx_keys = [[(rec.county, rec.year, float(label)) for rec, label in win.context]
                for win in windows]
    records = {(win.target.county, win.target.year): win.target for win in windows}
    for win in windows:
        for rec, _ in win.context:
            records[(rec.county, rec.year)] = rec
    seq_keys = sorted(records)
    seq_row = {key: i for i, key in enumerate(seq_keys)}
    ctx_table = sorted({key for keys in ctx_keys for key in keys})
    ctx_row = {key: i for i, key in enumerate(ctx_table)}
    tgt_keys = [(win.target.county, win.target.year, float(win.label)) for win in windows]
    tgt_order = sorted(range(len(windows)), key=tgt_keys.__getitem__)
    tgt_row = {i: k for k, i in enumerate(tgt_order, start=len(ctx_table))}

    table = ctx_table + [tgt_keys[i] for i in tgt_order]
    years = np.array([year for _, year, _ in table], dtype=np.int64)
    p.year_row(int(years.min()))  # the range check: raises on a year outside the table
    p.year_row(int(years.max()))
    triples = (
        np.array([seq_row[county, year] for county, year, _ in table], dtype=np.int64),
        np.array([label for _, _, label in table], dtype=np.float64),
        years - p.year_min,
    )
    samples = [LyraSample(target=tgt_row[i], history=tuple(ctx_row[key] for key in keys))
               for i, keys in enumerate(ctx_keys)]
    xs = np.stack([records[key].features for key in seq_keys])
    return xs, triples, samples


def lookback_window(train, target, label, w: int, extra=()) -> LyraWindow:
    """The window predicting `target` from its county's look-back window.

    The context is the county's last w training seasons before
    target.year, ascending, with their observed labels, followed by the
    `extra` (record, normalized label) pairs.  label is the normalized
    label fed to the target season's own embedding.  This is the one
    place a look-back window is chosen.
    """
    if w < 1:
        raise ContractError("look-back window must be at least 1")
    years = [y for y in train.county_years(target.county) if y < target.year][-w:]
    if not years:
        raise ContractError(
            f"county {target.county} has no feature history before {target.year}"
        )
    records = [train.get(target.county, y) for y in years]
    return LyraWindow(target, label,
                      tuple((rec, rec.yield_label) for rec in records) + tuple(extra))


def lyra_predict(p: LyraParams, stats: NormStats, windows) -> list:
    """Predictions for windows on one parameter set, in order.

    One untraced lyra_forward call over `window_table(p, windows)`;
    each result carries the prediction in physical units, the window's
    attention weights and the years of its context, in attention order.
    """
    preds, betas = lyra_forward(None, p, *window_table(p, windows))
    return [PredictResult(prediction=stats.denormalize_label(pred), beta=beta,
                          history_years=[rec.year for rec, _ in win.context])
            for win, pred, beta in zip(windows, preds.data.tolist(), betas)]


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
    return _from_meta(path, _KINDS[kind], meta, store=store), stats


def _from_meta(path: str, cls, meta: dict, **given):
    """cls(**meta, **given) once meta holds exactly cls's other fields."""
    expected = {f.name for f in dataclasses.fields(cls)} - given.keys()
    odd = sorted(expected ^ meta.keys())
    if odd:
        state = "lacks" if odd[0] in expected else "has unknown"
        raise ContractError(f"checkpoint {path} {state} {cls.__name__} field {odd[0]!r}")
    return cls(**meta, **given)
