"""Shared test helpers: datasets from records, the windows `train_lyra`
trains on, and the record-based window code that `backbone` used before.

`backbone.Windows` is one batch with every window's context end to end;
`RowWindow` is one window of it, and every test that builds or unpacks
windows one by one goes through `window_list` (batch to `RowWindow`s)
and `window_batch` (`RowWindow`s to a batch); `extras_of` turns
per-target extras into `lookback_windows`' concatenated form.

`lookback_window`, `window_table` and `stack_tables` below are the earlier
record-based builders, kept verbatim (with their `LyraSample` and
record-based `LyraWindow`) as the bitwise oracle for the row-indexed ones;
`as_arrays` turns their samples into the engine's index arrays, and
`row_windows` turns their windows into a `backbone.Windows` batch.

The per-county and per-query forms that the batched paths replaced are
kept verbatim as their oracles too: `row_lookback_window` for
`backbone.lookback_windows`, `query_screen`/`query_retrieve` for the
per-setting retrieval screen, and `county_bias_matrix` for the one-call
`refinement.build_bias_matrix`.  `reference_extrapolate_bias` (one
`np.polyfit` per call, with its `BiasEstimate`) is the polyfit reference
that the closed-form `refinement.extend_rows` is compared with.
`build_bias_matrix` is the one-call form as it read (county, year)-keyed
dicts of embeddings and labels, before it took a Dataset's runs of rows;
`bias_inputs` turns such dicts into the array form's arguments.

`collect_samples` and `refine_labels` are the record-based retrieval
samples and label refinement (one `reference_extrapolate_bias` and one
scalar draw per entry) that block rows and arrays replaced, kept verbatim
as the oracle for `retrieval._collect_samples` and
`refinement.refine_labels`, with the per-query `SampleSet` of per-entry
`Entry`s they filled.  `entries` reads a `refinement.RefinedSampleSet`
back as `Entry`s, and `refined_set` builds one from per-query entries.

`run_epochs` is the epoch driver as it was before training shuffled
chunks of work, kept verbatim as the oracle for the record models' loss
traces.  `mul`, `sigmoid` and `softmax` are tensor ops the package no
longer uses, built on `numcore._emit` as they were in it: the unfused GRU
reference and the `softmax_rows` tests compare against them.

The Dataset accessors these oracles were written against are gone from
the library, so `county_years` and `get` below stand in for
`Dataset.county_years` and `Dataset.get`, and `label_of(rec)` for
`rec.yield_label` (it reads the record's private label field).

Forms the library dropped because only tests used them: `residual_panel`
and `embedding_panel` build panels from `{county: vector}` dicts (the
panel's dict constructor), `member` and `store_member` take one copy out
of stacked parameters (`LyraParams.member`, `ParamStore.member`), and
`save_dataset_csv` is the per-record CSV writer, kept verbatim as the
byte-equality oracle for `data.save_dataset_csv`.
"""

import csv
import time
from dataclasses import dataclass, field, replace
from itertools import chain, groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np
import pytest

from ratar import backbone as bb
from ratar import numcore as nc
from ratar import refinement as rf
from ratar import retrieval as rt
from ratar import training as tr
from ratar.backbone import LyraParams
from ratar.data import CountyYearRecord, Dataset
from ratar.numcore import ContractError, DimensionError, NumericError, Tensor


def county_years(ds, county):
    """The years of a county's seasons in ds, ascending."""
    return ds.row_years[ds.county_rows(county)].tolist()


def get(ds, county, year):
    """The `CountyYearRecord` view of one season of ds."""
    return ds.records[int(np.searchsorted(ds.rows, ds.row(county, year)))]


def label_of(rec):
    """A record's label, as its `yield_label` property read it."""
    return rec._yield_label


def residual_panel(vectors, min_common=rt._MIN_COMMON_YEARS):
    """The `retrieval.ResidualPanel` of {county: ResidualVector}."""
    counties = sorted(vectors)
    rvs = [vectors[county] for county in counties]
    return rt.ResidualPanel(counties,
                            np.concatenate([np.empty(0, np.int64)] + [rv.years for rv in rvs]),
                            np.concatenate([np.empty(0)] + [rv.r for rv in rvs]),
                            [len(rv.years) for rv in rvs], min_common)


def embedding_panel(embeddings):
    """The `retrieval.embedding_panel` of {county: mean embedding}."""
    counties = sorted(embeddings)
    return rt.embedding_panel(counties, np.stack([np.asarray(embeddings[c], dtype=np.float64)
                                                  for c in counties]))


def store_member(store, k):
    """Copy k of a stacked `ParamStore`, as a plain store of its own."""
    if store.copies is None:
        raise ContractError("member takes a stacked store")
    return nc.ParamStore({name: store.value(name)[k] for name in store.names()})


def member(params, k):
    """Copy k of stacked `LyraParams`, as plain parameters of its own."""
    return replace(params, store=store_member(params.store, k))


def _fmt(x):
    return repr(float(x))


def save_dataset_csv(ds, path):
    """Write the exact ingestion format; floats keep full round-trip precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["county", "year", "day"] + [f"f{j + 1}" for j in range(ds.d)] + ["yield"])
        for rec in ds.records:
            label = _fmt(rec._yield_label) if rec.has_label else ""
            for t in range(ds.T):
                writer.writerow(
                    [rec.county, rec.year, t + 1]
                    + [_fmt(v) for v in rec.features[t]]
                    + [label]
                )


def train_lyra_windows(train, w, cfg, target_labels, **kwargs):
    """The windows `training.train_lyra` trains on: what its one
    `lookback_windows` call returns."""
    calls = []

    def recording(*args, **kw):
        calls.append(bb.lookback_windows(*args, **kw))
        return calls[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(tr, "lookback_windows", recording)
        tr.train_lyra(train, w, cfg, target_labels, **kwargs)
    (windows,) = calls
    return windows


def dataset_of(records, neighbors=None):
    """A Dataset of separately built records: their features stacked into one block."""
    records = list(records)
    return Dataset([(r.county, r.year) for r in records],
                   np.stack([np.asarray(r.features, dtype=np.float64) for r in records]),
                   [r._yield_label for r in records], neighbors)


def as_arrays(samples):
    """`LyraSample`s as the engine's (target, padded history, length) arrays."""
    width = max(len(s.history) for s in samples)
    return (np.array([s.target for s in samples], dtype=np.int64),
            np.array([s.history + s.history[:1] * (width - len(s.history)) for s in samples],
                     dtype=np.int64),
            np.array([len(s.history) for s in samples], dtype=np.int64))


@dataclass(frozen=True, eq=False)
class RowWindow:
    """One window of a `backbone.Windows` batch: its target's block row and
    label, and its context's block rows and labels, in attention order."""

    target: int
    label: float
    context: np.ndarray
    context_labels: np.ndarray


def window_list(windows):
    """A `backbone.Windows` batch as a list of `RowWindow`s, in order."""
    cut = windows.offsets[1:-1]
    return [RowWindow(target, label, context, labels)
            for target, label, context, labels in zip(
                windows.targets.tolist(), windows.labels.tolist(),
                np.split(windows.context, cut), np.split(windows.context_labels, cut))]


def window_batch(windows):
    """`RowWindow`s as one `backbone.Windows` batch, in order."""
    lengths = np.array([len(w.context) for w in windows], dtype=np.int64)
    return bb.Windows(np.array([w.target for w in windows], dtype=np.int64),
                      np.array([w.label for w in windows], dtype=np.float64),
                      np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
                      np.concatenate([np.empty(0, np.int64)] + [w.context for w in windows]),
                      np.concatenate([np.empty(0)] + [w.context_labels for w in windows]))


def extras_of(per_target):
    """`backbone.lookback_windows`' extras from a list of, per target, None
    or (rows, normalized labels)."""
    given = [((), ()) if extra is None else extra for extra in per_target]
    return (np.array([len(rows) for rows, _ in given], dtype=np.int64),
            np.concatenate([np.empty(0, np.int64)]
                           + [np.asarray(rows, np.int64) for rows, _ in given]),
            np.concatenate([np.empty(0)] + [np.asarray(labels, np.float64) for _, labels in given]))


def row_windows(ds, windows):
    """Record-based windows as one `backbone.Windows` batch over ds's block
    (ds holds every season)."""
    return window_batch([
        RowWindow(ds.row(w.target.county, w.target.year), w.label,
                  np.array([ds.row(rec.county, rec.year) for rec, _ in w.context],
                           dtype=np.int64),
                  np.array([label for _, label in w.context], dtype=np.float64))
        for w in windows])


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
    years = [y for y in county_years(train, target.county) if y < target.year][-w:]
    if not years:
        raise ContractError(
            f"county {target.county} has no feature history before {target.year}"
        )
    records = [get(train, target.county, y) for y in years]
    return LyraWindow(target, label,
                      tuple((rec, label_of(rec)) for rec in records) + tuple(extra))


def row_lookback_window(train, target: int, label, w: int, extra_rows=(),
                        extra_labels=()) -> RowWindow:
    """The window predicting the season in block row `target`: its county's
    last w training seasons before it, ascending, with their observed labels,
    then `extra_rows` with their normalized `extra_labels`.  label is the
    normalized label fed to the target season's own embedding.  This is the
    one place a look-back window is chosen.
    """
    if w < 1:
        raise ContractError("look-back window must be at least 1")
    county, year = train.key(target)
    run = train.county_rows(county)
    run = run[:np.searchsorted(train.row_years[run], year)][-w:]
    if not len(run):
        raise ContractError(f"county {county} has no feature history before {year}")
    return RowWindow(target, label, np.concatenate([run, np.asarray(extra_rows, np.int64)]),
                     np.concatenate([train.labels(run), np.asarray(extra_labels, np.float64)]))


def stack_tables(p: LyraParams, tables):
    """One engine input over K `window_table`s, for K stacked copies of p.

    Returns (xs, triples, samples, counts).  Table k fills the k-th of K
    equal row groups of every input, padded to the largest table's counts
    of sequences, triples and samples: a padded sequence is all zeros, and
    padded triples (label 0) and samples point at their group's first
    sequence, year row and triple.  Sequence, triple and year rows are
    offset by their group's start (year rows into the row stack of K
    stacked year tables), so group k reads only table k.  counts[k] is
    table k's own sample count; its real samples lead its group.  A single
    table comes back unpadded and unshifted.
    """
    K = len(tables)
    U = max(len(xs) for xs, _, _ in tables)
    R = max(len(triples[0]) for _, triples, _ in tables)
    S = max(len(samples) for _, _, samples in tables)
    n_years = p.year_max - p.year_min + 1
    group = np.arange(K, dtype=np.int64)[:, None]
    xs = np.zeros((K, U) + tables[0][0].shape[1:])
    seq_rows = np.tile(group * U, (1, R))
    labels = np.zeros((K, R))
    year_rows = np.tile(group * n_years, (1, R))
    samples, counts = [], []
    for k, (x, (seq, lab, year), table_samples) in enumerate(tables):
        xs[k, :len(x)] = x
        seq_rows[k, :len(seq)] += seq
        labels[k, :len(lab)] = lab
        year_rows[k, :len(year)] += year
        base = k * R
        samples += [LyraSample(base + s.target, tuple(base + i for i in s.history))
                    for s in table_samples]
        samples += [LyraSample(base, (base,))] * (S - len(table_samples))
        counts.append(len(table_samples))
    return (xs.reshape((K * U,) + xs.shape[2:]),
            (seq_rows.ravel(), labels.ravel(), year_rows.ravel()), samples, counts)


def query_screen(panel, query, threshold, top_k):
    """(flags, short list mask) of one query's row, screened on its own:
    the per-query screen that `ResidualPanel.screen` replaced, verbatim."""
    q = panel.index[query]
    sim, overlap = panel.tables()
    short = overlap[q] < panel.min_common
    flagged = short | panel.zero_norm
    flagged[q] = False
    flags = []
    for j in np.flatnonzero(flagged):
        kind = "insufficient_overlap" if short[j] else "zero_norm"
        flags.append(f"{kind}:{panel.counties[j]}")
    live = ~flagged
    live[q] = False
    row = sim[q]
    keep = live & (row > threshold - rt._SCREEN_MARGIN)
    if top_k is not None and top_k < np.count_nonzero(keep):
        screened = row[keep]
        kth = np.partition(screened, screened.size - top_k)[screened.size - top_k]
        keep &= row >= kth - rt._SCREEN_MARGIN
    keep |= live & np.isnan(row)
    return flags, keep


def query_retrieve(query, residuals, train, threshold=0.9, top_k=None):
    """`retrieval.retrieve` as it was before screens were built per setting:
    each query screens its own row of the table (`query_screen`)."""
    if top_k is not None and top_k < 1:
        raise ContractError(f"top_k must be at least 1, got {top_k}")
    if query not in residuals:
        raise ContractError(f"no residual vector for query county {query}")
    panel = (residuals if isinstance(residuals, rt.ResidualPanel)
             else residual_panel(residuals))
    result = rt.RetrievalResult(query=query)
    if panel.zero_norm[panel.index[query]]:
        result.flags.append(f"degenerate_query:{query}")
        return result
    result.flags, keep = query_screen(panel, query, threshold, top_k)
    rq = panel[query]
    sims = [(panel.counties[j], rt.centered_cosine(rq, panel[panel.counties[j]]))
            for j in np.flatnonzero(keep)]
    return rt._match(result, sims, train, threshold, top_k)


def county_bias_matrix(county, regressors, embeddings, labels):
    """One county's bias matrix from year-keyed dicts, one `predict` per
    regressor year over its own embeddings: `refinement.build_bias_matrix`
    before it built every county's in one call."""
    years = sorted(set(embeddings) & set(labels))
    if not years:
        raise ContractError(f"county {county}: no years with both embedding and label")
    rows = [np.asarray(embeddings[k], dtype=np.float64) for k in years]
    shapes = sorted({z.shape for z in rows})
    if len(shapes) > 1 or len(shapes[0]) != 1:
        raise ContractError(f"county {county}: expected embeddings of one shape [E], got {shapes}")
    Z = np.stack(rows)
    y = np.array([labels[k] for k in years], dtype=np.float64)
    K = len(years)
    B = np.zeros((K, K))
    fitted = np.zeros(K, dtype=bool)
    for si, s in enumerate(years):
        g = regressors.get(s)
        if g is None:
            continue
        B[si] = y - g.predict(Z)
        fitted[si] = True
    return rf.BiasMatrix(county=county, years=years, B=B, fitted=fitted)


def bias_inputs(embeddings, labels):
    """`refinement.build_bias_matrix`'s (train, Z, y) for (county, year)-keyed
    embeddings and labels: a Dataset with one row per season that has both,
    and the embeddings and labels in its row order."""
    keys = sorted(set(embeddings) & set(labels))
    y = [labels[key] for key in keys]
    train = Dataset(keys, np.zeros((len(keys), 1, 1)), y)
    return train, np.stack([embeddings[key] for key in keys]), np.array(y, dtype=np.float64)


def build_bias_matrix(regressors, embeddings, labels):
    """Every county's bias matrix, as {county: BiasMatrix}.

    `regressors` maps year -> fitted g_s; `embeddings` maps (county,
    year) -> z vector and `labels` (county, year) -> physical label.  A
    county's years are those with both.  Each regressor makes one
    `g_s.predict` over all counties' stacked embeddings, and row s of a
    county's matrix is B[s] = y - g_s(Z) over its years; each cell has
    the bits of predicting its embedding alone (see
    `YearRegressor.predict`).  Rows of years without a regressor stay
    zero and invalid.
    """
    keys = sorted(set(embeddings) & set(labels))
    missing = sorted({county for county, _ in chain(embeddings, labels)}
                     - {county for county, _ in keys})
    if missing:
        raise ContractError(f"county {missing[0]}: no years with both embedding and label")
    if not keys:
        raise ContractError("no (county, year) with both an embedding and a label")
    rows = [np.asarray(embeddings[key], dtype=np.float64) for key in keys]
    if len({z.shape for z in rows}) > 1 or rows[0].ndim != 1:
        _reject_shapes(keys, rows)
    Z = np.stack(rows)
    y = np.array([labels[key] for key in keys], dtype=np.float64)
    years = sorted({year for _, year in keys})
    fitted = np.array([s in regressors for s in years])
    B = np.zeros((len(years), len(keys)))
    for si in np.flatnonzero(fitted):
        B[si] = y - regressors[years[si]].predict(Z)
    year_index = {s: si for si, s in enumerate(years)}
    out = {}
    start = 0
    for county, group in groupby(keys, key=itemgetter(0)):
        county_years = [year for _, year in group]
        stop = start + len(county_years)
        idx = [year_index[s] for s in county_years]
        out[county] = rf.BiasMatrix(county=county, years=county_years,
                                    B=B[idx, start:stop], fitted=fitted[idx])
        start = stop
    return out


def _reject_shapes(keys, rows):
    """Raise on embeddings not all of one shape [E], naming the first county at fault."""
    shapes = {}
    for (county, _), z in zip(keys, rows):
        shapes.setdefault(county, set()).add(z.shape)
    for county, found in shapes.items():
        if len(found) > 1 or len(next(iter(found))) != 1:
            raise ContractError(
                f"county {county}: expected embeddings of one shape [E], got {sorted(found)}")
    widths = sorted(set().union(*shapes.values()))
    raise ContractError(f"counties' embeddings differ in width: {widths}")


@dataclass
class BiasEstimate:
    value: float
    method: str  # "ols", "row_mean", or "zero"


def reference_extrapolate_bias(bm, source_year, target_year):
    """`refinement.extrapolate_bias` as it was before row lines were
    cached: one `np.polyfit` per call, over the row's valid cells."""
    if source_year not in bm.years:
        raise ContractError(f"county {bm.county}: year {source_year} not in bias matrix")
    si = bm.years.index(source_year)
    mask = bm.valid[si]
    xs = np.asarray(bm.years, dtype=np.float64)[mask]
    ys = bm.B[si][mask]
    if xs.size == 0:
        return BiasEstimate(0.0, "zero")
    if xs.size == 1:
        return BiasEstimate(float(ys[0]), "row_mean")
    # center the year axis before the polynomial fit for conditioning
    x0 = xs.mean()
    slope, intercept = np.polyfit(xs - x0, ys, 1)
    return BiasEstimate(float(intercept + slope * (target_year - x0)), "ols")


def collect_samples(matched, train):
    recent = set(rt.recent_training_years(train))
    samples = []
    for county, _sim in matched:
        for year in county_years(train, county):
            if year in recent:
                samples.append(get(train, county, year))
    return samples


class Entry(NamedTuple):
    """One refined copy of a retrieved sample (`record`: a block row, or a
    record in the record-based oracle), labels in physical units."""

    record: object
    label: float
    bias_hat: float
    label_refined: float
    refined: bool
    method: str


@dataclass
class SampleSet:
    """One query's refined entries, as the record-based oracle fills them."""

    query: str
    target_year: int
    sigma: float
    entries: list = field(default_factory=list)


def entries(refined, q=None):
    """A `RefinedSampleSet`'s entries as `Entry`s: all, or query q's only."""
    lo, hi = (0, len(refined.entries)) if q is None else refined.offsets[q:q + 2].tolist()
    parts = (refined.entries, refined.label, refined.bias_hat, refined.label_refined,
             refined.method)
    return [Entry(row, label, bias_hat, shifted, method != "missing", method)
            for row, label, bias_hat, shifted, method
            in zip(*(part[lo:hi].tolist() for part in parts))]


def refined_set(sets, target_year, sigma=0.0):
    """A `RefinedSampleSet` of {query: its entries, as `Entry`s or
    (row, label, bias_hat, label_refined, refined, method) tuples}."""
    flat = [Entry(*e) for group in sets.values() for e in group]
    sizes = [len(group) for group in sets.values()]
    return rf.RefinedSampleSet(
        list(sets), target_year, sigma, np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]),
        np.array([e.record for e in flat], dtype=np.int64),
        np.array([e.label for e in flat], dtype=np.float64),
        np.array([e.bias_hat for e in flat], dtype=np.float64),
        np.array([e.label_refined for e in flat], dtype=np.float64),
        np.array([e.method for e in flat], dtype=object))


def refine_labels(retrieved, biases, sigma, seed, target_year, copies=1, stats=None):
    """Shift retrieved labels to the target year.

    Each sample (county j, year s) gets y + b_hat + sigma * eps, where
    b_hat extrapolates county j's own bias row for year s.  Samples are
    processed in (county, year) order with a seeded generator, so the
    output is invariant to retrieval ordering.  Samples without a bias
    matrix pass through unrefined and are flagged.  Pass `stats` when
    the retrieved records carry normalized labels; refinement always
    works in physical units.
    """
    if sigma < 0:
        raise ContractError(f"sigma must be nonnegative, got {sigma}")
    if copies < 1:
        raise ContractError(f"copies must be at least 1, got {copies}")
    rng = np.random.default_rng(seed) if sigma > 0 else None  # no draws without noise
    out = SampleSet(query=retrieved.query, target_year=target_year, sigma=sigma)
    ordered = sorted(retrieved.samples, key=lambda r: (r.county, r.year))
    for rec in ordered:
        label = float(label_of(rec))
        if stats is not None:
            label = stats.denormalize_label(label)
        bm = biases.get(rec.county)
        if bm is None or rec.year not in bm.years:
            est = None
        else:
            est = reference_extrapolate_bias(bm, rec.year, target_year)
        for _ in range(copies):
            eps = float(rng.standard_normal()) if sigma > 0 else 0.0
            if est is None:
                out.entries.append(Entry(rec, label, 0.0, label, False, "missing"))
            else:
                refined = label + est.value + sigma * eps
                out.entries.append(
                    Entry(rec, label, est.value, refined, True, est.method)
                )
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    nc._binary_shapes(a, b)
    ad, bd = a.data, b.data
    return nc._emit(ad * bd, (a, b),
                    lambda g: (nc._reduce_to(g * bd, ad.shape), nc._reduce_to(g * ad, bd.shape)))


def sigmoid(x: Tensor) -> Tensor:
    # exp overflow on large negative inputs is plain saturation to 0
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-x.data))
    return nc._emit(out, (x,), lambda g: (g * out * (1.0 - out),))


def softmax(v: Tensor) -> Tensor:
    """Max-stabilized softmax of a 1-D vector."""
    if v.ndim != 1 or v.shape[0] == 0:
        raise DimensionError(f"softmax needs a nonempty vector, got {v.shape}")
    shifted = v.data - v.data.max()
    e = np.exp(shifted)
    out = e / e.sum()
    return nc._emit(out, (v,), lambda g: (out * (g - float(g @ out)),))


def run_epochs(n, epochs, epoch_fn, batch_size=None, seed=0):
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
                raise tr.TrainingError(f"training diverged at epoch {epoch}: {exc}") from exc
            tr._check_finite(loss, epoch)
            losses.append(float(loss))
    return losses, time.perf_counter() - start
