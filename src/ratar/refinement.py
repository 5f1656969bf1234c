"""Cross-year bias estimation and label refinement.

Retrieved samples come from earlier seasons, so their labels are stale
relative to the season being predicted.  This module measures how a
county's label drifts across years and shifts retrieved labels forward:

1.  For every training year s, fit a small regressor g_s from yearly
    embeddings to labels using all counties observed in year s.
2.  For a county i, the bias matrix holds B[s, k] = y_i^k - g_s(z_i^k),
    the gap between year k's label and what year s's map expects.  One
    `build_bias_matrix` call per seed builds every county's matrix from
    one embedding table and one label array, each with a row per training
    season (county by county, years ascending): each g_s makes one
    `predict` over the whole table, computed as one [1 x E] . [E] product
    per row rather than one GEMV, so each cell has the same bits as
    predicting its embedding alone, and a county's matrix is cut from its
    run of rows.
3.  Each row s is extrapolated with a least-squares line over k to the
    target year t, the correction b_hat for samples from year s.  A fitted
    row spans all its county's years, so b_hat is linear in the row:
    B[s] . c, c_k = 1/n + (t - x_bar)(x_k - x_bar) / sum((x - x_bar)^2),
    one c per set of years.  `extrapolate_biases` makes the `BiasTable` of
    every training season's b_hat once per seed; nothing is cached on a
    `BiasMatrix`, so no line goes stale, and a table names its target year.
4.  A retrieved label y becomes y + b_hat + sigma * eps with Gaussian
    noise seeded per query, leaving features untouched; with sigma 0 no
    generator is made.  Retrieved samples are block rows of the training
    Dataset: one `refine_labels` call refines every query's samples, with
    one audited `Dataset.labels` read and one b_hat gather, into one
    `RefinedSampleSet` of arrays cut by per-query offsets.

Labels here are in physical units throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .numcore import ContractError

_RIDGE_LAM = 1e-3
_SCALE_FLOOR = 1e-12


@dataclass
class YearRegressor:
    """Affine map from standardized embeddings to labels for one year."""

    year: int
    coef: np.ndarray
    intercept: float
    z_mean: np.ndarray
    z_scale: np.ndarray

    def predict(self, Z):
        """g(z) for one embedding [E] or each row of a table [n, E]; returns [n].

        Each row is its own [1 x E] . [E] product, so a row's value has the
        same bits however many rows are predicted together.  A plain GEMV
        `X @ coef` (or `einsum`, or `(X * coef).sum(1)`) sums in another
        order and changes the last bits of some rows.
        """
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim == 1:
            Z = Z[None, :]
        if Z.ndim != 2:
            raise ContractError(f"expected embeddings of shape [E] or [n, E], got shape {Z.shape}")
        if Z.shape[1] != self.coef.shape[0]:
            raise ContractError(
                f"embedding width {Z.shape[1]} does not match regressor width {self.coef.shape[0]}"
            )
        X = (Z - self.z_mean) / self.z_scale
        return (X[:, None, :] @ self.coef)[:, 0] + self.intercept


def embedding_moments(Z):
    """Per-dimension mean and scale of a pooled embedding table.

    Pass the result as `z_mean`/`z_scale` to every per-year fit so the
    regressors for different years share one standardization.  A
    dimension with (near) zero spread gets scale 1.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] < 2:
        raise ContractError("expected an embedding table of shape [n, Z] with n >= 2")
    scale = Z.std(axis=0)
    return Z.mean(axis=0), np.where(scale < _SCALE_FLOOR, 1.0, scale)


def fit_year_regressor(year, Z, y, z_mean, z_scale, lam=_RIDGE_LAM):
    """Fit the year-s map g_s on all (embedding, label) pairs from year s.

    Embeddings are standardized per dimension with the shared `z_mean`/
    `z_scale` (from `embedding_moments` over all training years), so
    that fit and evaluation on other years' embeddings use one
    consistent scale; a per-year scale would give a dimension that
    barely varies within one year a huge gain that amplifies ordinary
    cross-year shifts into wild extrapolations.  The intercept is left
    unpenalized by centering the targets, which makes the mean in-year
    residual exactly zero.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Z.ndim != 2 or y.ndim != 1 or Z.shape[0] != y.shape[0]:
        raise ContractError("expected Z of shape [n, Z] and y of shape [n]")
    n = Z.shape[0]
    if n < 2:
        raise ContractError(f"year {year} has {n} samples, need at least 2 to fit")
    z_mean = np.asarray(z_mean, dtype=np.float64)
    z_scale = np.asarray(z_scale, dtype=np.float64)
    if z_mean.shape != (Z.shape[1],) or z_scale.shape != (Z.shape[1],):
        raise ContractError("z_mean and z_scale must have shape [Z]")
    # keep the shared scale but absorb this year's mean into the stored
    # offset, so the design matrix is centered (the intercept carries the
    # year level) while evaluation on any year's embeddings still uses one
    # common scale
    x_bar = (Z - z_mean).mean(axis=0) / z_scale
    z_mean = z_mean + x_bar * z_scale
    X = (Z - z_mean) / z_scale
    y_mean = float(y.mean())
    yc = y - y_mean
    A = X.T @ X + lam * np.eye(X.shape[1])
    coef = np.linalg.solve(A, X.T @ yc)
    return YearRegressor(year=year, coef=coef, intercept=y_mean, z_mean=z_mean, z_scale=z_scale)


@dataclass
class BiasMatrix:
    """Per-county grid of cross-year label gaps.

    B[s, k] holds y^k - g_s(z^k) for this county; `years` (ascending)
    maps both axes to calendar years.  `fitted[s]` says whether year s
    had a regressor (a row without one is zero); `valid` masks its cells.
    """

    county: str
    years: list
    B: np.ndarray
    fitted: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        return np.repeat(np.asarray(self.fitted)[:, None], len(self.years), axis=1)


def extend_rows(years, B, fitted, target_year):
    """(b_hat, method) of every bias row over `years`: the row's
    least-squares line at `target_year`, B[s] . c ("ols"), its one cell
    for a single year ("row_mean"), or 0 for an unfitted row ("zero").

    B is a matrix [n x n] or a stack [m x n x n] of matrices over the same
    years, and fitted its rows' flags [n] or [m x n].
    """
    x = np.asarray(years, dtype=np.float64)
    if len(x) == 1:
        weights, method = np.ones(1), "row_mean"
    else:
        xc = x - x.mean()
        weights = 1.0 / len(x) + (target_year - x.mean()) * xc / (xc @ xc)
        method = "ols"
    return np.where(fitted, B @ weights, 0.0), np.where(fitted, method, "zero")


def build_bias_matrix(regressors, train, Z, y):
    """Every county's bias matrix, as {county: BiasMatrix}.

    `regressors` maps year -> fitted g_s.  Row i of the embedding table
    `Z` [n, E] and of the physical labels `y` [n] is the season at
    position i of `train.rows`, so a county's matrix covers its run of
    rows, years ascending.  Each regressor makes one `g_s.predict` over
    all of `Z`, and row s of a county's matrix is B[s] = y - g_s(Z) over
    its run; each cell has the bits of predicting its embedding alone
    (see `YearRegressor.predict`).  Rows of years without a regressor
    stay zero and unfitted.
    """
    years = train.years
    fitted = np.array([s in regressors for s in years])
    B = np.zeros((len(years), len(y)))
    for si in np.flatnonzero(fitted):
        B[si] = y - regressors[years[si]].predict(Z)
    row_years = train.row_years[train.rows]
    year_index = np.searchsorted(years, row_years)  # each row's row of B
    return {county: BiasMatrix(county=county, years=row_years[start:stop].tolist(),
                               B=B[year_index[start:stop], start:stop],
                               fitted=fitted[year_index[start:stop]])
            for county, start, stop in train.runs()}


@dataclass(frozen=True)
class BiasTable:
    """Every training season's bias row extended to one target year.

    Indexed by block row, like `backbone.model_labels`: a sample from
    season `row` is shifted by `b_hat[row]`, estimated as `method[row]`
    (see `extend_rows`), or passes unrefined ("missing", b_hat 0) when
    its county has no bias matrix or its year is not in it.
    """

    target_year: int
    b_hat: np.ndarray
    method: np.ndarray


def extrapolate_biases(biases, train, target_year) -> BiasTable:
    """The `BiasTable` of `train`'s seasons, from `biases` {county: BiasMatrix}:
    matrices over the same years are extended by one `extend_rows` call,
    and each of a county's seasons in `train` reads its year's row."""
    b_hat = np.zeros(len(train.row_years))
    method = np.full(len(train.row_years), "missing", dtype=object)
    groups = {}  # years -> the matrices over them
    for bm in biases.values():
        groups.setdefault(tuple(bm.years), []).append(bm)
    for years, group in groups.items():
        values, methods = extend_rows(years, np.stack([bm.B for bm in group]),
                                      np.stack([bm.fitted for bm in group]), target_year)
        runs = [train.county_rows(bm.county) for bm in group]
        rows = np.concatenate(runs)
        owner = np.repeat(np.arange(len(group)), [len(run) for run in runs])
        grid = np.asarray(years)
        at = np.minimum(np.searchsorted(grid, train.row_years[rows]), len(grid) - 1)
        hit = grid[at] == train.row_years[rows]  # the season's year is a matrix year
        cell = (owner * len(grid) + at)[hit]
        b_hat[rows[hit]], method[rows[hit]] = values.ravel()[cell], methods.ravel()[cell]
    return BiasTable(target_year, b_hat, method)


@dataclass(frozen=True)
class RefinedSampleSet:
    """Every query's refined samples for one refinement setting: query q's
    entries (refined copies of its retrieved samples) are the slice
    `offsets[q]:offsets[q + 1]` of `entries` (their block rows in the
    training Dataset), `label`, `bias_hat`, `label_refined` (physical
    units) and `method` (see `BiasTable`; "missing": passed unrefined)."""

    queries: list
    target_year: int
    sigma: float
    offsets: np.ndarray
    entries: np.ndarray
    label: np.ndarray
    bias_hat: np.ndarray
    label_refined: np.ndarray
    method: np.ndarray

    @property
    def sizes(self) -> np.ndarray:  # entries per query
        return np.diff(self.offsets)

    @property
    def n_refined(self):
        return int(np.count_nonzero(self.method != "missing"))

    def select(self, keep) -> "RefinedSampleSet":
        """The sets of the queries where the mask `keep` is true, in order."""
        keep = np.asarray(keep, dtype=bool)
        at = np.repeat(keep, self.sizes)
        return replace(self, queries=list(compress(self.queries, keep)),
                       offsets=np.concatenate([[0], np.cumsum(self.sizes[keep])]),
                       **{name: getattr(self, name)[at] for name in
                          ("entries", "label", "bias_hat", "label_refined", "method")})


def refine_labels(results, train, biases, sigma, seeds, target_year, stats, copies=1):
    """Shift every query's retrieved labels to the target year, in one pass.

    `results` hold one retrieval result per query, and `seeds` one noise
    seed per query.  Samples are block rows of `train`, whose labels are
    normalized by `stats`; refinement works in physical units.  Each
    sample (county j, year s) gets y + b_hat + sigma * eps, b_hat read
    from `biases`, the `BiasTable` toward `target_year` (None: nothing is
    refined).  A query's samples come in (county, year) order, which is
    block-row order, `copies` entries each, with eps drawn by a generator
    of its own seed: its entries depend on neither retrieval ordering nor
    the other queries.  Samples without a bias row pass through
    unrefined.  All labels are one audited read, and all b_hat one gather.
    """
    if sigma < 0:
        raise ContractError(f"sigma must be nonnegative, got {sigma}")
    if copies < 1:
        raise ContractError(f"copies must be at least 1, got {copies}")
    if biases is not None and biases.target_year != target_year:
        raise ContractError(f"bias table extends to {biases.target_year}, "
                            f"refinement targets {target_year}")
    rows = np.concatenate([np.empty(0, np.int64)] + [np.sort(r.samples) for r in results])
    sizes = np.array([len(r.samples) for r in results], dtype=np.int64) * copies
    labels = train.labels(rows) * stats.label_std + stats.label_mean
    if biases is None:
        b_hat, method = np.zeros(len(rows)), np.full(len(rows), "missing", dtype=object)
    else:
        b_hat, method = biases.b_hat[rows], biases.method[rows]
    # one entry per copy of each sample
    rows, labels, b_hat, method = (part.repeat(copies) for part in (rows, labels, b_hat, method))
    refined = method != "missing"
    eps = 0.0
    if sigma > 0:
        eps = np.concatenate([np.empty(0)] + [np.random.default_rng(seed).standard_normal(n)
                                              for seed, n in zip(seeds, sizes.tolist())])
    shifted = np.where(refined, labels + b_hat + sigma * eps, labels)
    return RefinedSampleSet([r.query for r in results], target_year, sigma,
                            np.concatenate([[0], np.cumsum(sizes)]), rows, labels, b_hat,
                            shifted, method)


def save_bias_csv(biases, path):
    """Write all bias-matrix cells as county,source_year,target_year,bias,valid."""
    lines = ["county,source_year,target_year,bias,valid"]
    for county in sorted(biases):
        bm = biases[county]
        valid = bm.valid
        for si, s in enumerate(bm.years):
            for ki, k in enumerate(bm.years):
                lines.append(f"{county},{s},{k},{bm.B[si, ki]!r},{int(valid[si, ki])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_refined_csv(refined, train, path):
    """Write a `RefinedSampleSet`'s entries as
    query,source_county,source_year,label,bias_hat,label_refined,method.

    Entries are rows of `train`, the Dataset they were retrieved from.
    method is how the bias was estimated: "ols", "row_mean", "zero", or
    "missing" for a sample that passed through unrefined.
    """
    lines = ["query,source_county,source_year,label,bias_hat,label_refined,method"]
    queries = np.repeat(np.array(refined.queries, dtype=object), refined.sizes)
    for query, row, label, bias_hat, shifted, method in zip(
            queries.tolist(), refined.entries.tolist(), refined.label.tolist(),
            refined.bias_hat.tolist(), refined.label_refined.tolist(), refined.method.tolist()):
        county, year = train.key(row)
        lines.append(f"{query},{county},{year},{label!r},{bias_hat!r},{shifted!r},{method}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
