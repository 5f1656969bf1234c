"""Cross-year bias estimation and label refinement.

Retrieved samples come from earlier seasons, so their labels are stale
relative to the season being predicted.  This module measures how a
county's label drifts across years and shifts retrieved labels forward:

1.  For every training year s, fit a small regressor g_s from yearly
    embeddings to labels using all counties observed in year s.
2.  For a county i, the bias matrix holds B[s, k] = y_i^k - g_s(z_i^k),
    the gap between year k's label and what year s's map expects.  Row s
    is one `g_s.predict` over the county's stacked embeddings, computed
    as one [1 x E] . [E] product per cell rather than one GEMV, so each
    cell has the same bits as predicting its embedding alone.
3.  Each row s is extrapolated with a least-squares line over k to the
    target year, giving a per-sample correction b_hat.  A row's line is
    fitted once, on first use, and evaluated for every target year.
4.  A retrieved label y becomes y + b_hat + sigma * eps with seeded
    Gaussian noise, leaving features untouched.

Labels here are in physical units throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CountyYearRecord
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

    B[s, k] holds y^k - g_s(z^k) for this county; `years` maps both
    axes to calendar years and `valid` masks cells where either the
    year-s regressor or the year-k observation was unavailable.  Each
    row's extrapolation line is cached on first use, so B and valid must
    not change after the first `extrapolate_bias` call.
    """

    county: str
    years: list
    B: np.ndarray
    valid: np.ndarray
    _lines: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def row_line(self, source_year):
        """(method, x0, slope, intercept) of row `source_year`, fitted once.

        Fits a degree-1 least-squares line over the row's valid cells,
        with the year axis centred at x0.  Fewer than 2 valid cells gives
        the row mean as the intercept ("row_mean"); an empty row gives 0
        ("zero").  Either way the slope is 0.
        """
        if source_year not in self.years:
            raise ContractError(f"county {self.county}: year {source_year} not in bias matrix")
        line = self._lines.get(source_year)
        if line is None:
            line = self._lines[source_year] = self._fit_row(self.years.index(source_year))
        return line

    def _fit_row(self, si):
        mask = self.valid[si]
        xs = np.asarray(self.years, dtype=np.float64)[mask]
        ys = self.B[si][mask]
        if xs.size == 0:
            return "zero", 0.0, 0.0, 0.0
        if xs.size == 1:
            return "row_mean", 0.0, 0.0, float(ys[0])
        # center the year axis before the polynomial fit for conditioning
        x0 = xs.mean()
        slope, intercept = np.polyfit(xs - x0, ys, 1)
        return "ols", x0, slope, intercept


def build_bias_matrix(county, regressors, embeddings, labels):
    """Assemble the bias matrix for one county.

    `regressors` maps year -> fitted g_s, `embeddings` maps year -> z
    vector for this county, `labels` maps year -> physical label.  Row s
    is one `g_s.predict` over the county's stacked embeddings, B[s] =
    y - g_s(Z), and each cell has the bits of predicting its embedding
    alone (see `YearRegressor.predict`).  Rows of years without a
    regressor stay zero and invalid.
    """
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
    valid = np.zeros((K, K), dtype=bool)
    for si, s in enumerate(years):
        g = regressors.get(s)
        if g is None:
            continue
        B[si] = y - g.predict(Z)
        valid[si] = True
    return BiasMatrix(county=county, years=years, B=B, valid=valid)


@dataclass
class BiasEstimate:
    value: float
    method: str  # "ols", "row_mean", or "zero"


def extrapolate_bias(bm, source_year, target_year):
    """Extend row `source_year` of the bias matrix to `target_year`.

    Evaluates the row's least-squares line (`BiasMatrix.row_line`) at the
    target year; a row with fewer than 2 valid cells gives its mean, an
    empty row a zero bias.  The method used is reported so callers can
    surface degraded rows.
    """
    method, x0, slope, intercept = bm.row_line(source_year)
    if method != "ols":
        return BiasEstimate(intercept, method)
    return BiasEstimate(float(intercept + slope * (target_year - x0)), "ols")


@dataclass
class RefinedSample:
    record: CountyYearRecord
    label: float
    bias_hat: float
    label_refined: float
    refined: bool
    method: str


@dataclass
class RefinedSampleSet:
    query: str
    target_year: int
    sigma: float
    entries: list = field(default_factory=list)

    @property
    def n_refined(self):
        return sum(1 for e in self.entries if e.refined)


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
    rng = np.random.default_rng(seed)
    out = RefinedSampleSet(query=retrieved.query, target_year=target_year, sigma=sigma)
    ordered = sorted(retrieved.samples, key=lambda r: (r.county, r.year))
    for rec in ordered:
        label = float(rec.yield_label)
        if stats is not None:
            label = stats.denormalize_label(label)
        bm = biases.get(rec.county)
        if bm is None or rec.year not in bm.years:
            est = None
        else:
            est = extrapolate_bias(bm, rec.year, target_year)
        for _ in range(copies):
            eps = float(rng.standard_normal()) if sigma > 0 else 0.0
            if est is None:
                out.entries.append(RefinedSample(rec, label, 0.0, label, False, "missing"))
            else:
                refined = label + est.value + sigma * eps
                out.entries.append(
                    RefinedSample(rec, label, est.value, refined, True, est.method)
                )
    return out


def save_bias_csv(biases, path):
    """Write all bias-matrix cells as county,source_year,target_year,bias,valid."""
    lines = ["county,source_year,target_year,bias,valid"]
    for county in sorted(biases):
        bm = biases[county]
        for si, s in enumerate(bm.years):
            for ki, k in enumerate(bm.years):
                lines.append(
                    f"{county},{s},{k},{bm.B[si, ki]!r},{int(bm.valid[si, ki])}"
                )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_refined_csv(sample_sets, path):
    """Write refined samples as
    query,source_county,source_year,label,bias_hat,label_refined,method.

    method is how the bias was estimated: "ols", "row_mean", "zero", or
    "missing" for a sample that passed through unrefined.
    """
    lines = ["query,source_county,source_year,label,bias_hat,label_refined,method"]
    for ss in sample_sets:
        for e in ss.entries:
            lines.append(
                f"{ss.query},{e.record.county},{e.record.year},"
                f"{e.label!r},{e.bias_hat!r},{e.label_refined!r},{e.method}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
