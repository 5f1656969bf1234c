"""Residual-similarity retrieval.

The global model leaves structured, county-specific error behind.  Two
counties whose residual histories move together share unmodeled local
conditions, so one county's recent seasons are useful extra training
material for the other.  Retrieval here means: build each county's
residual vector from its run of training rows, against the global
model's predictions (the per-seed table of `backbone.model_labels`, one
value per block row), compare query and candidates with centered cosine
similarity over their common years, keep candidates above a threshold,
and collect their seasons from the most recent five training years, as
rows of the training Dataset's block.

Every county is compared with every other, so the comparison is made
once per seed for all pairs, screened once per setting for all queries,
and confirmed exactly per query:

- `compute_residuals` returns a `ResidualPanel` built from its arrays:
  the [counties x years] residual matrix, filled a block of equally long
  vectors at a time, and a similarity table built on first use from four
  matrix products over it: O(N^2 * years) multiply-adds, once per seed.
- The panel's screen for a (threshold, top_k) setting is built on first
  use, for every query row at once, and kept: the flagged candidates,
  and a short list of the candidates that could still clear the
  threshold and the top-k cut, allowing for the table's rounding, plus
  every pair whose common-year variance is too small next to its
  magnitude for the table to be trusted.  Its masks are array
  operations over the whole table, and the per-row top-k cut
  partitions the rows that need one, a block of rows at a time.
- A query reads its row of the screen, and only its short-listed pairs
  are computed with the scalar `centered_cosine`, the one exact
  formula; matching sorts and cuts on those values.  So matches, their
  order and their similarity bits are the same as comparing every pair
  with `centered_cosine`, at one scalar call per short-listed pair:
  about `top_k` per query when it is set, every candidate above the
  threshold when it is not.

Two baselines share the result type: geographic adjacency and mean
yearly-embedding similarity.  The latter is a `retrieve` over an
`embedding_panel`, whose embedding dimensions are its common "years".
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

# unused here; bound so the benchmark tracer's binding-site self-test
# (perfbench/tests/test_perfbench.py) still finds it
from .backbone import global_forward  # noqa: F401
from .numcore import ContractError

_ZERO_NORM = 1e-12
_MIN_COMMON_YEARS = 3
_RECENT_YEARS = 5
# A trusted pair's screened similarity is within a few 1e-10 of its scalar
# value (see `ResidualPanel._build_tables`), so a candidate screened more
# than this below the threshold, or below the top_k-th best screened
# value, cannot be a match.
_SCREEN_MARGIN = 1e-9
# The top_k cut partitions the screened rows this many values at a time.
_SCREEN_BLOCK = 1 << 16
# The screen trusts a pair only if, for both of its vectors, the centered
# sum of squares over the common years exceeds _CANCEL_TOL times their
# sum of squares about the full-vector mean (bounding the cancellation
# in SS - S^2/n) plus _OFFSET_TOL times n * max r^2 (bounding the
# rounding of centering values far from zero).
_CANCEL_TOL = 1e-3
_OFFSET_TOL = 1e-9


@dataclass
class ResidualVector:
    """One county's label-minus-prediction history in physical units."""

    county: str
    years: list
    r: np.ndarray


@dataclass
class RetrievalResult:
    query: str
    matched: list = field(default_factory=list)  # (county, similarity), best first
    # block rows of the training Dataset: matched-county order, then years ascending
    samples: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    flags: list = field(default_factory=list)


def compute_residuals(train, predictions, stats):
    """Residual vectors r^k = y^k - f(x^k) for every training county.

    `predictions` is the global model's prediction f(x^k) per block row
    (`backbone.model_labels`).  The dataset's labels and the predictions
    are normalized by `stats`, and both are mapped back to physical units
    first.  A county's vector is its run of rows, years ascending; a
    county with an unlabeled season has non-finite residuals, a contract
    error.  The result is the `ResidualPanel` of these runs, which maps
    county to `ResidualVector`.
    """
    labels = train.labels() * stats.label_std + stats.label_mean
    preds = predictions[train.rows] * stats.label_std + stats.label_mean
    residuals = labels - preds
    for at in np.flatnonzero(~np.isfinite(residuals))[:1].tolist():
        raise ContractError(f"non-finite residuals for county {train.key(train.rows[at])[0]}")
    sizes = [stop - start for _, start, stop in train.runs()]
    return ResidualPanel(train.counties, train.row_years[train.rows], residuals, sizes)


def _centered_cos(a: np.ndarray, b: np.ndarray) -> float:
    ac = a - a.mean()
    bc = b - b.mean()
    na = float(np.linalg.norm(ac))
    nb = float(np.linalg.norm(bc))
    if na < _ZERO_NORM or nb < _ZERO_NORM:
        return 0.0
    return float(ac @ bc / (na * nb))


def centered_cosine(a: ResidualVector, b: ResidualVector) -> float:
    """Cosine of the mean-centered residual vectors, aligned on common years.

    Constant vectors have zero centered norm; their similarity is
    defined as 0 so they never clear a positive retrieval threshold.
    Vectors over the same years (ascending, as every panel holds them)
    are compared whole: those are the values alignment would select.
    """
    if a.years == b.years and len(a.years) >= 2:
        return _centered_cos(a.r, b.r)
    common, ia, ib = np.intersect1d(a.years, b.years, assume_unique=True, return_indices=True)
    if len(common) < max(2, min(_MIN_COMMON_YEARS, len(a.years), len(b.years))):
        raise ContractError(
            f"counties {a.county} and {b.county} share only {len(common)} years"
        )
    return _centered_cos(a.r[ia], b.r[ib])


class ResidualPanel(Mapping):
    """Residual vectors by county, with the all-pairs similarity screen.

    Built from the vectors laid end to end in arrays; reads like a
    `{county: ResidualVector}` mapping, a county's vector made from those
    arrays on its first read.  Row i of `R` is the i-th county in sorted
    order: its residuals less their full-vector mean in the columns of
    its years, 0 elsewhere.  `M` is the matching 0/1 year mask.
    `min_common` is the fewest common years a pair needs to be compared
    (0: no such rule).  The similarity and common-year-count tables are
    built on the first `tables()` call and kept, and so is each setting's
    `screen` (two N x N bool masks); nothing else N x N outlives its
    build.
    """

    def __init__(self, counties, years, r, sizes, min_common=_MIN_COMMON_YEARS):
        """The panel of sorted `counties` whose vectors lie end to end:
        county i's are the next `sizes[i]` entries of `years` and `r`."""
        self.counties, self.min_common = list(counties), min_common
        self.index = {c: i for i, c in enumerate(self.counties)}
        self._years, self._r = np.asarray(years, dtype=np.int64), r
        sizes = np.asarray(sizes, dtype=np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(sizes)])
        grid, cols = np.unique(self._years, return_inverse=True)
        shape = (len(self.counties), len(grid))
        self.R, self.M = np.zeros(shape), np.zeros(shape)
        self.peak2 = np.zeros(shape[0])  # max r^2 per county
        self.zero_norm = np.zeros(shape[0], dtype=bool)
        for n in sorted(set(sizes.tolist())):  # the counties with n years, as one block
            at = np.flatnonzero(sizes == n)
            idx = self._offsets[at, None] + np.arange(n)
            block = r[idx]
            centered = block - block.mean(axis=1, keepdims=True)
            self.R[at[:, None], cols[idx]] = centered
            self.M[at[:, None], cols[idx]] = 1.0
            self.peak2[at] = (block * block).max(axis=1)
            self.zero_norm[at] = np.sqrt((centered * centered).sum(axis=1)) < _ZERO_NORM
        self._vectors = {}  # county -> its ResidualVector, made on first read
        self._tables = None
        self._screens = {}

    def __getitem__(self, county):
        if county not in self._vectors:
            i = self.index[county]
            lo, hi = self._offsets[i], self._offsets[i + 1]
            self._vectors[county] = ResidualVector(county, self._years[lo:hi].tolist(),
                                                   self._r[lo:hi])
        return self._vectors[county]

    def __iter__(self):
        return iter(self.counties)

    def __len__(self):
        return len(self.counties)

    def tables(self):
        """(screened similarity, common-year count), both N x N."""
        if self._tables is None:
            self._tables = self._build_tables()
        return self._tables

    def screen(self, threshold, top_k):
        """Every query row's (flagged, short-listed) candidates, both N x N bool.

        Built once per (threshold, top_k) setting and kept.  Row q flags the
        candidates sharing fewer than `min_common` years with county q, or
        whose vectors are constant; it short-lists every other candidate
        whose table value is untrusted (NaN), and every trusted one screened
        within `_SCREEN_MARGIN` of both the threshold and the row's top_k-th
        best screened value.  A county is neither flagged nor short-listed
        against itself.
        """
        key = (threshold, top_k)
        if key not in self._screens:
            self._screens[key] = self._build_screen(threshold, top_k)
        return self._screens[key]

    def _build_screen(self, threshold, top_k):
        sim, overlap = self.tables()
        flagged = overlap < self.min_common
        flagged |= self.zero_norm
        np.fill_diagonal(flagged, False)
        live = ~flagged
        np.fill_diagonal(live, False)
        keep = sim > threshold - _SCREEN_MARGIN
        keep &= live
        if top_k is not None:
            # each row's top_k-th best screened value, for the rows holding
            # more than top_k, in blocks of at most _SCREEN_BLOCK values
            n = len(keep)
            cut = np.flatnonzero(np.count_nonzero(keep, axis=1) > top_k)
            step = max(1, _SCREEN_BLOCK // n)
            for lo in range(0, len(cut), step):
                rows = cut[lo:lo + step]
                block = sim[rows]
                block[~keep[rows]] = -np.inf
                block.partition(n - top_k, axis=1)
                keep[rows] &= sim[rows] >= (block[:, n - top_k] - _SCREEN_MARGIN)[:, None]
        keep |= live & np.isnan(sim)
        return flagged, keep

    def _build_tables(self):
        """Every pair's centered cosine over its common years, screened.

        With R zero off the mask, R @ M.T, (R * R) @ M.T, R @ R.T and
        M @ M.T give every pair's sums over the years it shares; the
        common-year centered moments follow from them.  Rounding: the
        centering of R is off by a few eps * max|r| per entry, and the
        products by about n * eps times their sums of absolute terms.
        Where the trust test below holds, both move the similarity by
        well under 1e-9, and the scalar formula's own rounding is of
        the same size.  Pairs that fail it, or come out non-finite,
        read NaN: their value must be computed exactly.
        """
        R, M = self.R, self.M
        n = M @ M.T
        s = R @ M.T  # s[i, j]: sum of row i over the years i and j share
        var = (R * R) @ M.T  # sum of squares, centered below
        limit = n * self.peak2[:, None]
        limit *= _OFFSET_TOL
        limit += _CANCEL_TOL * var
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            tmp = s * s
            tmp /= n
            var -= tmp
            trusted = var > limit
            del limit
            trusted &= trusted.T
            sim = R @ R.T
            np.multiply(s, s.T, out=tmp)
            tmp /= n
            sim -= tmp
            np.multiply(var, var.T, out=tmp)
            np.sqrt(tmp, out=tmp)
            sim /= tmp
            trusted &= np.isfinite(tmp) & np.isfinite(sim)
        sim[~trusted] = np.nan
        return sim, n


def recent_training_years(train, n=_RECENT_YEARS):
    return train.years[-n:]


def _collect_samples(matched, train):
    """The matched counties' rows from the recent training years, in match order."""
    rows = np.concatenate([train.rows[:0]] + [train.county_rows(c) for c, _sim in matched])
    recent = recent_training_years(train)
    return rows[train.row_years[rows] >= recent[0]] if recent else rows


def _match(result, sims, train, threshold, top_k):
    """Fill result from (county, similarity) pairs and return it.

    Keeps pairs strictly above threshold, ordered by (descending
    similarity, county id), capped at top_k, and collects the matched
    counties' samples.
    """
    matched = [(c, s) for c, s in sims if s > threshold]
    matched.sort(key=lambda cs: (-cs[1], cs[0]))
    if top_k is not None:
        matched = matched[:top_k]
    result.matched = matched
    result.samples = _collect_samples(matched, train)
    return result


def retrieve(query, residuals, train, threshold=0.9, top_k=None):
    """Counties whose residual vectors track the query's, with samples.

    Matches are every other county with similarity strictly above the
    threshold, ordered by (descending similarity, county id).  Samples
    are the block rows of every season of the matched counties from the
    last five training years.  An optional top_k (at least 1) caps the
    match list after sorting.

    Candidates sharing fewer than the panel's `min_common` years with
    the query (three for residuals), or whose vectors are constant, are
    flagged and skipped.  `residuals` is the `ResidualPanel` of
    `compute_residuals`, or an `embedding_panel` for the mean-embedding
    baseline.

    A panel builds its screen once per (threshold, top_k) setting, for
    every query at once (`ResidualPanel.screen`); each query then reads
    its row, flags in sorted-county order.  The exact value is computed
    for the row's short list only (every untrusted pair, and every
    trusted candidate screened within the margin of both the threshold
    and the top_k-th best screened value); `_match` then sorts and cuts
    on the exact values only.
    """
    if top_k is not None and top_k < 1:
        raise ContractError(f"top_k must be at least 1, got {top_k}")
    if query not in residuals:
        raise ContractError(f"no residual vector for query county {query}")
    result = RetrievalResult(query=query)
    q = residuals.index[query]
    if residuals.zero_norm[q]:
        result.flags.append(f"degenerate_query:{query}")
        return result
    flagged, keep = residuals.screen(threshold, top_k)
    _sim, overlap = residuals.tables()
    for j in np.flatnonzero(flagged[q]):
        kind = "insufficient_overlap" if overlap[q, j] < residuals.min_common else "zero_norm"
        result.flags.append(f"{kind}:{residuals.counties[j]}")
    rq = residuals[query]
    sims = []
    for j in np.flatnonzero(keep[q]):
        county = residuals.counties[j]
        sims.append((county, centered_cosine(rq, residuals[county])))
    return _match(result, sims, train, threshold, top_k)


_NEIGHBOR_SENTINEL = 1.0


def retrieve_neighboring(query, adjacency, train):
    """Baseline: matched counties are the query's geographic neighbors.

    Similarity is a sentinel 1.0 so downstream code paths are shared.
    Each neighbor is matched once, however often the map lists it, and
    the query is never its own neighbor.  A query absent from the
    adjacency map yields an empty, flagged result rather than an error.
    """
    result = RetrievalResult(query=query)
    if query not in adjacency:
        warnings.warn(f"county {query} missing from adjacency map")
        result.flags.append(f"missing_adjacency:{query}")
        return result
    matched = [(c, _NEIGHBOR_SENTINEL) for c in sorted(set(adjacency[query]) - {query})]
    result.matched = matched
    result.samples = _collect_samples(matched, train)
    return result


def embedding_panel(counties, means) -> ResidualPanel:
    """Mean embeddings as a panel: row i of `means` [N x E] is sorted
    county i's, and every dimension is a shared "year".

    No common-year rule applies, so only constant embeddings are
    skipped.
    """
    n, width = means.shape
    return ResidualPanel(counties, np.tile(np.arange(width), n), means.ravel(), [width] * n,
                         min_common=0)


def save_retrieval_csv(results, train, path):
    """One row per retrieved sample: query,matched,similarity,sample_year.

    Samples are rows of `train`, the Dataset they were retrieved from.
    """
    lines = ["query,matched,similarity,sample_year"]
    for res in results:
        sim_of = dict(res.matched)
        for county, year in map(train.key, res.samples.tolist()):
            lines.append(f"{res.query},{county},{sim_of[county]!r},{year}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_flags_csv(results, path):
    """One row per retrieval flag: query,flag,county.

    A flag names a skipped candidate (`insufficient_overlap`,
    `zero_norm`) or a query that could not be matched
    (`degenerate_query`, `missing_adjacency`).
    """
    lines = ["query,flag,county"]
    for res in results:
        for flag in res.flags:
            kind, county = flag.split(":", 1)
            lines.append(f"{res.query},{kind},{county}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
