"""Residual-similarity retrieval.

The global model leaves structured, county-specific error behind.  Two
counties whose residual histories move together share unmodeled local
conditions, so one county's recent seasons are useful extra training
material for the other.  Retrieval here means: build each county's
residual vector against the global model's predictions (the per-seed
label table of `backbone.model_labels`), compare query and candidates
with centered cosine similarity, keep candidates above a threshold, and
collect their records from the most recent five training years.

Two baselines share the result type: geographic adjacency and mean
yearly-embedding similarity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

# unused here; bound so the benchmark tracer's binding-site self-test
# (perfbench/tests/test_perfbench.py) still finds it
from .backbone import global_forward  # noqa: F401
from .numcore import ContractError

_ZERO_NORM = 1e-12
_MIN_COMMON_YEARS = 3
_RECENT_YEARS = 5


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
    samples: list = field(default_factory=list)  # CountyYearRecord entries
    flags: list = field(default_factory=list)


def compute_residuals(train, predictions, stats=None):
    """Residual vectors r^k = y^k - f(x^k) for every training county.

    `predictions` maps (county, year) to the global model's prediction
    f(x^k) for every labeled record.  When `stats` is given the dataset
    is assumed normalized and both labels and predictions are mapped
    back to physical units first.  Counties with no labeled years are
    excluded with a warning.
    """
    labeled = [rec for rec in train.records if rec.has_label]
    skipped = sorted({rec.county for rec in train.records} - {rec.county for rec in labeled})
    if skipped:
        warnings.warn(f"counties without labels excluded from retrieval: {skipped}")
    if not labeled:
        raise ContractError("no labeled records to build residuals from")
    out = {}
    for rec in labeled:
        label, pred = rec.yield_label, predictions[rec.county, rec.year]
        if stats is not None:
            label = stats.denormalize_label(label)
            pred = stats.denormalize_label(pred)
        rv = out.get(rec.county)
        if rv is None:
            rv = out[rec.county] = ResidualVector(rec.county, [], [])
        rv.years.append(rec.year)
        rv.r.append(label - pred)
    for rv in out.values():
        order = np.argsort(rv.years)
        rv.years = [rv.years[i] for i in order]
        rv.r = np.asarray(rv.r, dtype=np.float64)[order]
        if not np.all(np.isfinite(rv.r)):
            raise ContractError(f"non-finite residuals for county {rv.county}")
    return out


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
    """
    common = sorted(set(a.years) & set(b.years))
    if len(common) < max(2, min(_MIN_COMMON_YEARS, len(a.years), len(b.years))):
        raise ContractError(
            f"counties {a.county} and {b.county} share only {len(common)} years"
        )
    ia = {y: i for i, y in enumerate(a.years)}
    ib = {y: i for i, y in enumerate(b.years)}
    va = a.r[[ia[y] for y in common]]
    vb = b.r[[ib[y] for y in common]]
    return _centered_cos(va, vb)


def pairwise_cosine(M: np.ndarray) -> np.ndarray:
    """Centered cosine between all row pairs of an aligned matrix [n x K]."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[1] < 2:
        raise ContractError("pairwise_cosine expects [n x K] with K >= 2")
    C = M - M.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(C, axis=1)
    safe = np.where(norms < _ZERO_NORM, 1.0, norms)
    U = C / safe[:, None]
    sims = U @ U.T
    sims[norms < _ZERO_NORM, :] = 0.0
    sims[:, norms < _ZERO_NORM] = 0.0
    return sims


def recent_training_years(train, n=_RECENT_YEARS):
    return train.years[-n:]


def _collect_samples(matched, train):
    recent = set(recent_training_years(train))
    samples = []
    for county, _sim in matched:
        for year in train.county_years(county):
            if year in recent:
                samples.append(train.get(county, year))
    return samples


def retrieve(query, residuals, train, threshold=0.9, top_k=None):
    """Counties whose residual vectors track the query's, with samples.

    Matches are every other county with similarity strictly above the
    threshold, ordered by (descending similarity, county id).  Samples
    are all records of matched counties from the last five training
    years.  An optional top_k caps the match list after sorting.
    """
    if query not in residuals:
        raise ContractError(f"no residual vector for query county {query}")
    rq = residuals[query]
    result = RetrievalResult(query=query)
    if float(np.linalg.norm(rq.r - rq.r.mean())) < _ZERO_NORM:
        result.flags.append(f"degenerate_query:{query}")
        return result
    sims = []
    for county in sorted(residuals):
        if county == query:
            continue
        rv = residuals[county]
        common = set(rq.years) & set(rv.years)
        if len(common) < _MIN_COMMON_YEARS:
            result.flags.append(f"insufficient_overlap:{county}")
            continue
        if float(np.linalg.norm(rv.r - rv.r.mean())) < _ZERO_NORM:
            result.flags.append(f"zero_norm:{county}")
            continue
        sims.append((county, centered_cosine(rq, rv)))
    matched = [(c, s) for c, s in sims if s > threshold]
    matched.sort(key=lambda cs: (-cs[1], cs[0]))
    if top_k is not None:
        matched = matched[:top_k]
    result.matched = matched
    result.samples = _collect_samples(matched, train)
    return result


_NEIGHBOR_SENTINEL = 1.0


def retrieve_neighboring(query, adjacency, train):
    """Baseline: matched counties are the query's geographic neighbors.

    Similarity is a sentinel 1.0 so downstream code paths are shared.
    A query absent from the adjacency map yields an empty, flagged
    result rather than an error.
    """
    result = RetrievalResult(query=query)
    if query not in adjacency:
        warnings.warn(f"county {query} missing from adjacency map")
        result.flags.append(f"missing_adjacency:{query}")
        return result
    matched = [(c, _NEIGHBOR_SENTINEL) for c in sorted(adjacency[query])]
    result.matched = matched
    result.samples = _collect_samples(matched, train)
    return result


def retrieve_embedding(query, embeddings, train, threshold=0.9, top_k=None):
    """Baseline: match counties by centered cosine over mean yearly embeddings."""
    if query not in embeddings:
        raise ContractError(f"no embedding for query county {query}")
    zq = np.asarray(embeddings[query], dtype=np.float64)
    result = RetrievalResult(query=query)
    if float(np.linalg.norm(zq - zq.mean())) < _ZERO_NORM:
        result.flags.append(f"degenerate_query:{query}")
        return result
    sims = []
    for county in sorted(embeddings):
        if county == query:
            continue
        zc = np.asarray(embeddings[county], dtype=np.float64)
        sim = _centered_cos(zq, zc)
        if sim == 0.0 and float(np.linalg.norm(zc - zc.mean())) < _ZERO_NORM:
            result.flags.append(f"zero_norm:{county}")
            continue
        sims.append((county, sim))
    matched = [(c, s) for c, s in sims if s > threshold]
    matched.sort(key=lambda cs: (-cs[1], cs[0]))
    if top_k is not None:
        matched = matched[:top_k]
    result.matched = matched
    result.samples = _collect_samples(matched, train)
    return result


def save_retrieval_csv(results, path):
    """One row per retrieved sample: query,matched,similarity,sample_year."""
    lines = ["query,matched,similarity,sample_year"]
    for res in results:
        sim_of = dict(res.matched)
        for rec in res.samples:
            lines.append(f"{res.query},{rec.county},{sim_of[rec.county]!r},{rec.year}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
