"""County-year data model, CSV ingestion, normalization, splits, synthesis.

Labels are guarded by a module-level access audit: every read of a record's
yield label is reported to `label_audit`, and reads of a guarded (test) year
outside an explicit allow() scope count as violations.  Evaluation code opens
an allow() scope; nothing else should.

CSV ingestion (`load_dataset`) parses a chunk of rows at a time: each
chunk is transposed into columns, and its numbers are converted with
Python's `int` and `float` straight into arrays.  Those two parsers, and
not numpy's, decide which strings a file may hold (`float` reads `1_000`,
padded or non-ASCII digits), so every accepted value has the bits `float`
gives it.  The checks on each (county, year) then run as array operations
once the last chunk is in, and the loaded records view the rows of one
[records x T x d] feature block.
"""

from __future__ import annotations

import bisect
import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, islice

import numpy as np

from .numcore import ContractError, NumericError


class IngestionError(ValueError):
    """Malformed dataset input; message carries the offending row or record."""


class LabelAudit:
    """Counts label reads of guarded years outside allow() scopes."""

    def __init__(self):
        self._guarded: set[int] = set()
        self._allow_depth = 0
        self._violations: list[tuple[str, int]] = []

    @contextmanager
    def guard(self, *years: int):
        added = [y for y in years if y not in self._guarded]
        self._guarded.update(added)
        try:
            yield self
        finally:
            self._guarded.difference_update(added)

    @contextmanager
    def allow(self):
        self._allow_depth += 1
        try:
            yield self
        finally:
            self._allow_depth -= 1

    def note(self, county: str, year: int) -> None:
        if year in self._guarded and self._allow_depth == 0:
            self._violations.append((county, year))

    def violation_count(self) -> int:
        return len(self._violations)

    def reset(self) -> None:
        self._guarded.clear()
        self._allow_depth = 0
        self._violations.clear()


label_audit = LabelAudit()


class CountyYearRecord:
    """One county-year: daily driver matrix [T x d] plus the annual label.

    The label is exposed only through the audited `yield_label` property;
    `has_label` answers presence without counting as a read.
    """

    __slots__ = ("county", "year", "features", "_yield_label", "neighbors")

    def __init__(self, county, year, features, yield_label, neighbors=None):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise IngestionError(f"features of ({county},{year}) must be 2-D")
        if not np.isfinite(features).all():
            raise NumericError(f"non-finite features in ({county},{year})")
        if yield_label is not None:
            yield_label = float(yield_label)
            if not math.isfinite(yield_label):
                raise NumericError(f"non-finite label in ({county},{year})")
        self.county = str(county)
        self.year = int(year)
        self.features = features
        self._yield_label = yield_label
        self.neighbors = list(neighbors) if neighbors is not None else None

    @property
    def yield_label(self):
        label_audit.note(self.county, self.year)
        return self._yield_label

    @property
    def has_label(self) -> bool:
        return self._yield_label is not None

    def with_changes(self, features=None, yield_label="keep"):
        return CountyYearRecord(
            self.county,
            self.year,
            self.features if features is None else features,
            self._yield_label if yield_label == "keep" else yield_label,
            neighbors=self.neighbors,
        )


class Dataset:
    """Immutable collection of county-year records with unique (county, year)."""

    def __init__(self, records):
        records = sorted(records, key=lambda r: (r.county, r.year))
        index = {}
        for rec in records:
            key = (rec.county, rec.year)
            if key in index:
                raise IngestionError(f"duplicate record for {key}")
            index[key] = rec
        shapes = {rec.features.shape for rec in records}
        if len(shapes) > 1:
            raise IngestionError(f"inconsistent feature shapes {sorted(shapes)}")
        self.records = records
        self._index = index
        self._years_of = {}  # county -> its years, ascending
        self._records_in = {}  # year -> its records, by county
        for rec in records:
            self._years_of.setdefault(rec.county, []).append(rec.year)
            self._records_in.setdefault(rec.year, []).append(rec)
        self.years = sorted(self._records_in)
        self.counties = sorted(self._years_of)
        self.T, self.d = (records[0].features.shape if records else (0, 0))

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def get(self, county, year) -> CountyYearRecord:
        try:
            return self._index[(county, year)]
        except KeyError:
            raise ContractError(f"no record for ({county},{year})") from None

    def county_years(self, county) -> list:
        return list(self._years_of.get(county, ()))

    def records_of_year(self, year) -> list:
        return list(self._records_in.get(year, ()))


# ---------------------------------------------------------------------------
# CSV ingestion

# Data rows parsed per bulk step.  The rows of one chunk are the only
# per-row Python objects alive at a time; their numbers go into arrays.
_CHUNK_ROWS = 1024
# Days at or beyond +-2**62 (absurd, but `int` reads them) are stored as
# int64 codes below -2**62, where no other day lies, so that equal days
# keep equal codes and the group still fails the contiguity check.
_DAY_LIMIT = 2 ** 62


def _row_fault(row, d, row_no):
    """The first fault of one data row, or None, checked field by field.

    Returns (error, keyed): `keyed` when year and day parsed and the error
    comes after the duplicate-day check, which the caller makes.
    """
    if len(row) != d + 4:
        return IngestionError(f"row {row_no}: expected {d + 4} fields, got {len(row)}"), False
    try:
        year = int(row[1])
        int(row[2])
    except ValueError:
        return IngestionError(f"row {row_no}: non-integer year/day"), False
    values = []
    for text in row[3:-1]:
        try:
            values.append(float(text))
        except ValueError:
            return IngestionError(f"row {row_no}: non-numeric feature {text!r}"), False
    for text, value in zip(row[3:-1], values):
        if not math.isfinite(value):
            return NumericError(
                f"row {row_no}: non-finite feature {text!r} in ({row[0]},{year})"), False
    label_text = row[-1].strip()
    if label_text:
        try:
            value = float(label_text)
        except ValueError:
            return IngestionError(f"row {row_no}: non-numeric yield {label_text!r}"), True
        if not math.isfinite(value):
            return NumericError(
                f"row {row_no}: non-finite yield {label_text!r} in ({row[0]},{year})"), True
    return None


class _Rows:
    """The data rows of one CSV file, read chunk by chunk into arrays.

    Each (county, year) gets a group id in first-appearance order.  Per
    row, the chunk arrays hold its group id, day, features and yield (NaN
    when the row gives none: a NaN in the file is a row fault).
    """

    def __init__(self, d):
        self.d = d
        self.row_no = 2  # file row number of the next chunk's first row
        self.n = 0  # data rows read
        self.group_of = {}  # (county, year) -> group id
        self.gid, self.day, self.features, self.label = [], [], [], []
        self.blanks = []  # per blank row: how many data rows came before it
        self.huge_days = {}  # day beyond _DAY_LIMIT -> its code

    def read(self, chunk):
        """Add one chunk of csv rows, or raise the first row fault up to it."""
        rows = list(filter(None, chunk))
        parsed = self._parse(rows)
        if parsed is None:
            self._raise_first_fault(chunk)
        if len(rows) < len(chunk):
            seen = self.n
            for row in chunk:
                if row:
                    seen += 1
                else:
                    self.blanks.append(seen)
        keys, days, features, labels = parsed
        for key in dict.fromkeys(keys):
            self.group_of.setdefault(key, len(self.group_of))
        self.gid.append(np.fromiter(map(self.group_of.__getitem__, keys), np.intp, len(keys)))
        self.day.append(days)
        self.features.append(features)
        self.label.append(labels)
        self.n += len(rows)
        self.row_no += len(chunk)

    def _parse(self, rows):
        """(keys, days, features, labels) of fault-free rows, else None."""
        n, d = len(rows), self.d
        if not rows:
            return [], np.empty(0, np.int64), np.empty((0, d)), np.empty(0)
        if set(map(len, rows)) != {d + 4}:
            return None
        counties, years, days, *columns, label_texts = zip(*rows)
        try:
            years = list(map(int, years))
            days = list(map(int, days))
            features = np.fromiter(map(float, chain.from_iterable(columns)),
                                   np.float64, n * d).reshape(d, n).T
            label_texts = list(map(str.strip, label_texts))
            given = list(map(bool, label_texts))
            values = np.fromiter(map(float, compress(label_texts, given)), np.float64)
        except ValueError:
            return None
        if not (np.isfinite(features).all() and np.isfinite(values).all()):
            return None
        if min(days) < -_DAY_LIMIT or max(days) >= _DAY_LIMIT:
            days = list(map(self._code, days))
        labels = np.full(n, np.nan)
        labels[np.array(given, dtype=bool)] = values
        return list(zip(counties, years)), np.array(days, np.int64), features, labels

    def _raise_first_fault(self, chunk):
        """Raise the first row fault in file order; one lies in `chunk`."""
        i, (error, keyed) = next((i, fault) for i, row in enumerate(chunk)
                                 if row and (fault := _row_fault(row, self.d, self.row_no + i)))
        self.read(chunk[:i])
        row = chunk[i]
        key = (row[0], int(row[1])) if keyed else None
        # a duplicate day is named before a fault in the same row's yield
        self.check_duplicates((self.group_of[key], self._code(int(row[2])))
                              if key in self.group_of else None)
        raise error

    def _code(self, day):
        if -_DAY_LIMIT <= day < _DAY_LIMIT:
            return day
        return self.huge_days.setdefault(day, -_DAY_LIMIT - 1 - len(self.huge_days))

    @staticmethod
    def _concat(parts):
        """The chunk arrays as one array, which then replaces them."""
        if len(parts) != 1:
            parts[:] = [np.concatenate(parts)]
        return parts[0]

    def check_duplicates(self, extra=None):
        """Raise for the first row whose (county, year, day) came before.

        `extra` is the (group id, day) of one more row after the read ones.
        Returns the stable order of the rows by (group, day), or None when
        they already come in that order.
        """
        gid, day = self._concat(self.gid), self._concat(self.day)
        if extra is not None:
            gid, day = np.append(gid, extra[0]), np.append(day, extra[1])
        if ((gid[1:] > gid[:-1]) | ((gid[1:] == gid[:-1]) & (day[1:] > day[:-1]))).all():
            return None
        order = np.lexsort((day, gid))
        gs, ds = gid[order], day[order]
        same = (gs[1:] == gs[:-1]) & (ds[1:] == ds[:-1])
        if same.any():
            i = int(order[1:][same].min())
            code = int(day[i])
            value = next((v for v, c in self.huge_days.items() if c == code), code)
            key = list(self.group_of)[gid[i]]
            row_no = i + 2 + bisect.bisect_right(self.blanks, i)
            raise IngestionError(f"row {row_no}: duplicate day {value} for {key}")
        return order

    def dataset(self):
        """Check each (county, year) group and build the Dataset."""
        if not self.group_of:
            raise IngestionError("no data rows")
        keys = list(self.group_of)
        order = self.check_duplicates()
        gid, day = self._concat(self.gid), self._concat(self.day)
        label, features = self._concat(self.label), self._concat(self.features)
        ds = day if order is None else day[order]  # by group, then day

        n = np.bincount(gid, minlength=len(keys))
        end = np.cumsum(n)
        contiguous = (ds[end - n] == 1) & (ds[end - 1] == n)
        T = 365 if n[0] == 366 else int(n[0])  # a trailing leap-year day is dropped
        kept = np.where((n == 366) & (T == 365), 365, n)

        labeled = np.flatnonzero(~np.isnan(label))
        labeled_gid = gid[labeled]
        groups, first = np.unique(labeled_gid, return_index=True)
        has_label = np.zeros(len(keys), bool)
        has_label[groups] = True
        first_label = np.full(len(keys), np.nan)
        first_label[groups] = label[labeled[first]]
        conflicting = np.zeros(len(keys), bool)
        conflicting[labeled_gid[label[labeled] != first_label[labeled_gid]]] = True

        bad = ~contiguous | (kept != T) | conflicting | (first_label < 0)
        if bad.any():
            g = int(np.argmax(bad))
            county, year = keys[g]
            if not contiguous[g]:
                raise IngestionError(f"({county},{year}): days are not contiguous from 1")
            if kept[g] != T:
                raise IngestionError(f"({county},{year}): {int(kept[g])} days, expected {T}")
            if conflicting[g]:
                values = set(label[(gid == g) & ~np.isnan(label)].tolist())
                raise IngestionError(
                    f"({county},{year}): conflicting yield values {sorted(values)}")
            raise IngestionError(f"({county},{year}): negative yield {first_label[g].item()}")

        if order is None and len(day) == len(keys) * T:
            block = features.reshape(len(keys), T, self.d)
        else:
            rows = np.arange(len(day)) if order is None else order
            block = features[rows[ds <= T]].reshape(len(keys), T, self.d)
        labels = [v if h else None for v, h in zip(first_label.tolist(), has_label.tolist())]
        return Dataset([CountyYearRecord(county, year, block[g], labels[g])
                        for g, (county, year) in enumerate(keys)])


def load_dataset(path: str) -> Dataset:
    """Read the `county,year,day,f1..fd,yield` CSV into a Dataset.

    The yield value may repeat on every day-row of its county-year or appear
    on day 1 only.  A 366th day is dropped when the year length is 365.
    Errors carry 1-based row numbers (header is row 1).

    Rows are read in chunks of `_CHUNK_ROWS`, and only one chunk's strings
    are held at a time.  A chunk is parsed column by column with Python's
    `int` and `float`, so the same strings are accepted and give the same
    bits as a row-by-row parse.  Errors keep their rows: a chunk whose bulk
    parse fails (wrong field count, unreadable or non-finite number) is
    scanned again row by row, and the first faulty row in file order is
    named, with the checks of a row made in this order: field count, year
    and day, features, duplicate day, yield.  A duplicate day in an earlier
    chunk comes first, since duplicates among all rows read so far are
    found before that row's fault is raised.  Once every row is in, the
    (county, year) checks run in first-appearance order: contiguous days
    from 1, the 366th-day rule, one day count for all, one yield value, no
    negative yield.  The records view the rows of one [records x T x d]
    block; rows that already come in (county, year, day) order are not
    copied again to build it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("empty file") from None
        if len(header) < 5 or header[:3] != ["county", "year", "day"] or header[-1] != "yield":
            raise IngestionError(f"bad header {header!r}")
        rows = _Rows(len(header) - 4)
        while True:
            chunk, stopped = [], None
            try:
                chunk.extend(islice(reader, _CHUNK_ROWS))
            except Exception as exc:  # raised after the faults of the rows before it
                stopped = exc
            rows.read(chunk)
            if stopped is not None:
                rows.check_duplicates()
                raise stopped
            if not chunk:
                break
    return rows.dataset()


def _fmt(x: float) -> str:
    return repr(float(x))


def save_dataset_csv(ds: Dataset, path: str) -> None:
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


def load_adjacency(path: str) -> dict:
    """Read `county,neighbor` directed pairs into a county -> neighbors map."""
    adj: dict[str, list] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["county", "neighbor"]:
            raise IngestionError(f"bad adjacency header {header!r}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise IngestionError(f"row {row_no}: expected 2 fields")
            adj.setdefault(row[0], []).append(row[1])
    return adj


def save_adjacency_csv(ds: Dataset, path: str) -> None:
    pairs = set()
    for rec in ds.records:
        if rec.neighbors:
            for nb in rec.neighbors:
                pairs.add((rec.county, nb))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["county", "neighbor"])
        for county, nb in sorted(pairs):
            writer.writerow([county, nb])


# ---------------------------------------------------------------------------
# normalization


@dataclass
class NormStats:
    feature_mean: np.ndarray
    feature_std: np.ndarray
    label_mean: float
    label_std: float
    clamped_features: tuple = ()

    def normalize_label(self, y: float) -> float:
        return (y - self.label_mean) / self.label_std

    def denormalize_label(self, y: float) -> float:
        return y * self.label_std + self.label_mean

    def to_arrays(self) -> dict:
        return {
            "feature_mean": self.feature_mean,
            "feature_std": self.feature_std,
            "label_stats": np.array([self.label_mean, self.label_std]),
            "clamped_features": np.array(self.clamped_features, dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays) -> "NormStats":
        ls = arrays["label_stats"]
        return cls(
            feature_mean=np.asarray(arrays["feature_mean"], dtype=np.float64),
            feature_std=np.asarray(arrays["feature_std"], dtype=np.float64),
            label_mean=float(ls[0]),
            label_std=float(ls[1]),
            clamped_features=tuple(int(i) for i in arrays["clamped_features"]),
        )


def zscore_fit(train: Dataset) -> NormStats:
    """Per-feature and label moments over the training records only."""
    if len(train) == 0:
        raise ContractError("cannot fit normalization on an empty dataset")
    stacked = np.concatenate([rec.features for rec in train.records])
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    clamped = tuple(int(j) for j in np.nonzero(std < 1e-12)[0])
    std = std.copy()
    std[std < 1e-12] = 1.0
    labels = np.array([rec.yield_label for rec in train.records if rec.has_label])
    if labels.size == 0:
        raise ContractError("no labels in the fitting set")
    lmean = float(labels.mean())
    lstd = float(labels.std())
    if lstd < 1e-12:
        lstd = 1.0
    return NormStats(mean, std, lmean, lstd, clamped)


def zscore_apply(ds: Dataset, stats: NormStats, labels: bool = True) -> Dataset:
    """Return a normalized copy; labels transform only when labels=True.

    All features are normalized in one subtraction and one division over
    their stack, which gives each element the bits the per-record
    expression gives; each new record views its row of the result.
    """
    if not ds.records:
        return Dataset([])
    stacked = np.stack([rec.features for rec in ds.records])
    stacked -= stats.feature_mean
    stacked /= stats.feature_std
    out = []
    for rec, feats in zip(ds.records, stacked):
        if labels and rec.has_label:
            label = (rec._yield_label - stats.label_mean) / stats.label_std
        else:
            label = rec._yield_label
        out.append(rec.with_changes(features=feats, yield_label=label))
    return Dataset(out)


def split_by_test_year(ds: Dataset, test_year: int):
    """Train on all years strictly before test_year; test on test_year only."""
    if test_year not in ds.years:
        raise ContractError(f"test year {test_year} not present in dataset")
    train_recs = [r for r in ds.records if r.year < test_year]
    test_recs = [r for r in ds.records if r.year == test_year]
    if not train_recs:
        raise ContractError(f"no training years before {test_year}")
    for rec in train_recs:
        if not rec.has_label:
            raise IngestionError(
                f"training record ({rec.county},{rec.year}) is missing its label"
            )
    return Dataset(train_recs), Dataset(test_recs)


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass
class SyntheticConfig:
    n_counties: int
    n_years: int
    T: int
    d: int
    n_hidden_clusters: int
    year_bias_slope: float
    year_shock_std: float
    obs_noise_std: float
    seed: int
    start_year: int = 2000

    def validate(self):
        if min(self.n_counties, self.n_years, self.T, self.d, self.n_hidden_clusters) < 1:
            raise ContractError("all synthetic counts must be positive")
        if self.year_shock_std < 0 or self.obs_noise_std < 0:
            raise ContractError("noise standard deviations must be nonnegative")
        if self.d < self.n_hidden_clusters:
            raise ContractError("need at least one driver feature per hidden cluster")


@dataclass
class TruthRow:
    noiseless_yield: float
    cluster: int
    soil: float
    shock: float


@dataclass
class SyntheticTruth:
    """Per-record noiseless yields plus the generator components behind them."""

    rows: dict
    cluster_weights: np.ndarray
    feature_centers: np.ndarray
    response_scale: float
    base_yield: float
    slope: float
    shocks: dict
    start_year: int


def synthetic_noiseless_yield(truth: SyntheticTruth, features, cluster, soil, year, shock):
    """The generator's response applied to an arbitrary feature matrix."""
    agg = np.asarray(features).mean(axis=0)
    u = (agg - truth.feature_centers) / truth.response_scale
    response = truth.cluster_weights[cluster] @ (np.tanh(u) * truth.response_scale)
    return soil * (truth.base_yield + response) + truth.slope * (year - truth.start_year) + shock


_BASE_YIELD = 10.0
_RESPONSE_SCALE = 1.5
_WEATHER_STD = 1.0
_WEATHER_LOCAL_STD = 0.5
_IDIO_STD = 0.15
_MICRO_STD = 0.4
_SOIL_HALF_SPAN = 0.2
_SOIL_VISIBILITY = 0.9
_SOIL_CLUSTER_SHARE = 0.98


def generate_synthetic(cfg: SyntheticConfig):
    """Heterogeneous county-year panel with known noiseless yields.

    Counties carry a hidden response cluster and a hidden soil multiplier.
    Clusters differ in WHICH season-aggregated drivers move their yield,
    and the assignment is independent of grid geography.  Fertility is
    regional: counties in one cluster share most of their soil quality,
    the way an agronomic region shares both its practices and its land.
    Each county also has a persistent driver offset (its microclimate),
    and soil correlates with the offset along one fertility direction, so
    part of a county's yield level is learnable from its drivers while
    the cluster response and the rest of soil stay hidden.  The
    un-inputted year trend and per-year shocks are what refinement must
    recover.  Returns (Dataset, SyntheticTruth).
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n, C, T, d = cfg.n_counties, cfg.n_hidden_clusters, cfg.T, cfg.d
    years = [cfg.start_year + k for k in range(cfg.n_years)]
    counties = [f"c{idx:03d}" for idx in range(n)]

    clusters = rng.permutation(n) % C
    micro = rng.normal(0.0, _MICRO_STD, size=(n, d))
    fert_dir = rng.normal(0.0, 1.0, size=d)
    fert_dir /= np.linalg.norm(fert_dir)
    # fertility is regional: counties in a cluster share most of it, both
    # the driver-visible part and the hidden part
    share = _SOIL_CLUSTER_SHARE
    anchors = rng.normal(0.0, 1.0, size=(C, 2))
    own = rng.normal(0.0, 1.0, size=(n, 2))
    fert = math.sqrt(share) * anchors[clusters] + math.sqrt(1.0 - share) * own
    proj = micro @ fert_dir
    micro = micro + (_MICRO_STD * fert[:, 0] - proj)[:, None] * fert_dir[None, :]
    visible = fert[:, 0]  # == (micro @ fert_dir) / _MICRO_STD by construction
    rho = _SOIL_VISIBILITY
    fertility = rho * visible + math.sqrt(1.0 - rho * rho) * fert[:, 1]
    soil = 1.0 + _SOIL_HALF_SPAN * np.tanh(0.8 * fertility)

    # grid geography: row-major placement, 4-neighborhood adjacency
    side = int(math.ceil(math.sqrt(n)))
    neighbors = {}
    for idx, county in enumerate(counties):
        r, c = divmod(idx, side)
        nbs = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = r + dr, c + dc
            j = rr * side + cc
            if 0 <= rr < side and 0 <= cc < side and 0 <= j < n:
                nbs.append(counties[j])
        neighbors[county] = nbs

    # smooth seasonal driver curves with distinct scales and phases
    t_axis = np.arange(T) / T
    offsets = rng.uniform(-2.0, 2.0, size=d)
    amplitudes = rng.uniform(0.5, 1.5, size=d)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=d)
    season = offsets[None, :] + amplitudes[None, :] * np.sin(
        2.0 * np.pi * t_axis[:, None] + phases[None, :]
    )
    feature_centers = season.mean(axis=0)

    # cluster response weights on disjoint feature blocks, zero elsewhere
    block = d // C
    weights = np.zeros((C, d))
    for c in range(C):
        cols = slice(c * block, (c + 1) * block)
        signs = rng.choice([-1.0, 1.0], size=block)
        weights[c, cols] = signs / math.sqrt(block)

    # year-level anomalies shared by all counties, plus a local deviation
    # per county-year; the shared part drives the cluster-correlated
    # residual structure, the local part keeps in-year variation rich
    weather = rng.normal(0.0, _WEATHER_STD, size=(cfg.n_years, d))
    local = rng.normal(0.0, _WEATHER_LOCAL_STD, size=(n, cfg.n_years, d))
    shocks = {
        year: (rng.normal(0.0, cfg.year_shock_std) if cfg.year_shock_std > 0 else 0.0)
        for year in years
    }

    records = []
    rows = {}
    truth = SyntheticTruth(
        rows=rows,
        cluster_weights=weights,
        feature_centers=feature_centers,
        response_scale=_RESPONSE_SCALE,
        base_yield=_BASE_YIELD,
        slope=cfg.year_bias_slope,
        shocks=shocks,
        start_year=cfg.start_year,
    )
    for idx, county in enumerate(counties):
        for k, year in enumerate(years):
            idio = rng.normal(0.0, _IDIO_STD, size=(T, d))
            features = (season + micro[idx][None, :]
                        + (weather[k] + local[idx, k])[None, :] + idio)
            noiseless = synthetic_noiseless_yield(
                truth, features, clusters[idx], soil[idx], year, shocks[year]
            )
            observed = noiseless + (
                rng.normal(0.0, cfg.obs_noise_std) if cfg.obs_noise_std > 0 else 0.0
            )
            if observed < 0 or noiseless < 0:
                raise NumericError(
                    f"synthetic yield went negative for ({county},{year}); "
                    "reduce slopes or noise"
                )
            rows[(county, year)] = TruthRow(
                noiseless_yield=float(noiseless),
                cluster=int(clusters[idx]),
                soil=float(soil[idx]),
                shock=float(shocks[year]),
            )
            records.append(
                CountyYearRecord(
                    county,
                    year,
                    features,
                    float(observed),
                    neighbors=neighbors[county],
                )
            )
    return Dataset(records), truth


def save_truth_csv(truth: SyntheticTruth, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["county", "year", "noiseless_yield", "cluster", "soil", "shock"])
        for (county, year), row in sorted(truth.rows.items()):
            writer.writerow(
                [county, year, _fmt(row.noiseless_yield), row.cluster, _fmt(row.soil), _fmt(row.shock)]
            )
