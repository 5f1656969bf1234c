"""County-year data model, CSV ingestion, normalization, splits, synthesis.

A `Dataset` is one [rows x T x d] feature block in (county, year)
order with a (county, year) -> row index: a county's seasons are a run of
rows, splits are row subsets, and normalization is one array operation.
The library reads it only as arrays: features by block row, labels
through `labels`, and which rows have one through the `labeled` mask.

A run holds no test-year label: `Dataset.labels_before(year)` gives the
same rows and block with a new label array, NaN from `year` on, which
its splits and normalized copies carry like any label array.  Only the
labelled test split of the panel as given (see `pipeline.load`) reads them.

CSV ingestion (`load_dataset`) parses a chunk of rows at a time: each
chunk is transposed into columns, and its numbers are converted with
Python's `int` and `float` straight into arrays.  Those two parsers, and
not numpy's, decide which strings a file may hold (`float` reads `1_000`,
padded or non-ASCII digits), so every accepted value has the bits `float`
gives it.  The checks on each (county, year) then run as array operations
once the last chunk is in, and the rows become the Dataset's feature block.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, islice

import numpy as np

from .numcore import ContractError, NumericError


class IngestionError(ValueError):
    """Malformed dataset input; message carries the offending row or record."""


@dataclass(slots=True, eq=False)
class CountyYearRecord:
    """One county-year: a view of its row [T x d] of a Dataset's block, and its label.

    The label is read through `Dataset.labels`; `has_label` answers presence.
    """

    county: str
    year: int
    features: np.ndarray
    _yield_label: float | None = field(repr=False)

    @property
    def has_label(self) -> bool:
        return self._yield_label is not None


class Dataset:
    """County-year seasons as one feature block in (county, year) order.

    Row i of `features` [rows x T x d] is the season `key(i)`.  A Dataset
    covers the block rows in `rows`: all of them for a panel, a subset for
    a split.  Splits and normalized copies keep the panel's row numbering,
    and `labels` normalizes as it reads, so they share the panel's label
    array, never copy it.  `records`, per-season `CountyYearRecord` views,
    are kept for readers outside the library.
    """

    def __init__(self, keys, features, labels, neighbors=None):
        """keys: (county, year) per row; features: [rows x T x d]; labels: per row,
        None where a season has none; neighbors: county -> its neighbors.  Rows
        are put in key order, which copies the block unless they already are."""
        keys = [(str(county), int(year)) for county, year in keys]
        features = np.asarray(features, dtype=np.float64)
        given = np.array([v is not None for v in labels], dtype=bool)
        labels = np.array([np.nan if v is None else v for v in labels], dtype=np.float64)
        if features.ndim != 3 or not len(features) == len(labels) == len(keys):
            raise IngestionError(f"{len(keys)} keys, {len(labels)} labels, block {features.shape}")
        finite = np.isfinite(features).all(axis=(1, 2)) & (np.isfinite(labels) | ~given)
        for i in np.flatnonzero(~finite)[:1]:
            raise NumericError(f"non-finite values in ({keys[i][0]},{keys[i][1]})")
        order = sorted(range(len(keys)), key=keys.__getitem__)
        if order != list(range(len(keys))):
            keys, features, labels = [keys[i] for i in order], features[order], labels[order]
        for key in (a for a, b in zip(keys, keys[1:]) if a == b):
            raise IngestionError(f"duplicate record for {key}")
        self._set(keys, features, labels, dict(neighbors or {}))

    def _set(self, keys, features, labels, neighbors, rows=None, label_norms=(),
             row_years=None, first_rows=None) -> "Dataset":
        self.features, self._keys, self._labels = features, keys, labels  # per block row
        self.neighbors = neighbors  # county -> its neighbors (the adjacency, if known)
        self._label_norms = label_norms  # (mean, std) pairs applied on read, in order
        # per block row, shared by views: its year, its county's first row (keys sorted)
        if row_years is None:
            row_years = np.fromiter((y for _, y in keys), np.int64, len(keys))
            counties = np.array([county for county, _ in keys])
            first_rows = np.searchsorted(counties, counties)
        self.row_years, self._first_rows = row_years, first_rows
        self.rows = np.arange(len(keys)) if rows is None else rows
        first = first_rows[self.rows]
        starts = np.flatnonzero(np.diff(first, prepend=-1))  # where each county's run begins
        stops = np.append(starts[1:], len(self.rows))
        self.counties = [keys[row][0] for row in self.rows[starts].tolist()]
        # county -> (start, stop) of its run in `rows`
        self._runs = dict(zip(self.counties, zip(starts.tolist(), stops.tolist())))
        # not np.unique: numpy's hash-based unique costs about 1 MiB of peak RSS
        self.years = sorted(set(row_years[self.rows].tolist()))
        self.T, self.d = features.shape[1:]
        return self

    def _view(self, rows, features=None, label_norms=(), labels=None) -> "Dataset":
        """The Dataset of some of these rows: of this block and label array,
        or of `features` or `labels` (per block row) in their place."""
        return Dataset.__new__(Dataset)._set(
            self._keys, self.features if features is None else features,
            self._labels if labels is None else labels, self.neighbors, rows,
            self._label_norms + label_norms, self.row_years, self._first_rows)

    def labels_before(self, year: int) -> "Dataset":
        """These rows with no label of `year` or later: the block is shared,
        the label array is new, and this Dataset keeps its labels."""
        return self._view(self.rows, labels=np.where(self.row_years < year, self._labels, np.nan))

    def __len__(self):
        return len(self.rows)

    def key(self, row) -> tuple:
        """The (county, year) of a block row."""
        return self._keys[row]

    def keys(self) -> list:
        """The (county, year) of each of this dataset's rows, in row order."""
        return [self._keys[row] for row in self.rows.tolist()]

    @cached_property
    def _row(self) -> dict:
        """(county, year) -> block row, for this dataset's rows."""
        return {self._keys[row]: row for row in self.rows.tolist()}

    def row(self, county, year) -> int:
        """The block row of one of this dataset's seasons."""
        try:
            return self._row[(county, year)]
        except KeyError:
            raise ContractError(f"no record for ({county},{year})") from None

    def county_rows(self, county) -> np.ndarray:
        """The county's rows, ascending by year (none for an unknown county)."""
        start, stop = self._runs.get(county, (0, 0))
        return self.rows[start:stop]

    def runs(self) -> list:
        """(county, start, stop) per county, in order: its run of positions in `rows`."""
        return [(county, start, stop) for county, (start, stop) in self._runs.items()]

    def run_starts(self, rows) -> np.ndarray:
        """Per block row in `rows` (of this block, here or not), the position
        in `self.rows` where its county's seasons here begin: those before
        the row sit from there to the row's own `searchsorted` position."""
        return np.searchsorted(self.rows, self._first_rows[rows])

    def labels(self, rows=None) -> np.ndarray:
        """Labels of block rows (default: its own), NaN for none."""
        rows = self.rows if rows is None else np.asarray(rows, dtype=np.int64)
        return self._normalized(self._labels[rows])

    @property
    def labeled(self) -> np.ndarray:
        """Per row of this dataset, whether its season has a label."""
        return ~np.isnan(self._labels[self.rows])

    def _normalized(self, values):
        for mean, std in self._label_norms:
            values = (values - mean) / std
        return values

    @cached_property
    def records(self) -> list:
        """One `CountyYearRecord` view per row, in row order."""
        return [CountyYearRecord(c, y, self.features[r], None if v != v else v)
                for r, (c, y), v in zip(self.rows.tolist(), self.keys(),
                                        self._normalized(self._labels[self.rows]).tolist())]


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

        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        if order is None and len(day) == len(keys) * T and by_key == list(range(len(keys))):
            block = features.reshape(len(keys), T, self.d)
        else:
            rows = np.arange(len(day)) if order is None else order
            block = features[rows[ds <= T].reshape(len(keys), T)[by_key]]
        return Dataset.__new__(Dataset)._set([keys[g] for g in by_key], block,
                                             first_label[by_key], {})


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
    negative yield.  The block holds the seasons in (county, year) order;
    rows that already come in that order are not copied again to build it.
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
    """Write the exact ingestion format; floats keep full round-trip precision.

    A season's lines are joined from its block row; `csv.writer` quotes its
    county and year as it would in a whole row (numbers never need it).
    Labels are written as held (normalized for a normalized copy).
    """
    labels, prefix = ds._normalized(ds._labels[ds.rows]), io.StringIO()
    key_writer = csv.writer(prefix, lineterminator="\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ["county", "year", "day"] + [f"f{j + 1}" for j in range(ds.d)] + ["yield"])
        for row, key, label in zip(ds.rows.tolist(), ds.keys(), labels.tolist()):
            prefix.seek(0)
            prefix.truncate()
            key_writer.writerow(key)
            head = prefix.getvalue()[:-1]
            tail = "," + ("" if label != label else _fmt(label)) + "\n"
            fh.write("".join(f"{head},{day},{','.join(map(repr, values))}{tail}"
                             for day, values in enumerate(ds.features[row].tolist(), 1)))


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
    pairs = {(county, nb) for county, nbs in ds.neighbors.items() for nb in nbs}
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
    days = np.take(train.features, train.rows, axis=0).reshape(-1, train.d)
    mean = days.mean(axis=0)
    std = days.std(axis=0)
    clamped = tuple(int(j) for j in np.nonzero(std < 1e-12)[0])
    std[std < 1e-12] = 1.0
    labels = train.labels()
    labels = labels[~np.isnan(labels)]
    if labels.size == 0:
        raise ContractError("no labels in the fitting set")
    lmean = float(labels.mean())
    lstd = float(labels.std())
    if lstd < 1e-12:
        lstd = 1.0
    return NormStats(mean, std, lmean, lstd, clamped)


def zscore_apply(ds: Dataset, stats: NormStats) -> Dataset:
    """The normalized Dataset: same rows, block and labels z-scored.

    The whole block is normalized in one subtraction and one division,
    which gives each element the bits the per-record expression gives;
    labels are normalized as they are read.
    """
    block = ds.features - stats.feature_mean
    block /= stats.feature_std
    return ds._view(ds.rows, block, ((stats.label_mean, stats.label_std),))


def split_by_test_year(ds: Dataset, test_year: int):
    """Train on all years strictly before test_year; test on test_year only."""
    if test_year not in ds.years:
        raise ContractError(f"test year {test_year} not present in dataset")
    years = ds.row_years[ds.rows]
    train, test = ds._view(ds.rows[years < test_year]), ds._view(ds.rows[years == test_year])
    if not len(train):
        raise ContractError(f"no training years before {test_year}")
    for county, year in map(ds.key, train.rows[np.isnan(ds._labels[train.rows])][:1]):
        raise IngestionError(f"training record ({county},{year}) is missing its label")
    return train, test


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

    keys, labels = [], []
    block = np.empty((n * cfg.n_years, T, d))
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
            block[len(keys)] = features = (season + micro[idx][None, :]
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
            keys.append((county, year))
            labels.append(float(observed))
    return Dataset(keys, block, labels, neighbors), truth


def save_truth_csv(truth: SyntheticTruth, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["county", "year", "noiseless_yield", "cluster", "soil", "shock"])
        for (county, year), row in sorted(truth.rows.items()):
            writer.writerow(
                [county, year, _fmt(row.noiseless_yield), row.cluster, _fmt(row.soil), _fmt(row.shock)]
            )
