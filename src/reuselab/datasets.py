"""Synthetic generators, CSV ingestion and writing, and train/test splitting.

All generators draw from ``numpy.random.default_rng(seed)`` and derive the
label purely from the drawn position, so labels can always be re-derived
from features. Loaded CSV datasets one-hot encode categorical columns and
map the raw label onto {-1, +1}.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DataFormatError,
    InvalidArgumentError,
    SingleClassDataError,
    UnknownCategoryError,
    is_int,
    is_number,
)

NUMERIC = "numeric"
ONE_HOT = "one-hot-block"
# The largest array length numpy accepts.
MAX_LENGTH = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class Dataset:
    """An ordered pool of labelled instances with homogeneous dimension.

    ``feature_kinds`` tags each column as numeric or part of a one-hot
    block; ``feature_names`` keeps the origin of encoded columns (one-hot
    columns are named ``source=level``).
    """

    x: np.ndarray
    y: np.ndarray
    feature_kinds: tuple[str, ...] = ()
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.int64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise InvalidArgumentError("dataset needs a non-empty (n, dim) feature matrix")
        if not np.isfinite(x).all():
            raise InvalidArgumentError("features must be finite numbers")
        if y.shape != (x.shape[0],):
            raise InvalidArgumentError("labels must align with instances")
        if not ((y == 1) | (y == -1)).all():
            raise InvalidArgumentError("labels must be -1 or +1")
        kinds = self.feature_kinds or (NUMERIC,) * x.shape[1]
        names = self.feature_names or tuple(f"f{i}" for i in range(x.shape[1]))
        if len(kinds) != x.shape[1] or len(names) != x.shape[1]:
            raise InvalidArgumentError("per-column metadata must match dim")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_kinds", tuple(kinds))
        object.__setattr__(self, "feature_names", tuple(names))

    def __len__(self):
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def positive_fraction(self) -> float:
        return float(np.mean(self.y == 1))

    def take(self, indices: np.ndarray) -> "Dataset":
        return replace(self, x=self.x[indices], y=self.y[indices])


@dataclass(frozen=True)
class SplitPair:
    """A disjoint train/test partition; the train side is already shuffled."""

    train: Dataset
    test: Dataset


# ---------------------------------------------------------------------------
# Synthetic generators


def gen_uniform_line(n: int, seed: int) -> Dataset:
    """Two uniform 1-D classes: label -1 on [-1, 0), +1 on [0, 1]."""
    if n < 2:
        raise InvalidArgumentError("n must be at least 2")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    y = np.where(x[:, 0] < 0.0, -1, 1)
    return Dataset(x, y)


FOUR_CLUSTER_EDGES = (-7.5, -7.0, 0.0, 7.0, 7.5)
FOUR_CLUSTER_PROBS = (0.01, 0.49, 0.49, 0.01)
FOUR_CLUSTER_LABELS = (1, -1, 1, -1)


def gen_four_cluster_line(n: int, seed: int) -> Dataset:
    """1-D four-cluster problem: two tiny edge clusters at 1% mass each.

    Supports [-7.5,-7), [-7,0), [0,7), [7,7.5] with probabilities
    0.01/0.49/0.49/0.01 and labels +1/-1/+1/-1.
    """
    if n < 4:
        raise InvalidArgumentError("n must be at least 4")
    rng = np.random.default_rng(seed)
    which = rng.choice(4, size=n, p=FOUR_CLUSTER_PROBS)
    lo = np.asarray(FOUR_CLUSTER_EDGES[:-1])[which]
    hi = np.asarray(FOUR_CLUSTER_EDGES[1:])[which]
    x = rng.uniform(lo, hi).reshape(n, 1)
    y = np.asarray(FOUR_CLUSTER_LABELS, dtype=np.int64)[which]
    return Dataset(x, y)


CIRCLE_R_INNER = 9.9
CIRCLE_R_OUTER = 10.2


def gen_circle(n: int, circle_prob: float, seed: int) -> Dataset:
    """Two dense unit-square clusters orbited by a sparse ring of flipped labels.

    ``circle_prob`` is the per-side ring probability, so a fraction
    ``2 * circle_prob`` of all samples lands on the ring (radii
    [9.9, 10.2], area-uniform).
    """
    if n < 2:
        raise InvalidArgumentError("n must be at least 2")
    if not (0.0 < circle_prob < 0.5):
        raise InvalidArgumentError("circle_prob must lie in (0, 0.5)")
    rng = np.random.default_rng(seed)
    on_ring = rng.random(n) < 2.0 * circle_prob
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    radius = np.sqrt(rng.uniform(CIRCLE_R_INNER**2, CIRCLE_R_OUTER**2, size=n))
    ring = np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))
    x = np.where(on_ring[:, None], ring, x)
    cluster_side = np.where(x[:, 0] < 0.0, -1, 1)
    y = np.where(on_ring, -cluster_side, cluster_side)
    return Dataset(x, y)


# ---------------------------------------------------------------------------
# CSV ingestion

CATEGORICAL = "categorical"


@dataclass(frozen=True)
class CsvTable:
    """A parsed CSV pool, stored compact: the numeric columns as float64, and
    for each categorical column the code of every row's level (its place in
    the column's level order). ``take`` encodes any rows as a ``Dataset``."""

    numeric: np.ndarray     # (numeric columns, n)
    numeric_at: np.ndarray  # the Dataset column of each numeric column
    codes: np.ndarray       # (categorical columns, n)
    block_at: np.ndarray    # (categorical columns, 1): the Dataset column of each level 0
    y: np.ndarray
    feature_kinds: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __len__(self):
        return len(self.y)

    def take(self, rows: np.ndarray) -> Dataset:
        """The encoded ``Dataset`` of ``rows``, in their order."""
        x = np.zeros((len(rows), len(self.feature_kinds)))
        x[:, self.numeric_at] = self.numeric[:, rows].T
        x[np.arange(len(rows)), self.codes[:, rows] + self.block_at] = 1.0
        return Dataset(x, self.y[rows], self.feature_kinds, self.feature_names)


def load_csv(path, label_column, positive_values, schema, header=True) -> Dataset:
    """The ``Dataset`` of every row of the file (see ``parse_csv``)."""
    table = parse_csv(path, label_column, positive_values, schema, header)
    return table.take(np.arange(len(table)))


def parse_csv(path: str | os.PathLike, label_column: str | int,
              positive_values: Sequence[str] | str, schema: Mapping[str, object],
              header: bool = True) -> CsvTable:
    """Parse a delimited text file into a ``CsvTable``.

    ``schema`` maps a column name (or stringified index when the file has no
    header) to ``"numeric"``, ``"categorical"``, or
    ``{"kind": "categorical", "levels": [...]}``; declaring levels makes any
    other value an error. A categorical column keeps each row's level code
    (``take`` expands it into a one-hot block), levels in declared, else
    sorted, order; raw labels equal to one of ``positive_values`` map to +1,
    everything else to -1. Row order is preserved.
    """
    if isinstance(positive_values, str):
        positive_values = (positive_values,)
    positive = set(positive_values)
    rows = _read_rows(path)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    if header:
        columns = rows[0]
        rows = rows[1:]
    else:
        columns = [str(i) for i in range(len(rows[0]))]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    if len(set(columns)) < len(columns):
        dup = sorted({c for c in columns if columns.count(c) > 1})
        raise DataFormatError(f"{path}: duplicate column names {dup}")
    width = len(columns)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(f"{path}: row {i} has {len(row)} fields, expected {width}")

    if is_int(label_column) and not -width <= label_column < width:
        raise DataFormatError(f"{path}: label column index {label_column} is out of range")
    label_name = columns[label_column] if is_int(label_column) else str(label_column)
    if label_name not in columns:
        raise DataFormatError(f"{path}: no label column {label_name!r}")
    label_idx = columns.index(label_name)

    feature_cols = [c for c in columns if c != label_name]
    if not feature_cols:
        raise DataFormatError(f"{path}: no feature columns")
    for col in feature_cols:
        if col not in schema:
            raise DataFormatError(f"{path}: column {col!r} missing from schema")
    for col in schema:
        if col not in feature_cols:
            raise DataFormatError(f"schema mentions unknown column {col!r}")

    by_column = list(zip(*rows))
    y = np.asarray([1 if v in positive else -1 for v in by_column[label_idx]], dtype=np.int64)
    if len(set(y.tolist())) < 2:
        raise SingleClassDataError(f"{path}: all rows map to a single class")

    numeric, numeric_at, codes, block_at, kinds, names = [], [], [], [], [], []
    for col in feature_cols:
        values = by_column[columns.index(col)]
        kind, levels = _schema_entry(schema[col], col)
        if kind == NUMERIC:
            numeric.append(_numeric_column(values, col, path))
            numeric_at.append(len(kinds))
            kinds.append(NUMERIC)
            names.append(col)
        else:
            levels, column_codes = _level_codes(values, col, levels)
            codes.append(column_codes)
            block_at.append(len(kinds))
            kinds.extend([ONE_HOT] * len(levels))
            names.extend(f"{col}={lev}" for lev in levels)
    # Free the rows before building the table: a table built among them
    # keeps their memory resident for as long as the run holds it, and the
    # run's forked pool workers inherit that memory.
    del rows, by_column, values
    n = len(y)
    return CsvTable(np.array(numeric).reshape(-1, n), np.array(numeric_at, dtype=np.intp),
                    np.array(codes, dtype=np.min_scalar_type(len(kinds))).reshape(-1, n),
                    np.array(block_at, dtype=np.intp)[:, None], y, tuple(kinds), tuple(names))


def _read_rows(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if row]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _schema_entry(entry, col):
    """``(kind, levels or None)``: ``"numeric"``, ``"categorical"``, or an object with
    only kind ``"categorical"`` and optional levels, a non-empty array of distinct strings."""
    if entry in (NUMERIC, CATEGORICAL):
        return entry, None
    levels = entry.get("levels", ()) if isinstance(entry, Mapping) else None
    if (isinstance(entry, Mapping) and set(entry) <= {"kind", "levels"}
            and entry.get("kind") == CATEGORICAL and isinstance(levels, (list, tuple))
            and all(isinstance(v, str) for v in levels) and len(set(levels)) == len(levels)
            and (levels or "levels" not in entry)):
        return CATEGORICAL, list(levels) or None
    raise DataFormatError(f'column {col!r}: schema entry must be "numeric", "categorical" or '
                          f'{{"kind": "categorical", "levels": [distinct strings]}}, not {entry!r}')


def _numeric_column(values, col, path):
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            out[i] = float(v)
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {i}, column {col!r}: not numeric: {v!r}") from exc
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = bad[0]
        raise DataFormatError(f"{path}: row {i}, column {col!r}: not finite: {values[i]!r}")
    return out


def _level_codes(values, col, declared_levels):
    """(levels, each value's place in them): the declared levels, else the sorted values."""
    if declared_levels is None:
        levels = sorted(set(values))
    else:
        levels = declared_levels
        extra = set(values) - set(levels)
        if extra:
            raise UnknownCategoryError(f"column {col!r}: undeclared categories {sorted(extra)}")
    index = {lev: j for j, lev in enumerate(levels)}
    return levels, [index[v] for v in values]


# ---------------------------------------------------------------------------
# Splitting


def split(
    dataset: Dataset | CsvTable,
    test_prop: float,
    seed: int,
    scale_numeric: bool = False,
) -> SplitPair:
    """Random disjoint train/test partition of a ``Dataset`` or ``CsvTable``
    (the same rows for a seed); both sides are ``Dataset``s, train shuffled.

    With ``scale_numeric`` the numeric columns of both sides are min-max
    scaled to [0, 1] using statistics of the train side only (one-hot
    blocks pass through untouched).
    """
    n_test, _ = split_sizes(len(dataset), test_prop)
    if not is_int(seed):
        raise InvalidArgumentError(f"split seed must be an integer, not {seed!r}")
    if not isinstance(scale_numeric, bool):
        raise InvalidArgumentError(f"scale_numeric must be true or false, not {scale_numeric!r}")
    perm = np.random.default_rng(seed).permutation(len(dataset))
    test = dataset.take(perm[:n_test])
    train = dataset.take(perm[n_test:])
    if scale_numeric:
        train, test = _scale_pair(train, test)
    return SplitPair(train=train, test=test)


def split_sizes(n: int, test_prop: float) -> tuple[int, int]:
    """The (test, train) row counts of a ``split`` of ``n`` rows."""
    if not (is_number(test_prop) and 0.0 < test_prop < 1.0):
        raise InvalidArgumentError(f"test_prop must be a number in (0, 1), not {test_prop!r}")
    n_test = int(round(n * test_prop))
    if n_test == 0 or n_test == n:
        raise InvalidArgumentError("test_prop leaves train or test empty")
    return n_test, n - n_test


def _scale_pair(train: Dataset, test: Dataset):
    numeric = np.asarray([k == NUMERIC for k in train.feature_kinds])
    if not numeric.any():
        return train, test
    lo = train.x[:, numeric].min(axis=0)
    hi = train.x[:, numeric].max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    def apply(ds):
        x = np.array(ds.x)
        x[:, numeric] = (x[:, numeric] - lo) / span
        return replace(ds, x=x)

    return apply(train), apply(test)


# ---------------------------------------------------------------------------
# Dataset CSV export and declarative specs


def export_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset as f0..f{d-1},label rows with a header."""
    rows = [x + [y] for x, y in zip(dataset.x.tolist(), dataset.y.tolist())]
    write_text(path, csv_text([f"f{i}" for i in range(dataset.dim)] + ["label"], rows))


def csv_text(header: Sequence, rows) -> str:
    """``header``, then ``rows``, one CSV line each. ``csv`` writes a Python float as its
    repr (pass no numpy floats: their repr names the type). Traces keep their own
    f-string (``selection.trace_to_text``): a 1,000-row trace takes ~0.7 of csv's time."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, with its line ends untranslated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_text(path: str | os.PathLike, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``, CRLF read as LF; ``error`` naming the
    file if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc


GENERATOR_KINDS = ("uniform-line", "four-cluster-line", "circle")


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative recipe for a dataset, JSON-friendly for configs and traces.

    ``seed=None`` on a generated kind asks for a fresh pool per repetition:
    ``resolve_spec`` fills in the repetition's pool seed, and only a spec
    with a seed can be built. ``positive_values`` becomes a tuple.
    """

    kind: str
    n: int = 0
    circle_prob: float = 0.001
    seed: int | None = None
    path: str | None = None
    label_column: str | int = "label"
    positive_values: tuple[str, ...] = ()
    header: bool = True
    schema: Mapping[str, object] | None = None
    scale_numeric: bool = True

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS + ("csv",):
            raise InvalidArgumentError(f"unknown dataset kind {self.kind!r}")
        if not (self.path is None or isinstance(self.path, str)):
            raise InvalidArgumentError(f"path must be a string or null, not {self.path!r}")
        if self.kind == "csv" and not self.path:
            raise InvalidArgumentError("csv dataset spec needs a path")
        if not (is_int(self.n) and self.n <= MAX_LENGTH):
            raise InvalidArgumentError(
                f"dataset n must be an integer of at most {MAX_LENGTH}, not {self.n!r}")
        if self.kind != "csv" and self.n <= 0:
            raise InvalidArgumentError("generated dataset spec needs n > 0")
        if not (self.seed is None or is_int(self.seed)):
            raise InvalidArgumentError(f"dataset seed must be an integer or null, not {self.seed!r}")
        if not is_number(self.circle_prob):
            raise InvalidArgumentError(f"circle_prob must be a number, not {self.circle_prob!r}")
        if not (isinstance(self.label_column, str) or is_int(self.label_column)):
            raise InvalidArgumentError(
                f"label_column must be a string or an integer, not {self.label_column!r}")
        pv = self.positive_values
        if not (isinstance(pv, (list, tuple)) and all(isinstance(v, str) for v in pv)):
            raise InvalidArgumentError(f"positive_values must be an array of strings, not {pv!r}")
        object.__setattr__(self, "positive_values", tuple(pv))
        for key, value in (("header", self.header), ("scale_numeric", self.scale_numeric)):
            if not isinstance(value, bool):
                raise InvalidArgumentError(f"{key} must be true or false, not {value!r}")
        if not (self.schema is None or isinstance(self.schema, Mapping)):
            raise InvalidArgumentError(f"schema must be an object or null, not {self.schema!r}")
        try:
            for col, entry in (self.schema or {}).items():
                _schema_entry(entry, col)
        except DataFormatError as exc:
            raise InvalidArgumentError(str(exc)) from exc

    def to_dict(self) -> dict:
        if self.kind == "csv":
            return {
                "kind": self.kind,
                "path": self.path,
                "label_column": self.label_column,
                "positive_values": list(self.positive_values),
                "header": self.header,
                "schema": dict(self.schema or {}),
                "scale_numeric": self.scale_numeric,
            }
        out = {"kind": self.kind, "n": self.n, "seed": self.seed}
        if self.kind == "circle":
            out["circle_prob"] = self.circle_prob
        return out

    @staticmethod
    def from_dict(d: Mapping[str, object]) -> "DatasetSpec":
        unknown = set(d) - {f.name for f in fields(DatasetSpec)}
        if unknown:
            raise InvalidArgumentError(f"unknown dataset spec keys {sorted(unknown)}")
        if "kind" not in d:
            raise InvalidArgumentError("dataset spec lacks 'kind'")
        return DatasetSpec(**d)


def make_dataset(spec: DatasetSpec) -> Dataset:
    """Materialize a spec; a generated one needs a seed (see ``resolve_spec``)."""
    if spec.kind == "csv":
        return load_csv(
            spec.path,
            spec.label_column,
            spec.positive_values,
            spec.schema or {},
            header=spec.header,
        )
    if spec.seed is None:
        raise InvalidArgumentError("generated dataset spec needs a seed")
    if spec.kind == "uniform-line":
        return gen_uniform_line(spec.n, spec.seed)
    if spec.kind == "four-cluster-line":
        return gen_four_cluster_line(spec.n, spec.seed)
    return gen_circle(spec.n, spec.circle_prob, spec.seed)


def resolve_spec(spec: DatasetSpec, seed: int) -> DatasetSpec:
    """``spec`` with ``seed`` in place of a null generated seed; nothing else fills one."""
    if spec.kind == "csv" or spec.seed is not None:
        return spec
    return replace(spec, seed=seed)
