"""Dataset ingestion, normalization, splitting, and a synthetic generator.

Continuous columns are min-max normalized to [0, 1] by their observed lo/hi;
binary columns are recoded to {0, 1} through the schema's recode map. The
schema also carries per-feature mutability and the direction of beneficial
change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .documents import read_csv, read_json, typed_fields
from .forest import BINARY, CONTINUOUS, FeatureMeta


@dataclass
class ColumnSpec:
    name: str
    role: str = "feature"           # feature | target | drop
    kind: str = CONTINUOUS
    mutable: bool = True
    beneficial: str = "none"
    recode: dict[str, float] | None = None       # raw value -> number (ordinal or binary)
    positive_labels: tuple[str, ...] = ()        # target column: raw values mapped to 1
    drop_values: tuple[str, ...] = ()            # rows with these raw values are removed
    drop_labels: tuple[str, ...] = ()            # target column: rows with these labels removed

    def __post_init__(self):
        for field, (value,) in typed_fields(ColumnSpec, [vars(self)], "column {name}: ").items():
            setattr(self, field, value)
        if self.role not in ("feature", "target", "drop"):   # the column would be dropped
            raise ValueError(f"column {self.name}: unknown role {self.role!r}")


@dataclass
class DatasetSchema:
    """The columns of a data CSV; every rule on them is checked when the schema is built."""

    columns: list[ColumnSpec]

    def __post_init__(self):
        targets = [c for c in self.columns if c.role == "target"]
        if len(targets) != 1:
            raise ValueError(f"schema needs exactly one target column, found {len(targets)}")
        names = [c.name for c in self.columns]
        recodes = {}
        for c in self.columns:
            if names.count(c.name) > 1:   # the label would be read as a feature too
                raise ValueError(f"schema names column {c.name!r} twice")
            recodes[c.name] = _float_recode(c)
        if not targets[0].positive_labels:   # every label would read as class 0
            raise ValueError(f"target column {targets[0].name!r} names no positive_labels")
        # built here, so that the schema, not a data file, is named for a bad feature
        self.feature_metas = [FeatureMeta(j, c.name, c.kind, c.mutable, c.beneficial)
                              for j, c in enumerate(self.feature_columns)]
        # per feature column, the map its cells are read through, or None: read by float
        self.recodes = [recodes[c.name] for c in self.feature_columns]

    @property
    def target(self) -> ColumnSpec:
        return next(c for c in self.columns if c.role == "target")

    @property
    def feature_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.role == "feature"]

    @staticmethod
    def from_json(path) -> "DatasetSchema":
        return read_json(path, lambda doc: DatasetSchema(
            [ColumnSpec(**column) for column in doc["columns"]]))


def _float_recode(c: ColumnSpec) -> dict[str, float] | None:
    """Column c's recode map in floats, {"0": 0, "1": 1} for a binary column without one,
    or None; its "" key is dropped, as an empty cell is missing even where the map names it."""
    recode = {"0": 0, "1": 1} if c.recode is None and c.kind == BINARY else c.recode
    if recode is None:
        return None
    numbers = {key: float(value) for key, value in recode.items() if key != ""}
    for key, value in recode.items():
        if not math.isfinite(value):   # a NaN would spoil the column's normalization
            raise ValueError(f"column {c.name}: recode value {value!r} for {key!r} "
                             "is not a finite number")
    if c.kind == BINARY and not set(numbers.values()) <= {0.0, 1.0}:
        raise ValueError(f"binary column {c.name} recodes outside {{0, 1}}")
    return numbers


@dataclass
class Dataset:
    """Normalized feature matrix plus labels and feature descriptions."""

    X: np.ndarray
    y: np.ndarray
    feature_metas: list[FeatureMeta]

    def __post_init__(self):
        if self.X.ndim != 2 or len(self.y) != len(self.X):
            raise ValueError("X must be (n, d) with one label per row")

    @property
    def num_rows(self) -> int:
        return len(self.X)

    @property
    def num_features(self) -> int:
        return self.X.shape[1]

    def feature_sigmas(self) -> np.ndarray:
        """Per-feature standard deviation on this split (normalized scale)."""
        return self.X.std(axis=0)

    def binary_majority_freq(self, feature: int) -> float:
        col = self.X[:, feature]
        frac_one = float(col.mean())
        return max(frac_one, 1.0 - frac_one)

    def subset(self, indices) -> "Dataset":
        return Dataset(self.X[indices], self.y[indices], self.feature_metas)


def load_csv(path, schema: DatasetSchema) -> Dataset:
    """Read a CSV per the schema: filter rows, recode, binarize the target, normalize.

    ``documents.read_csv`` reads the schema's columns; rows are then dropped by
    their raw strings. Each feature column is converted in one pass, by
    Python's ``float`` or its recode map; only a column that fails is
    rescanned cell by cell, to list its bad cells. The ``CSV rejected:`` error
    lists every bad cell and every missing label, row by row.
    """
    return read_csv(path, [c.name for c in schema.columns],
                    lambda columns: _dataset(columns, schema))


def _dataset(columns, schema: DatasetSchema) -> Dataset:
    target = schema.target
    feats = schema.feature_columns
    droppable = [(columns[c.name], c.drop_values) for c in feats if c.drop_values]
    if target.drop_labels or droppable:
        keep = [label not in target.drop_labels
                and not any(cells[i] in values for cells, values in droppable)
                for i, label in enumerate(columns[target.name])]
        columns = {name: tuple(compress(cells, keep)) for name, cells in columns.items()}
    n = len(columns[target.name])
    if not n:
        raise ValueError("CSV has no data rows")

    X = np.empty((n, len(feats)))
    errors = []
    for j, col in enumerate(feats):
        cells = columns[col.name]
        recode = schema.recodes[j]
        convert = float if recode is None else recode.__getitem__
        try:
            X[:, j] = values = np.fromiter(map(convert, cells), float, count=n)
            valid = recode is not None or bool(np.isfinite(values).all())
        except (ValueError, TypeError, KeyError):
            valid = False
        if not valid:
            errors.extend((i, j, message) for i, message in cell_errors(cells, col.name, recode))
    labels = columns[target.name]
    errors.extend((i, len(feats), f"row {i}: missing value in {target.name}")
                  for i, label in enumerate(labels) if label is None or label == "")
    if errors:
        raise ValueError("CSV rejected:\n" + "\n".join(message for *_, message in sorted(errors)))
    positive = frozenset(target.positive_labels)
    labels = np.fromiter(map(positive.__contains__, labels), int, count=n)

    for j, col in enumerate(feats):   # binary columns are already in {0, 1}
        if col.kind != BINARY:
            lo, hi = float(X[:, j].min()), float(X[:, j].max())
            if hi == lo:
                hi = lo + 1.0  # constant column: it normalizes to 0
            X[:, j] = (X[:, j] - lo) / (hi - lo)
    return Dataset(X, labels, list(schema.feature_metas))


def cell_errors(cells, name, recode=None):
    """(row, message) for each bad cell of column ``name``: missing, unrecoded, or,
    without a recode map, not a finite number."""
    for i, value in enumerate(cells):
        if value is None or value == "":
            yield i, f"row {i}: missing value in {name}"
        elif recode is not None:
            if value not in recode:
                yield i, f"row {i}: {name} value {value!r} has no recode"
        else:
            try:
                number = float(value)
            except ValueError:
                yield i, f"row {i}: {name} value {value!r} is not numeric"
            else:
                if not math.isfinite(number):
                    yield i, f"row {i}: {name} value {value!r} is not finite"


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split; the two parts are disjoint and exhaustive."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B117]))
    order = rng.permutation(dataset.num_rows)
    n_train = int(round(dataset.num_rows * train_fraction))
    return dataset.subset(np.sort(order[:n_train])), dataset.subset(np.sort(order[n_train:]))


def synth_generate(n: int, d: int, seed: int, label_noise: float = 0.05) -> Dataset:
    """Desk-scale synthetic dataset with a planted monotone label rule.

    Features 0 and 1 are immutable (one continuous, one binary). The label is
    1 (the undesirable class) when a weighted sum of direction-aligned
    feature values crosses the sample median, plus seeded label noise, so
    moving mutable features in their beneficial direction stochastically
    lowers the label.
    """
    if n < 20 or d < 3:
        raise ValueError("need n >= 20 and d >= 3")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5711]))
    metas = []
    for j in range(d):
        binary = j % 3 == 1
        if j == 0:
            metas.append(FeatureMeta(j, "age", CONTINUOUS, mutable=False, beneficial="none"))
        elif j == 1:
            metas.append(FeatureMeta(j, "group", BINARY, mutable=False, beneficial="none"))
        elif binary:
            metas.append(FeatureMeta(j, f"flag{j}", BINARY, mutable=True, beneficial="to_one"))
        else:
            direction = "decrease" if j % 2 == 0 else "increase"
            metas.append(FeatureMeta(j, f"habit{j}", CONTINUOUS, mutable=True, beneficial=direction))

    X = np.empty((n, d))
    for j, meta in enumerate(metas):
        X[:, j] = (rng.random(n) < 0.5).astype(float) if meta.kind == BINARY else rng.random(n)

    # beneficial movement must lower the score, so label-1 mass shrinks with
    # effort; sharply decaying weights keep the rule axis-learnable at depth 4
    score = np.zeros(n)
    rank = 0
    for j, meta in enumerate(metas):
        if meta.mutable:
            weight = 0.2 ** rank
            rank += 1
        else:
            weight = 0.1
        if meta.beneficial in ("decrease", "none"):
            score += weight * X[:, j]
        else:  # increase / to_one
            score -= weight * X[:, j]
    y = (score > np.median(score)).astype(int)
    flip = rng.random(n) < label_noise
    y = np.where(flip, 1 - y, y)
    return Dataset(X, y, metas)
