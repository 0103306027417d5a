"""Dataset ingestion, normalization, splitting, and a synthetic generator.

Continuous columns are min-max normalized to [0, 1] by their observed lo/hi;
binary columns are recoded to {0, 1} through the schema's recode map. The
schema also carries per-feature mutability and the direction of beneficial
change.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

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


@dataclass
class DatasetSchema:
    columns: list[ColumnSpec]

    def __post_init__(self):
        targets = [c for c in self.columns if c.role == "target"]
        if len(targets) != 1:
            raise ValueError(f"schema needs exactly one target column, found {len(targets)}")

    @property
    def target(self) -> ColumnSpec:
        return next(c for c in self.columns if c.role == "target")

    @property
    def feature_columns(self) -> list[ColumnSpec]:
        return [c for c in self.columns if c.role == "feature"]

    @staticmethod
    def from_json(path) -> "DatasetSchema":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        cols = [
            ColumnSpec(
                name=c["name"],
                role=c.get("role", "feature"),
                kind=c.get("kind", CONTINUOUS),
                mutable=c.get("mutable", True),
                beneficial=c.get("beneficial", "none"),
                recode=c.get("recode"),
                positive_labels=tuple(c.get("positive_labels", ())),
                drop_values=tuple(c.get("drop_values", ())),
                drop_labels=tuple(c.get("drop_labels", ())),
            )
            for c in doc["columns"]
        ]
        return DatasetSchema(cols)


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
    """Read a CSV per the schema: filter rows, recode, binarize the target, normalize."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in schema.columns:
            if col.name not in header:
                raise ValueError(f"schema column {col.name!r} missing from CSV header")
        rows = list(reader)
    target = schema.target
    feats = schema.feature_columns
    droppable = [c for c in feats if c.drop_values]
    rows = [
        row for row in rows
        if row[target.name] not in target.drop_labels
        and not any(row[c.name] in c.drop_values for c in droppable)
    ]
    if not rows:
        raise ValueError("CSV has no data rows")

    recodes = [col.recode if col.recode is not None else (
        {"0": 0.0, "1": 1.0} if col.kind == BINARY else None) for col in feats]
    raw = np.empty((len(rows), len(feats)))
    labels = np.empty(len(rows), dtype=int)
    errors = []
    for i, row in enumerate(rows):
        for j, (col, recode) in enumerate(zip(feats, recodes)):
            value = row[col.name]
            if value is None or value == "":
                errors.append(f"row {i}: missing value in {col.name}")
                continue
            if recode is not None:
                if value not in recode:
                    errors.append(f"row {i}: {col.name} value {value!r} has no recode")
                    continue
                raw[i, j] = recode[value]
            else:
                try:
                    raw[i, j] = number = float(value)
                except ValueError:
                    errors.append(f"row {i}: {col.name} value {value!r} is not numeric")
                    continue
                if not math.isfinite(number):
                    errors.append(f"row {i}: {col.name} value {value!r} is not finite")
        labels[i] = 1 if row[target.name] in target.positive_labels else 0
    if errors:
        raise ValueError("CSV rejected:\n" + "\n".join(errors))

    metas = []
    X = np.empty_like(raw)
    for j, col in enumerate(feats):
        if col.kind == BINARY:
            if not set(np.unique(raw[:, j])) <= {0.0, 1.0}:
                raise ValueError(f"binary column {col.name} recodes outside {{0, 1}}")
            X[:, j] = raw[:, j]
        else:
            lo, hi = float(raw[:, j].min()), float(raw[:, j].max())
            if hi == lo:
                hi = lo + 1.0  # constant column: it normalizes to 0
            X[:, j] = (raw[:, j] - lo) / (hi - lo)
        metas.append(
            FeatureMeta(
                index=j,
                name=col.name,
                kind=col.kind,
                mutable=col.mutable,
                beneficial=col.beneficial,
            )
        )
    return Dataset(X, labels, metas)


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
