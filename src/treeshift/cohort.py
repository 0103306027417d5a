"""Cohort simulation: how often do perturbed individuals reach the target class?"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .forest import BINARY, Forest
from .probability import PerturbationSpec, _perturb_samples


@dataclass
class SimulationResult:
    percent: float                 # mean % of (individual, replication) pairs reclassified
    per_individual: list[float]    # per-individual reclassification %, cohort order
    n_reps: int
    seed: int


@dataclass
class SimReport:
    """Raw and baseline-normalized reclassification percentages per (method, eta)."""

    raw: dict[tuple[str, int], float]
    baseline: float
    etas: list[int]
    methods: list[str]
    normalized: dict[tuple[str, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.baseline > 0:
            self.normalized = {
                key: value / self.baseline * 100.0 for key, value in self.raw.items()
            }
        else:
            warnings.warn("baseline is 0%; normalized table omitted")
            self.normalized = {}

    def _rows(self, table):
        etas = sorted(self.etas, reverse=True)  # paper orientation: eta = 4..1
        rows = []
        for method in self.methods:
            cells = [table.get((method, eta)) for eta in etas]
            best = [
                eta for eta in etas
                if table.get((method, eta)) is not None
                and table[(method, eta)] == max(
                    table.get((m, eta), float("-inf")) for m in self.methods
                )
            ]
            rows.append((method, etas, cells, best))
        return rows

    def _write(self, path, table):
        etas = sorted(self.etas, reverse=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method"] + [f"eta={e}" for e in etas] + ["best_for_eta"])
            for method, _, cells, best in self._rows(table):
                writer.writerow(
                    [method]
                    + [("" if c is None else f"{c:.2f}") for c in cells]
                    + [";".join(str(e) for e in best)]
                )

    def write_raw_csv(self, path) -> None:
        self._write(path, self.raw)

    def write_normalized_csv(self, path) -> None:
        if not self.normalized:
            raise ValueError("baseline is 0%; no normalized table")
        self._write(path, self.normalized)


def build_report(raw: dict[tuple[str, int], float], baseline: float) -> SimReport:
    methods = sorted({m for m, _ in raw})
    etas = sorted({e for _, e in raw})
    return SimReport(raw=dict(raw), baseline=baseline, etas=etas, methods=methods)


def _check_cohort(cohort, n_reps: int) -> None:
    if len(cohort) == 0:
        raise ValueError("empty cohort")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")


def _stream(seed: int, x0, *tag: int) -> np.random.Generator:
    """The RNG stream of one individual, keyed by its feature values, not its position."""
    words = np.array(x0, dtype=np.float64).view(np.uint32)
    return np.random.default_rng(np.random.SeedSequence([seed, *words, *tag]))


def _hit_percentages(forest: Forest, blocks, target_class: int, n_reps: int) -> list[float]:
    """Per-individual % of the (n_reps, d) replication blocks predicted as the target."""
    predicted = forest.predict_batch(np.concatenate(blocks))
    hits = (predicted == target_class).reshape(len(blocks), n_reps).sum(axis=1)
    return [100.0 * int(h) / n_reps for h in hits]


def simulate_cohort(forest: Forest, cohort, target_class: int, effort_features,
                    spec: PerturbationSpec, n_reps: int = 100, seed: int = 0) -> SimulationResult:
    """Perturb every perturbable feature (effort on the given set), then re-predict.

    One RNG stream per individual, keyed by (seed, its feature values), draws
    all n_reps replications of each feature in turn. Returns the mean
    percentage of replications landing in the target class, averaged over
    individuals.
    """
    _check_cohort(cohort, n_reps)
    effort_set = set(effort_features)
    out_of_range = sorted(j for j in effort_set if not 0 <= j < forest.num_features)
    if out_of_range:
        raise ValueError(f"effort features {out_of_range} outside 0..{forest.num_features - 1}")
    immutable_with_effort = [
        j for j in effort_set if not spec.features[j].effort_perturbable
    ]
    if immutable_with_effort:
        raise ValueError(f"effort on non-effort-perturbable features {immutable_with_effort}")
    metas = forest.feature_metas
    efforts = [1 if j in effort_set else 0 for j in range(forest.num_features)]
    blocks = []
    for x0 in cohort:
        rng = _stream(seed, x0)
        blocks.append(np.column_stack([
            _perturb_samples(float(x0[j]), metas[j], spec, efforts[j], rng, n_reps)
            for j in range(forest.num_features)
        ]))
    per_individual = _hit_percentages(forest, blocks, target_class, n_reps)
    return SimulationResult(float(np.mean(per_individual)), per_individual, n_reps, seed)


def feasible_baseline(forest: Forest, cohort, target_class: int,
                      spec: PerturbationSpec, n_reps: int = 100, seed: int = 0) -> SimulationResult:
    """Upper-bound run: maximal favorable shift on every feature.

    Continuous effort-perturbable features move deterministically by
     1.5 sigma (the full effort-draw support) in their beneficial direction;
    binary ones keep the stochastic effort flip; everything else gets its
    plain no-effort perturbation. Streams are keyed like simulate_cohort's,
    with a tag of their own.
    """
    _check_cohort(cohort, n_reps)
    metas = forest.feature_metas
    blocks = []
    for x0 in cohort:
        rng = _stream(seed, x0, 0xBA5E)
        columns = []
        for j in range(forest.num_features):
            meta, fp = metas[j], spec.features[j]
            value = float(x0[j])
            if fp.effort_perturbable and meta.kind != BINARY:
                delta = spec.scale_for(1) * fp.sigma
                shifted = value + (delta if meta.beneficial == "increase" else -delta)
                columns.append(np.full(n_reps, min(max(shifted, meta.lo), meta.hi)))
            else:
                effort = 1 if fp.effort_perturbable else 0
                columns.append(_perturb_samples(value, meta, spec, effort, rng, n_reps))
        blocks.append(np.column_stack(columns))
    per_individual = _hit_percentages(forest, blocks, target_class, n_reps)
    return SimulationResult(float(np.mean(per_individual)), per_individual, n_reps, seed)


def report_detail_json(path, results: dict[tuple[str, int], SimulationResult],
                       baseline: SimulationResult) -> None:
    doc = {
        "baseline": {"percent": baseline.percent, "per_individual": baseline.per_individual},
        "cells": [
            {
                "method": method,
                "eta": eta,
                "percent": r.percent,
                "per_individual": r.per_individual,
                "n_reps": r.n_reps,
                "seed": r.seed,
            }
            for (method, eta), r in sorted(results.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
