"""Cohort simulation: how often do perturbed individuals reach the target class?"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import BINARY, Forest
from .probability import PerturbationSpec, _perturb_samples


@dataclass
class SimulationResult:
    percent: float                 # mean % of (individual, replication) pairs reclassified
    per_individual: list[float]    # per-individual reclassification %, cohort order


def _stream(seed: int, x0, *tag: int) -> np.random.Generator:
    """The RNG stream of one individual, keyed by its feature values, not its position."""
    words = np.array(x0, dtype=np.float64).view(np.uint32)
    return np.random.default_rng(np.random.SeedSequence([seed, *words, *tag]))


def _simulate(forest: Forest, cohort, target_class: int, n_reps: int, seed: int,
              draw, *tag: int) -> SimulationResult:
    """Per-individual % of n_reps replications predicted as the target class.

    ``draw(j, value, rng)`` returns the n_reps future values of feature j,
    drawn from the individual's stream, keyed by (seed, its feature values,
    *tag); each individual's columns form one block and all blocks are
    predicted in one batch.
    """
    if len(cohort) == 0:
        raise ValueError("empty cohort")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if target_class not in (0, 1):
        raise ValueError(f"target_class must be 0 or 1, got {target_class!r}")
    blocks = []
    for x0 in cohort:
        rng = _stream(seed, x0, *tag)
        blocks.append(np.column_stack([draw(j, float(x0[j]), rng)
                                       for j in range(forest.num_features)]))
    predicted = forest.predict_batch(np.concatenate(blocks))
    hits = (predicted == target_class).reshape(len(blocks), n_reps).sum(axis=1)
    per_individual = [100.0 * int(h) / n_reps for h in hits]
    return SimulationResult(float(np.mean(per_individual)), per_individual)


def simulate_cohort(forest: Forest, cohort, target_class: int, effort_features,
                    spec: PerturbationSpec, n_reps: int = 100, seed: int = 0) -> SimulationResult:
    """Perturb every feature that moves (effort on the given set), then re-predict.

    One RNG stream per individual, keyed by (seed, its feature values), draws
    all n_reps replications of each feature in turn. Returns the mean
    percentage of replications landing in the target class, averaged over
    individuals.
    """
    metas, rules = forest.feature_metas, spec.rules(forest)
    effort_set = set(effort_features)
    out_of_range = sorted(j for j in effort_set if not 0 <= j < forest.num_features)
    if out_of_range:
        raise ValueError(f"effort features {out_of_range} outside 0..{forest.num_features - 1}")
    no_effort = sorted(j for j in effort_set if not rules[j][1])
    if no_effort:
        raise ValueError(f"effort on features {no_effort}, which cannot take effort")

    def draw(j, value, rng):
        return _perturb_samples(value, metas[j], spec, int(j in effort_set), rng, n_reps)

    return _simulate(forest, cohort, target_class, n_reps, seed, draw)


def feasible_baseline(forest: Forest, cohort, target_class: int,
                      spec: PerturbationSpec, n_reps: int = 100, seed: int = 0) -> SimulationResult:
    """Upper-bound run: maximal favorable shift on every feature.

    Continuous features that take effort move deterministically by
     1.5 sigma (the full effort-draw support) in their beneficial direction;
    binary ones keep the stochastic effort flip; everything else gets its
    plain no-effort perturbation. Streams are keyed like simulate_cohort's,
    with a tag of their own.
    """
    metas, rules = forest.feature_metas, spec.rules(forest)

    def draw(j, value, rng):
        meta, takes_effort = metas[j], rules[j][1]
        if takes_effort and meta.kind != BINARY:
            delta = spec.scale_for(1) * spec.features[j].sigma
            shifted = value + (delta if meta.beneficial == "increase" else -delta)
            return np.full(n_reps, min(max(shifted, meta.lo), meta.hi))
        return _perturb_samples(value, meta, spec, int(takes_effort), rng, n_reps)

    return _simulate(forest, cohort, target_class, n_reps, seed, draw, 0xBA5E)
