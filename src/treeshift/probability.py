"""Stochastic change model and Monte-Carlo branch-probability estimation.

For each individual, the table stores the probability of taking the right
branch at every node, for every effort level 0..E. Estimation draws one
common sample vector per (feature, effort level) and reuses it across all
nodes splitting on that feature, which makes estimates monotone in the
threshold and cuts variance.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field, make_dataclass

import numpy as np

from .data import Dataset
from .documents import read_json, typed_fields, write_json
from .forest import BINARY, CONTINUOUS, FeatureMeta, Forest

EFFORT_SCALE = 1.5   # effort draws are U[0, (1 + (EFFORT_SCALE - 1) * e) * sigma]
EFFORT_FLOOR = 0.2   # binary flip probability floor under effort, scaled by e


class TableFormatError(ValueError):
    """A probability-table document failed validation."""


@dataclass
class FeaturePerturbation:
    """Per-feature parameters of the change model; see :func:`change_rule`."""

    sigma: float | None = None        # continuous: no-effort draws are U[0, sigma]
    p_majority: float | None = None   # binary: majority-class frequency, in [0.5, 1]

    def __post_init__(self):
        if self.sigma is not None and not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.p_majority is not None and not 0.5 <= self.p_majority <= 1.0:
            raise ValueError(f"p_majority must be in [0.5, 1], got {self.p_majority}")


def change_rule(meta: FeatureMeta, fp: FeaturePerturbation) -> tuple[bool, bool]:
    """(moves, takes effort) of one feature: the change model's one per-feature rule.

    A feature moves iff the spec gives its kind's parameter (``sigma`` if
    continuous, ``p_majority`` if binary); it takes effort iff it moves and
    its FeatureMeta is mutable.
    """
    moves = (fp.sigma if meta.kind == CONTINUOUS else fp.p_majority) is not None
    return moves, moves and meta.mutable


@dataclass
class PerturbationSpec:
    features: list[FeaturePerturbation]
    num_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")

    def rules(self, forest: Forest) -> list[tuple[bool, bool]]:
        """:func:`change_rule` of every forest feature, in feature order."""
        if len(self.features) != forest.num_features:
            raise ValueError("the spec needs one FeaturePerturbation per forest feature")
        return [change_rule(m, fp) for m, fp in zip(forest.feature_metas, self.features)]

    def scale_for(self, effort: int) -> float:
        return 1.0 + (EFFORT_SCALE - 1.0) * effort

    @staticmethod
    def from_dataset(train_split: Dataset, num_samples: int = 1000,
                     seed: int = 0) -> "PerturbationSpec":
        """Build the change model from training-split statistics (no spread: no sigma)."""
        sigmas = train_split.feature_sigmas()
        feats = [
            FeaturePerturbation(p_majority=train_split.binary_majority_freq(j))
            if meta.kind == BINARY else
            FeaturePerturbation(sigma=float(sigmas[j]) if sigmas[j] > 0 else None)
            for j, meta in enumerate(train_split.feature_metas)
        ]
        return PerturbationSpec(feats, num_samples=num_samples, seed=seed)


def _perturb_samples(value, meta, spec, effort, rng, n):
    """Draw n perturbed future values for a single feature (the change model)."""
    fp = spec.features[meta.index]
    moves, takes_effort = change_rule(meta, fp)
    if effort < 0 or effort > 0 and not takes_effort:
        raise ValueError(f"feature {meta.name} cannot take effort {effort}")
    if not moves:
        return np.full(n, value)
    if meta.kind == CONTINUOUS:
        if effort == 0:
            signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
            deltas = rng.uniform(0.0, fp.sigma, size=n)
        else:
            signs = 1.0 if meta.beneficial == "increase" else -1.0
            deltas = rng.uniform(0.0, spec.scale_for(effort) * fp.sigma, size=n)
        return np.clip(value + signs * deltas, meta.lo, meta.hi)
    if effort == 0:
        flips = rng.random(n) < 1.0 - fp.p_majority
        return np.where(flips, 1.0 - value, value)
    beneficial = meta.beneficial_value
    if value == beneficial:
        return np.full(n, value)
    flips = rng.random(n) < max(1.0 - fp.p_majority, min(1.0, EFFORT_FLOOR * effort))
    return np.where(flips, beneficial, value)


@dataclass
class NodeProbabilityTable:
    """Right-branch probability per (tree, node) at every effort level 0..E.

    A table is immutable once built, so it remembers the forests it has passed
    ``validate_against`` for.
    """

    individual: int
    E: int
    probs: dict[tuple[int, int], tuple[float, ...]] = field(default_factory=dict)
    _valid_for: weakref.WeakSet = field(default_factory=weakref.WeakSet, init=False,
                                        repr=False, compare=False)
    Entry = make_dataclass("Entry", [("tree", int), ("node", int), ("right", tuple[float, ...])])

    def __post_init__(self):
        if self.E < 0:
            raise TableFormatError(f"E must be nonnegative, got {self.E}")
        for (t, node_id), row in self.probs.items():
            if len(row) != self.E + 1:
                raise TableFormatError(f"tree {t} node {node_id}: expected {self.E + 1} effort levels")
            if any(not 0.0 <= p <= 1.0 for p in row):
                raise TableFormatError(f"tree {t} node {node_id}: probability outside [0, 1]")

    def __getstate__(self):   # pickling (worker processes) drops the per-process cache
        return {key: value for key, value in self.__dict__.items() if key != "_valid_for"}

    def __setstate__(self, state):
        self.__dict__.update(state, _valid_for=weakref.WeakSet())

    def right_prob(self, tree_index: int, node_id: int, effort: int) -> float:
        return self.probs[(tree_index, node_id)][effort]

    def validate_against(self, forest: Forest) -> None:
        """Raise TableFormatError unless the table covers exactly the forest's nodes and
        effort leaves immutable features' probabilities unchanged; checked once per forest."""
        if forest in self._valid_for:
            return
        expected = {
            (t, node_id)
            for t, tree in enumerate(forest.trees)
            for node_id in tree.nodes
        }
        got = set(self.probs)
        if missing := expected - got:
            raise TableFormatError(f"table missing entries for nodes {sorted(missing)[:5]}")
        if extra := got - expected:
            raise TableFormatError(f"table has entries for unknown nodes {sorted(extra)[:5]}")
        for (t, node_id), row in self.probs.items():
            feature = forest.trees[t].nodes[node_id].feature
            if not forest.feature_metas[feature].mutable and any(p != row[0] for p in row):
                raise TableFormatError(
                    f"tree {t} node {node_id}: effort changes an immutable feature's probabilities"
                )
        self._valid_for.add(forest)

    def to_dict(self) -> dict:
        return {
            "individual": self.individual,
            "E": self.E,
            "entries": [
                {"tree": t, "node": node_id, "right": list(row)}
                for (t, node_id), row in sorted(self.probs.items())
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict, forest: Forest | None = None) -> "NodeProbabilityTable":
        """The table of a :meth:`to_dict` document; a bad field raises KeyError or TypeError."""
        (individual,), (E,) = typed_fields(cls, [doc], "", ("individual", "E")).values()
        tree, node, right = typed_fields(cls.Entry, doc["entries"], "tree {tree!r} node {node!r}: ").values()
        table = cls(individual, E, dict(zip(zip(tree, node), right)))
        if len(table.probs) != len(doc["entries"]):
            raise TableFormatError("duplicate (tree, node) entry")
        if forest is not None:
            table.validate_against(forest)
        return table


def estimate_node_probabilities(forest: Forest, x0, spec: PerturbationSpec,
                                E: int, individual: int = 0) -> NodeProbabilityTable:
    """Monte-Carlo right-branch probabilities for one individual.

    One stream per (seed, individual, feature, effort level); the same n_s
    draws are shared by every node of that feature, and each node's estimate
    is the share of them at or above its threshold. Features whose effort
    perturbation is not allowed reuse their no-effort row, so effort never
    changes an immutable feature's probabilities.
    """
    if len(x0) != forest.num_features:
        raise ValueError("x0 has the wrong dimension")
    rules = spec.rules(forest)
    nodes_of: dict[int, list[tuple[int, int, float]]] = {}
    for t, tree in enumerate(forest.trees):
        for node in tree.nodes.values():
            nodes_of.setdefault(node.feature, []).append((t, node.id, node.threshold))
    n = spec.num_samples
    probs: dict[tuple[int, int], tuple[float, ...]] = {}
    for j, nodes in nodes_of.items():
        meta = forest.feature_metas[j]
        thresholds = np.array([threshold for _, _, threshold in nodes])
        shares = []
        for e in range(E + 1):
            if e > 0 and not rules[j][1]:
                shares.append(shares[0])
                continue
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, individual, j, e]))
            draws = np.sort(_perturb_samples(float(x0[j]), meta, spec, e, rng, n))
            shares.append((n - np.searchsorted(draws, thresholds)) / n)
        for k, (t, node_id, _) in enumerate(nodes):
            probs[(t, node_id)] = tuple(float(share[k]) for share in shares)
    return NodeProbabilityTable(individual=individual, E=E, probs=probs)


def save_table(table: NodeProbabilityTable, path) -> None:
    write_json(path, table.to_dict())


def load_table(path, forest: Forest | None = None) -> NodeProbabilityTable:
    return read_json(path, lambda doc: NodeProbabilityTable.from_dict(doc, forest),
                     TableFormatError)
