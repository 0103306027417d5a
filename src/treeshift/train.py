"""Bagged CART training with Gini impurity and midpoint thresholds."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .forest import Forest, Leaf, Node, Tree
from .solver import _check_count


class TrainingError(ValueError):
    pass


@dataclass
class TrainConfig:
    num_trees: int = 9
    max_depth: int = 4
    min_samples_split: int = 2
    features_per_split: int | None = None   # default ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("num_trees", "max_depth", "min_samples_split", "seed"):
            _check_count(name, getattr(self, name))
        if not isinstance(self.bootstrap, bool):   # a string such as "no" would be truthy
            raise ValueError(f"bootstrap must be true or false, got {self.bootstrap!r}")
        if self.features_per_split is not None:
            _check_count("features_per_split", self.features_per_split)
            if self.features_per_split < 1:
                raise ValueError("features_per_split must be None or at least 1")
        if self.num_trees < 1 or self.max_depth < 1 or self.min_samples_split < 2 or self.seed < 0:
            raise ValueError("num_trees >= 1, max_depth >= 1, min_samples_split >= 2, seed >= 0 required")


def _gini(counts) -> float:
    total = counts[0] + counts[1]
    if total == 0:
        return 0.0
    p1 = counts[1] / total
    return 2.0 * p1 * (1.0 - p1)


def _majority(counts) -> int:
    # ties go to class 0
    return 1 if counts[1] > counts[0] else 0


def _best_split(X, y, rows, feature_pool, rng, k):
    """Best (weighted Gini, feature, midpoint threshold) over a random feature subset.

    The candidates of a feature are the midpoints of its distinct values at the
    node, and a row goes right when its value is >= the threshold. A split
    must send rows both ways. Ties go to the lowest weighted Gini, then the
    lowest feature index, then the lowest threshold: the smallest
    ``(score, feature, threshold)`` key wins. The feature-index step makes a
    forest depend on the column order when two features tie; it stays,
    because any other rule changes every trained forest.

    All chosen features are scored at once, with a fixed number of numpy calls
    per node (CART's sorted prefix counts): one stable sort of the node's
    ``(n, f)`` matrix by column, a candidate wherever sorted rows ``i`` and
    ``i + 1`` of a column differ, ``i + 1`` rows left of it, and their class-1
    rows from a prefix sum of the sorted labels. A midpoint that is not above
    the lower value and at most the upper one (it can round down to the lower
    of two adjacent doubles, or overflow) sends a different number of rows
    left; these rare candidates count their rows by binary search. Scores
    follow ``_gini``'s operation order, so each is the same IEEE double as the
    per-threshold formula, and the first minimum in feature-major order is the
    tie rule's smallest key.
    """
    chosen = np.sort(rng.choice(feature_pool, size=min(k, len(feature_pool)), replace=False))
    n = len(rows)
    if n < 2:
        return None
    f = np.arange(len(chosen))
    cols = X[rows[:, None], chosen]
    order = np.argsort(cols, axis=0, kind="stable")
    values = cols[order, f]
    lo, hi = values[:-1], values[1:]
    mids = (lo + hi) / 2.0
    candidate = lo != hi
    n_left = np.repeat(np.arange(1, n)[:, None], len(chosen), axis=1)
    for i, c in zip(*np.nonzero(candidate & ~((mids > lo) & (mids <= hi)))):
        count = np.searchsorted(values[:, c], mids[i, c], side="left")
        if 0 < count < n:
            n_left[i, c] = count
        else:   # every row on one side
            candidate[i, c] = False
    ones = np.cumsum(y[rows][order], axis=0)
    left_ones = ones[n_left - 1, f]
    n_right = n - n_left
    p_left = left_ones / n_left
    p_right = (ones[-1] - left_ones) / n_right
    scores = (n_left * (2.0 * p_left * (1.0 - p_left))
              + n_right * (2.0 * p_right * (1.0 - p_right))) / n
    best = np.argmin(np.where(candidate, scores, np.inf).T)
    c, i = divmod(int(best), n - 1)
    if not candidate[i, c]:
        return None
    return (float(scores[i, c]), chosen[c], mids[i, c])


def _grow(X, y, rows, depth, config, rng, ids, nodes, leaves):
    ones = int(y[rows].sum())   # train has checked that every label is 0 or 1
    counts = (len(rows) - ones, ones)
    pure = counts[0] == 0 or counts[1] == 0
    if depth >= config.max_depth or len(rows) < config.min_samples_split or pure:
        return _emit_leaf(counts, ids, leaves)
    d = X.shape[1]
    k = config.features_per_split or math.ceil(math.sqrt(d))
    best = _best_split(X, y, rows, np.arange(d), rng, k)
    if best is None:
        return _emit_leaf(counts, ids, leaves)
    _, feature, threshold = best
    go_right = X[rows, feature] >= threshold
    node_id = ids[0]
    ids[0] += 1
    left = _grow(X, y, rows[~go_right], depth + 1, config, rng, ids, nodes, leaves)
    right = _grow(X, y, rows[go_right], depth + 1, config, rng, ids, nodes, leaves)
    nodes.append(Node(node_id, int(feature), float(threshold), left, right))
    return node_id


def _emit_leaf(counts, ids, leaves) -> int:
    leaf_id = ids[0]
    ids[0] += 1
    leaves.append(Leaf(leaf_id, _majority(counts)))
    return leaf_id


def train(dataset: Dataset, config: TrainConfig) -> Forest:
    """Grow a bagged forest; deterministic for a fixed seed (per-tree RNG streams)."""
    if dataset.num_rows == 0:
        raise TrainingError("empty dataset")
    bad = (dataset.y != 0) & (dataset.y != 1)
    if bad.any():   # the split search sums labels, and a leaf counts only 0s and 1s
        row = int(np.argmax(bad))
        raise TrainingError(f"labels must be 0 or 1; row {row} has {dataset.y[row].item()!r}")
    if len(np.unique(dataset.y)) < 2:
        raise TrainingError("training needs both classes present")
    trees = []
    for t in range(config.num_trees):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, t]))
        if config.bootstrap:
            rows = np.sort(rng.integers(0, dataset.num_rows, size=dataset.num_rows))
        else:
            rows = np.arange(dataset.num_rows)
        ids = [0]
        nodes: list[Node] = []
        leaves: list[Leaf] = []
        root = _grow(dataset.X, dataset.y, rows, 0, config, rng, ids, nodes, leaves)
        trees.append(Tree(root, nodes, leaves, weight=1.0))
    return Forest(trees, dataset.feature_metas)


def accuracy(forest: Forest, dataset: Dataset) -> float:
    hits = int(np.sum(forest.predict_batch(dataset.X) == dataset.y))
    return hits / dataset.num_rows


def impurity_importances(forest: Forest, dataset: Dataset) -> np.ndarray:
    """Mean decrease in impurity per feature, averaged over trees, normalized to sum 1.

    Recomputed by routing the given dataset through each tree (the training
    bags are not retained), weighting each node's Gini decrease by the
    fraction of rows that reach it.
    """
    totals = np.zeros(forest.num_features)
    n = dataset.num_rows
    for tree in forest.trees:
        per_tree = np.zeros(forest.num_features)
        stack = [(tree.root, np.arange(n))]
        while stack:
            ident, rows = stack.pop()
            if ident in tree.leaves or len(rows) == 0:
                continue
            node = tree.nodes[ident]
            right = dataset.X[rows, node.feature] >= node.threshold
            rows_r, rows_l = rows[right], rows[~right]
            y_here = dataset.y[rows]
            ones = int(y_here.sum())
            ones_r = int(dataset.y[rows_r].sum())
            parent = _gini((len(rows) - ones, ones))
            g_l = _gini((len(rows_l) - (ones - ones_r), ones - ones_r))
            g_r = _gini((len(rows_r) - ones_r, ones_r))
            decrease = parent - (len(rows_l) * g_l + len(rows_r) * g_r) / len(rows)
            per_tree[node.feature] += (len(rows) / n) * decrease
            stack.append((node.left, rows_l))
            stack.append((node.right, rows_r))
        totals += per_tree
    totals /= forest.num_trees
    s = totals.sum()
    return totals / s if s > 0 else totals
