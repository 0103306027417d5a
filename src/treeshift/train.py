"""Bagged CART training with Gini impurity and midpoint thresholds."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .forest import Forest, Leaf, Node, Tree


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
        if self.num_trees < 1 or self.max_depth < 1 or self.min_samples_split < 2:
            raise ValueError("num_trees >= 1, max_depth >= 1, min_samples_split >= 2 required")


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

    Each feature costs a constant number of numpy calls (CART's sorted prefix
    counts): one stable sort of the column, the rows left of every midpoint by
    binary search, and their class-1 rows from a prefix sum of the sorted
    labels. The binary search also covers a midpoint of adjacent doubles that
    rounds down to the lower value and so sends no row of it left. Scores
    follow ``_gini``'s operation order, so each is the same IEEE double as the
    per-threshold formula.
    """
    chosen = rng.choice(feature_pool, size=min(k, len(feature_pool)), replace=False)
    n = len(rows)
    y_here = y[rows]
    best = None
    for j in sorted(chosen):
        col = X[rows, j]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        values = np.unique(sorted_col)
        if len(values) < 2:
            continue
        mids = (values[:-1] + values[1:]) / 2.0
        n_left = np.searchsorted(sorted_col, mids, side="left")
        n_right = n - n_left
        both = (n_left > 0) & (n_right > 0)
        if not both.any():
            continue
        mids, n_left, n_right = mids[both], n_left[both], n_right[both]
        ones_before = np.concatenate(([0], np.cumsum(y_here[order])))
        left_ones = ones_before[n_left]
        p_left = left_ones / n_left
        p_right = (ones_before[-1] - left_ones) / n_right
        scores = (n_left * (2.0 * p_left * (1.0 - p_left))
                  + n_right * (2.0 * p_right * (1.0 - p_right))) / n
        i = int(np.argmin(scores))
        if best is None or scores[i] < best[0]:
            best = (float(scores[i]), j, mids[i])
    return best


def _grow(X, y, rows, depth, config, rng, ids, nodes, leaves):
    counts = (int((y[rows] == 0).sum()), int((y[rows] == 1).sum()))
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
