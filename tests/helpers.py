"""Shared test utilities: seeded random instances sized for exhaustive oracles."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from treeshift import (FeatureMeta, Forest, Leaf, Node, NodeProbabilityTable,
                       ProblemInstance, Tree)

TABLE_E = 2  # tables always cover effort levels 0..2 so E-monotonicity can be probed


@dataclass
class RandomInstance:
    seed: int
    forest: Forest
    table: NodeProbabilityTable
    instance: ProblemInstance
    kappa: int          # may exceed positive-leaf counts (exercises the 1.0 caps)
    kappa_ord: int      # capped at every tree's positive-leaf count
    mu: float


def _grow_random_tree(rng, d, max_depth):
    """Path-consistent random tree: every leaf region is nonempty.

    Thresholds live on a 0.01 grid (integer ticks 5..95), always strictly
    inside the window implied by the ancestors, like a trained tree's.
    """
    ids = [0]
    nodes, leaves = [], []

    def build(depth, windows):
        splittable = [j for j in range(d) if windows[j][0] < windows[j][1]]
        make_leaf = depth >= max_depth or not splittable or (depth > 0 and rng.random() < 0.3)
        ident = ids[0]
        ids[0] += 1
        if make_leaf:
            leaves.append(Leaf(ident, int(rng.integers(0, 2))))
            return ident
        feature = int(rng.choice(splittable))
        lo_tick, hi_tick = windows[feature]
        tick = int(rng.integers(lo_tick + 1, hi_tick + 1))  # in (lo, hi]
        threshold = round(tick / 100.0, 2)
        left_windows = dict(windows)
        left_windows[feature] = (lo_tick, tick - 1)
        right_windows = dict(windows)
        right_windows[feature] = (tick, hi_tick)
        left = build(depth + 1, left_windows)
        right = build(depth + 1, right_windows)
        nodes.append(Node(ident, feature, threshold, left, right))
        return ident

    root = build(0, {j: (4, 95) for j in range(d)})
    return Tree(root, nodes, leaves)


def make_random_instance(seed: int) -> RandomInstance:
    """Instance within the oracle-checkable envelope: R<=5, depth<=3, d<=5."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1257]))
    d = int(rng.integers(2, 6))
    R = int(rng.integers(1, 6))
    depth = int(rng.integers(1, 4))
    metas = []
    for j in range(d):
        mutable = bool(rng.random() < 0.8)
        metas.append(FeatureMeta(
            j, f"f{j}", mutable=mutable,
            beneficial="increase" if mutable else "none",
        ))
    forest = Forest([_grow_random_tree(rng, d, depth) for _ in range(R)], metas)

    probs = {}
    for t, tree in enumerate(forest.trees):
        for node_id, node in tree.nodes.items():
            if forest.feature_metas[node.feature].mutable:
                row = tuple(_random_prob(rng) for _ in range(TABLE_E + 1))
            else:
                p = _random_prob(rng)
                row = (p,) * (TABLE_E + 1)
            probs[(t, node_id)] = row
    table = NodeProbabilityTable(individual=seed, E=TABLE_E, probs=probs)

    instance = ProblemInstance(
        x0=tuple(round(float(v), 3) for v in rng.random(d)),
        target_class=int(rng.integers(0, 2)),
        eta=int(rng.integers(0, 4)),
        E=int(rng.integers(0, TABLE_E + 1)),
    )
    max_leaves = max(len(tree.leaves) for tree in forest.trees)
    positive_counts = [
        sum(1 for leaf in tree.leaves.values() if leaf.predicted_class == instance.target_class)
        for tree in forest.trees
    ]
    min_positive = min((c for c in positive_counts if c > 0), default=1)
    kappa = int(rng.integers(1, max_leaves + 1))
    kappa_ord = int(rng.integers(1, min_positive + 1))
    mu = float(rng.choice([0.0, 0.0, 1e-6, 0.2]))
    return RandomInstance(seed, forest, table, instance, kappa, kappa_ord, mu)


def _random_prob(rng) -> float:
    roll = rng.random()
    if roll < 0.06:
        return 0.0
    if roll < 0.12:
        return 1.0
    return round(float(rng.uniform(0.01, 0.99)), 4)


def oracle_agreement(case, objective, **config_kw):
    """Solve and brute-force one instance; returns (solver, oracle, config)."""
    from treeshift import SolverConfig, brute_force_oracle, solve

    config = SolverConfig(objective=objective, **config_kw)
    solver_sol = solve(case.forest, case.instance, case.table, config)
    oracle_sol = brute_force_oracle(case.forest, case.instance, case.table, config)
    return solver_sol, oracle_sol, config


def assert_matches_oracle(case, objective, **config_kw):
    from treeshift import objectives_close, verify_solution

    solver_sol, oracle_sol, config = oracle_agreement(case, objective, **config_kw)
    assert solver_sol.status == oracle_sol.status, (
        f"seed {case.seed} {objective}: solver {solver_sol.status}, oracle {oracle_sol.status}")
    if solver_sol.status == "optimal":
        assert objectives_close(solver_sol.objective, oracle_sol.objective), (
            f"seed {case.seed} {objective}: solver {solver_sol.objective!r} "
            f"!= oracle {oracle_sol.objective!r}")
        for sol in (solver_sol, oracle_sol):
            verdict = verify_solution(case.forest, case.instance, case.table, sol, config)
            assert verdict.passed, f"seed {case.seed} {objective}: {verdict.failures}"
        assert case.forest.predict(solver_sol.x)[0] == case.instance.target_class
    return solver_sol, oracle_sol


def per_tree_value_chain(case, kappa):
    """min over positive leaves <= kappa-th smallest positive <= max, per tree."""
    from treeshift import enumerate_effort_allocations, path_probability

    forest, instance, table = case.forest, case.instance, case.table
    mask = [m.mutable for m in forest.feature_metas]
    for effort in enumerate_effort_allocations(forest.num_features, instance.E,
                                               instance.eta, mask):
        for t, tree in enumerate(forest.trees):
            pos = sorted(
                path_probability(forest, t, l, table, effort)
                for l, leaf in tree.leaves.items()
                if leaf.predicted_class == instance.target_class
            )
            if not pos:
                continue
            idx = min(kappa, len(pos))
            assert pos[0] <= pos[idx - 1] <= pos[-1]


def reference_tree_value(positive_probs, n_leaves: int, kappa: int, config):
    """One tree's (value, mu-eligible) from its target leaves' path probabilities, one
    sort per tree in Python: the reference for the solver's batch rule ``_tree_values``.
    ``kappa`` is the tree's ``_resolve_kappa(config, n_leaves)``.

    The other ``n_leaves - len(positive_probs)`` leaves carry the 1.0 cap in
    the theta vector; path probabilities never exceed 1, so appending the caps
    to the sorted target probabilities gives the sorted theta vector.
    """
    from treeshift import KAPPA_PATH, MIN_PATH

    positive_probs = list(positive_probs)
    if not positive_probs:
        return None, False
    if config.objective == MIN_PATH:
        return min(positive_probs), True
    if config.objective != KAPPA_PATH:  # max_path: optimistic per-tree bound
        return max(positive_probs), True
    values = sorted(positive_probs)
    if not config.positive_leaves_only:
        values += [1.0] * (n_leaves - len(values))
    idx = min(kappa, len(values))
    return values[idx - 1], math.fsum(values[: idx - 1]) >= config.mu


def make_weighted_distance_case(seed: int):
    """Forest with unequal tree weights plus a distance configuration."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD157]))
    case = make_random_instance(seed)
    trees = [
        Tree(t.root, list(t.nodes.values()), list(t.leaves.values()),
             weight=float(rng.integers(1, 4)))
        for t in case.forest.trees
    ]
    forest = Forest(trees, case.forest.feature_metas)
    weights = tuple(round(float(w), 2) for w in rng.uniform(0.5, 2.0, forest.num_features))
    kind = str(rng.choice(["l1", "l2", "linf"]))
    return forest, case.instance, weights, kind


def _reference_gini(counts) -> float:
    total = counts[0] + counts[1]
    if total == 0:
        return 0.0
    p1 = counts[1] / total
    return 2.0 * p1 * (1.0 - p1)


def reference_best_split(X, y, rows, feature_pool, rng, k):
    """CART split search with one mask per threshold, the reference for ``_best_split``.

    Same contract: draw the feature subset first, then return the smallest
    ``(weighted Gini, feature, midpoint threshold)`` key that sends rows both
    ways, or None.
    """
    chosen = rng.choice(feature_pool, size=min(k, len(feature_pool)), replace=False)
    best = None
    for j in sorted(chosen):
        col = X[rows, j]
        values = np.unique(col)
        if len(values) < 2:
            continue
        mids = (values[:-1] + values[1:]) / 2.0
        for thr in mids:
            right = col >= thr
            n_right = int(right.sum())
            n_left = len(rows) - n_right
            if n_left == 0 or n_right == 0:
                continue
            y_here = y[rows]
            right_ones = int(y_here[right].sum())
            left_ones = int(y_here.sum()) - right_ones
            score = (
                n_left * _reference_gini((n_left - left_ones, left_ones))
                + n_right * _reference_gini((n_right - right_ones, right_ones))
            ) / len(rows)
            key = (score, j, thr)
            if best is None or key < best:
                best = key
    return best
