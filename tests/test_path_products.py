"""The path search's vectorised scoring is bit-for-bit the scalar definitions.

``_path_products`` evaluates the target leaves' path probabilities of (tree,
effort vector) pairs with one numpy gather and one product per path step.
``Forest.scoring_plan`` groups the allocations per tree by the effort at the
features on the tree's target paths; the path search scores one pair per
group (``_score_pairs``) and bounds every allocation in numpy (``_bounds``).
These tests compare each value with ``==`` (no tolerance) against
``path_probability``, ``_tree_value`` and ``_add_up``, allocation by allocation.
"""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from treeshift import (KAPPA_PATH, MAX_PATH, MIN_PATH, FeatureMeta, Forest, Leaf, Node,
                       NodeProbabilityTable, PerturbationSpec, ProblemInstance, SolverConfig,
                       TrainConfig, Tree, enumerate_effort_allocations,
                       estimate_node_probabilities, evaluate_allocation, forest_from_dict,
                       forest_to_dict, majority_threshold, path_probability, solve, split,
                       synth_generate, train)
from treeshift import solver
from treeshift.solver import (_add_up, _bounds, _log, _path_products, _resolve_kappa,
                              _score_pairs, _tree_value)

from helpers import assert_matches_oracle, make_random_instance


def _assert_exact(forest, table, target_class, E, eta):
    paths = forest.target_paths(target_class)
    leaves = paths.leaves
    assert leaves == tuple(tuple(sorted(leaf_id for leaf_id, leaf in tree.leaves.items()
                                        if leaf.predicted_class == target_class))
                           for tree in forest.trees)
    probs = _path_products(table, paths)
    mask = [m.mutable for m in forest.feature_metas]
    efforts = list(enumerate_effort_allocations(forest.num_features, E, eta, mask))
    assert efforts
    trees = range(forest.num_trees)
    every_pair = []
    for effort in efforts:
        got = probs(trees, [effort] * forest.num_trees)
        want = [[path_probability(forest, t, leaf_id, table, effort) for leaf_id in ids]
                for t, ids in enumerate(leaves)]
        assert got == want, f"effort {effort}"
        assert all(type(p) is float for tree_probs in got for p in tree_probs)
        every_pair += want
    # every (tree, effort) pair in one gather, trees in a different order per effort
    order = [(t, effort) for effort in efforts for t in trees]
    got = probs([t for t, _ in order], [effort for _, effort in order])
    assert got == every_pair


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("target_class", [0, 1])
def test_random_instances_every_effort_the_table_covers(seed, target_class):
    case = make_random_instance(seed)
    table = case.table
    _assert_exact(case.forest, table, target_class, table.E,
                  table.E * case.forest.num_features)


def _edge_forest():
    """Feature 0 is mutable and feature 1 immutable. Tree 0 is a single leaf (empty path);
    trees 1 and 3 have paths of lengths 1 and 2; tree 2 has no class-1 leaf."""
    metas = [FeatureMeta(0, "a", mutable=True, beneficial="increase"),
             FeatureMeta(1, "b", mutable=False)]
    trees = [
        Tree(0, [], [Leaf(0, 1)]),
        Tree(0, [Node(0, 0, 0.5, 1, 2), Node(2, 1, 0.4, 3, 4)],
             [Leaf(1, 1), Leaf(3, 0), Leaf(4, 1)]),
        Tree(0, [Node(0, 0, 0.7, 1, 2)], [Leaf(1, 0), Leaf(2, 0)]),
        Tree(0, [Node(0, 1, 0.6, 1, 2), Node(1, 0, 0.3, 3, 4)],
             [Leaf(2, 1), Leaf(3, 1), Leaf(4, 0)]),
    ]
    forest = Forest(trees, metas)
    probs = {(1, 0): (0.3, 0.55, 0.9), (1, 2): (0.7, 0.7, 0.7), (2, 0): (0.1, 0.2, 0.3),
             (3, 0): (0.45, 0.45, 0.45), (3, 1): (0.35, 0.6, 0.85)}
    table = NodeProbabilityTable(individual=0, E=2, probs=probs)   # covers levels 0..2
    return forest, table


@pytest.mark.parametrize("E", [0, 1, 2])
@pytest.mark.parametrize("target_class", [0, 1])
def test_edge_cases(E, target_class):
    # single-leaf tree, unequal path lengths (padded steps), a tree without target
    # leaves, an immutable feature, and a table covering more levels than the instance
    forest, table = _edge_forest()
    _assert_exact(forest, table, target_class, E, 2)


def test_edge_cases_without_any_target_leaf():
    forest, table = _edge_forest()
    no_class_1 = Forest([tree for tree in forest.trees
                         if all(leaf.predicted_class == 0 for leaf in tree.leaves.values())] * 4,
                        forest.feature_metas)
    table = NodeProbabilityTable(0, 2, {(t, 0): table.probs[(2, 0)] for t in range(4)})
    probs = _path_products(table, no_class_1.target_paths(1))
    assert probs(range(4), [(1, 0)] * 4) == [[], [], [], []]


@pytest.mark.parametrize("objective", [MAX_PATH, MIN_PATH, KAPPA_PATH])
def test_edge_forest_solves_match_the_oracle(objective):
    forest, table = _edge_forest()
    instance = ProblemInstance(x0=(0.4, 0.5), target_class=1, eta=1, E=1)
    case = SimpleNamespace(seed="edge", forest=forest, table=table, instance=instance)
    solver_sol, _ = assert_matches_oracle(case, objective, kappa=2, mu=0.0)
    assert solver_sol.status == "optimal"


# --- the scoring plan and the batched scores ------------------------------------------


def _configs(case):
    return [SolverConfig(objective=MAX_PATH), SolverConfig(objective=MIN_PATH),
            SolverConfig(objective=KAPPA_PATH, kappa=case.kappa, mu=case.mu),
            SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5, mu=case.mu),
            SolverConfig(objective=KAPPA_PATH, kappa=case.kappa_ord, mu=case.mu,
                         positive_leaves_only=True)]


def _assert_plan_groups(forest, plan, target_class):
    """Two allocations share a tree's pair iff they agree at the features on the tree's
    paths to target leaves; each pair names its tree and its first allocation."""
    assert plan.effort.tolist() == [list(a) for a in plan.allocations]
    for t, tree in enumerate(forest.trees):
        features = sorted({tree.nodes[node_id].feature
                           for leaf_id, leaf in tree.leaves.items()
                           if leaf.predicted_class == target_class
                           for node_id, _ in tree.paths[leaf_id]})
        first = {}
        for a, effort in enumerate(plan.allocations):
            first.setdefault(tuple(effort[j] for j in features), a)
        ids = plan.pair[:, t].tolist()
        assert len(set(ids)) == len(first)
        for effort, p in zip(plan.allocations, ids):
            assert plan.tree[p] == t
            assert plan.first[p] == first[tuple(effort[j] for j in features)]


def _assert_scores_exact(forest, table, config, target_class, E, eta):
    plan = forest.scoring_plan(target_class, E, eta)
    mask = [meta.mutable for meta in forest.feature_metas]
    assert plan.allocations == tuple(enumerate_effort_allocations(forest.num_features, E,
                                                                  eta, mask))
    _assert_plan_groups(forest, plan, target_class)
    m = majority_threshold(forest.num_trees)
    target = forest.target_paths(target_class).leaves
    want_values, want_bounds = [], []
    for a, effort in enumerate(plan.allocations):
        row, values = [], []
        for t, tree in enumerate(forest.trees):
            probs = [path_probability(forest, t, leaf_id, table, effort) for leaf_id in target[t]]
            value, eligible = _tree_value(probs, len(tree.leaves),
                                          _resolve_kappa(config, len(tree.leaves)), config)
            row.append((value, eligible, _log(value) if eligible else -math.inf))
            if eligible:
                values.append(value)
        want_values.append(row)
        if len(values) >= m:
            best = sorted(values, reverse=True)[:m]
            want_bounds.append((_add_up(0.0, map(_log, best)), a))
    want_bounds.sort(key=lambda s: (-s[0], s[1]))
    indices = np.arange(len(plan.allocations))
    leaf_probs = _path_products(table, forest.target_paths(target_class))
    for block in (2, solver._SCORE_BLOCK):   # a pair's scores do not depend on its block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_SCORE_BLOCK", block)
            scores = _score_pairs(forest, plan, leaf_probs, config, np.arange(len(plan.tree)),
                                  lambda: None)
        value, eligible, log = scores
        for a, row in enumerate(want_values):
            got = [(value[p], eligible[p], log[p]) for p in plan.pair[a].tolist()]
            assert got == row, f"{config.objective} allocation {plan.allocations[a]}"
        assert _bounds(plan, indices, scores, m) == want_bounds


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("target_class", [0, 1])
def test_scores_and_bounds_are_the_definitions(seed, target_class):
    case = make_random_instance(seed)
    for config in _configs(case):
        _assert_scores_exact(case.forest, case.table, config, target_class, case.table.E, 3)


@pytest.mark.parametrize("E", [0, 1, 2])
@pytest.mark.parametrize("target_class", [0, 1])
def test_edge_forest_scores_and_bounds_are_the_definitions(E, target_class):
    # a single-leaf tree (empty path) and, for class 1, a tree without a target leaf
    forest, table = _edge_forest()
    case = SimpleNamespace(kappa=2, kappa_ord=1, mu=0.0)
    for config in _configs(case):
        _assert_scores_exact(forest, table, config, target_class, E, 2)


def _chain_forest(d):
    """Tree 0 splits on features 0..d-1 in turn (node j's left child is a leaf, its right
    child node j+1), so its class-1 leaf at the end lies past every feature; tree 1 is one
    split on feature 0."""
    rng = np.random.default_rng(7)
    metas = [FeatureMeta(j, f"f{j}", mutable=True, beneficial="increase") for j in range(d)]
    chain = Tree(0, [Node(j, j, 0.5, d + j, j + 1 if j + 1 < d else 2 * d) for j in range(d)],
                 [Leaf(d + j, j % 2) for j in range(d)] + [Leaf(2 * d, 1)])
    stump = Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 0), Leaf(2, 1)])
    probs = {(0, j): tuple(round(float(p), 4) for p in rng.uniform(0.5, 1.0, 3))
             for j in range(d)}
    probs[(1, 0)] = (0.3, 0.6, 0.9)
    return Forest([chain, stump], metas), NodeProbabilityTable(0, 2, probs)


def test_signature_keys_stay_exact_past_int64():
    # at E=2 a mixed-radix key over 40 features needs 3**40 > 2**63 values
    forest, table = _chain_forest(40)
    assert 3 ** 40 > 2 ** 63
    plan = forest.scoring_plan(1, 2, 2)
    assert len(plan.allocations) == 1 + 40 * 2 + 40 * 39 // 2
    assert len(set(plan.pair[:, 0].tolist())) == len(plan.allocations)   # all distinct
    for config in (SolverConfig(objective=MAX_PATH),
                   SolverConfig(objective=KAPPA_PATH, kappa=3, mu=0.0)):
        _assert_scores_exact(forest, table, config, 1, 2, 2)


def _canonical(solution):
    doc = solution.to_dict()
    del doc["wall_time"]
    return doc


def test_plans_cached_on_one_forest_give_a_fresh_forests_answers():
    ds = synth_generate(300, 6, seed=0)
    train_ds, _ = split(ds, 2 / 3, seed=0)
    forest = train(train_ds, TrainConfig(num_trees=7, max_depth=3, seed=0))
    row = next(i for i in range(train_ds.num_rows) if forest.predict(train_ds.X[i])[0] != 0)
    spec = PerturbationSpec.from_dataset(train_ds, num_samples=200, seed=0)
    table = estimate_node_probabilities(forest, train_ds.X[row], spec, E=2, individual=row)
    x0 = tuple(train_ds.X[row])
    # eta 1, eta 2, eta 1 again, target class 1, then one allocation pinned
    steps = [(ProblemInstance(x0, 0, eta, 2), None) for eta in (1, 2, 1)]
    steps.append((ProblemInstance(x0, 1, 2, 2), None))
    steps.append((ProblemInstance(x0, 0, 2, 2), (0, 0, 0, 1, 0, 0)))
    for config in (SolverConfig(objective=MAX_PATH),
                   SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5, mu=1e-6)):
        for instance, pinned in steps:
            fresh = forest_from_dict(forest_to_dict(forest))
            if pinned is None:
                got, want = (solve(f, instance, table, config) for f in (forest, fresh))
            else:
                got, want = (evaluate_allocation(f, instance, table, config, pinned)
                             for f in (forest, fresh))
            assert got.found
            assert _canonical(got) == _canonical(want)
    assert forest.scoring_plan(0, 2, 1) is forest.scoring_plan(0, 2, 1)


def test_forests_never_share_a_plan():
    case = make_random_instance(3)
    forest = case.forest
    copy = forest_from_dict(forest_to_dict(forest))
    assert copy.scoring_plan(0, 1, 2) is not forest.scoring_plan(0, 1, 2)
    # the same trees with feature 0 made immutable: no allocation puts effort there
    metas = [FeatureMeta(0, "frozen", mutable=False)] + forest.feature_metas[1:]
    frozen = Forest(forest.trees, metas)
    assert all(effort[0] == 0 for effort in frozen.scoring_plan(0, 1, 2).allocations)
    assert any(effort[0] == 1 for effort in forest.scoring_plan(0, 1, 2).allocations)
