"""The path search's vectorised path probabilities are bit-for-bit path_probability's.

``_path_products`` evaluates every target leaf's path probability for an effort
vector with one numpy gather and one product per path step. These tests compare
each value with ``==`` (no tolerance) against the scalar definition, at every
effort vector the table covers.
"""
from types import SimpleNamespace

import pytest

from treeshift import (KAPPA_PATH, MAX_PATH, MIN_PATH, FeatureMeta, Forest, Leaf, Node,
                       NodeProbabilityTable, ProblemInstance, Tree,
                       enumerate_effort_allocations, path_probability)
from treeshift.solver import _path_products

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
    for effort in efforts:
        got = probs(effort)
        want = [[path_probability(forest, t, leaf_id, table, effort) for leaf_id in ids]
                for t, ids in enumerate(leaves)]
        assert got == want, f"effort {effort}"
        assert all(type(p) is float for tree_probs in got for p in tree_probs)


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
    assert probs((1, 0)) == [[], [], [], []]


@pytest.mark.parametrize("objective", [MAX_PATH, MIN_PATH, KAPPA_PATH])
def test_edge_forest_solves_match_the_oracle(objective):
    forest, table = _edge_forest()
    instance = ProblemInstance(x0=(0.4, 0.5), target_class=1, eta=1, E=1)
    case = SimpleNamespace(seed="edge", forest=forest, table=table, instance=instance)
    solver_sol, _ = assert_matches_oracle(case, objective, kappa=2, mu=0.0)
    assert solver_sol.status == "optimal"
