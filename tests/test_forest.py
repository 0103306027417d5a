import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from treeshift import (MAX_PATH, MIN_DISTANCE, DegenerateBoxError, FeatureMeta, Forest,
                       ForestFormatError, Leaf, Node, ProblemInstance, SolverConfig, Tree,
                       boxes_intersect, forest_from_dict, forest_to_dict, leaf_box,
                       leaf_of, solve)
from treeshift.forest import _intersect
from treeshift.fixtures import (LEAF_NO_LEFT, LEAF_YES_LEFT, LEAF_YES_RIGHT,
                                firefighter_forest)

from helpers import _grow_random_tree, make_random_instance, make_weighted_distance_case

UNIT = [(0.0, 1.0), (0.0, 1.0)]


def _single_feature_forest(threshold=0.5, classes=(0, 1), weight=1.0):
    tree = Tree(0, [Node(0, 0, threshold, 1, 2)], [Leaf(1, classes[0]), Leaf(2, classes[1])],
                weight=weight)
    return Forest([tree], [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
def test_tree_weight_must_be_finite_and_nonnegative(weight):
    with pytest.raises(ForestFormatError, match="tree weight must be finite and nonnegative"):
        _single_feature_forest(weight=weight)


def test_forest_document_with_nan_weight_rejected():
    # a NaN weight made predict((0.9,)) return class 0 while 2 of 3 trees voted 1
    forest = Forest([_single_feature_forest().trees[0]] * 3,
                    _single_feature_forest().feature_metas)
    doc = forest_to_dict(forest)
    doc["trees"][1]["weight"] = float("nan")
    with pytest.raises(ForestFormatError, match="tree 1: tree weight"):
        forest_from_dict(json.loads(json.dumps(doc)))


def test_predict_firefighter_left_right_path():
    forest = firefighter_forest()
    cls, votes = forest.predict((0.5, 0.9))
    assert cls == 1
    assert votes == [1]


def test_predict_single_leaf_constant_tree():
    tree = Tree(0, [], [Leaf(0, 0)])
    forest = Forest([tree], [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])
    assert forest.predict((0.42,))[0] == 0


def test_predict_majority_three_trees():
    trees = [
        Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, a), Leaf(2, b)])
        for a, b in [(1, 1), (1, 1), (0, 0)]
    ]
    forest = Forest(trees, [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])
    cls, votes = forest.predict((0.3,))
    assert cls == 1
    assert votes == [1, 1, 0]


def test_predict_tie_goes_to_class_zero():
    trees = [
        Tree(0, [], [Leaf(0, 0)]),
        Tree(0, [], [Leaf(0, 1)]),
    ]
    forest = Forest(trees, [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])
    assert forest.predict((0.5,))[0] == 0


def test_predict_dimension_mismatch():
    forest = firefighter_forest()
    with pytest.raises(ValueError):
        forest.predict((0.5,))


def _assert_batch_matches_predict(forest, X):
    expected = [forest.predict(x)[0] for x in X]
    assert forest.predict_batch(X).tolist() == expected


def test_predict_batch_matches_predict_on_fixture():
    # the grid includes every threshold (0.6, 0.7, 0.8) in both coordinates
    grid = [i / 10 for i in range(11)]
    _assert_batch_matches_predict(firefighter_forest(), [(a, b) for a in grid for b in grid])


def test_predict_batch_matches_predict_on_random_forests():
    for seed in range(40):
        forests = [make_random_instance(seed).forest, make_weighted_distance_case(seed)[0]]
        rng = np.random.default_rng(seed + 200)
        for forest in forests:
            d = forest.num_features
            # thresholds sit on the 0.01 grid, so grid points land exactly on them
            on_grid = rng.integers(0, 101, size=(150, d)) / 100
            _assert_batch_matches_predict(forest, np.vstack([on_grid, rng.random((50, d))]))


def test_predict_batch_single_leaf_tree():
    for cls in (0, 1):
        forest = Forest([Tree(0, [], [Leaf(0, cls)])],
                        [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])
        assert forest.predict_batch([[0.42], [0.0], [1.0]]).tolist() == [cls] * 3


def test_predict_batch_weighted_tie_goes_to_class_zero():
    trees = [
        Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 1), Leaf(2, 0)], weight=2.0),
        Tree(0, [], [Leaf(0, 1)], weight=0.5),
        Tree(0, [], [Leaf(0, 1)], weight=1.5),
    ]
    forest = Forest(trees, [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])
    # x >= 0.5: 2.0 for class 0 against 0.5 + 1.5 for class 1
    X = [[0.2], [0.5], [0.9]]
    assert forest.predict_batch(X).tolist() == [1, 0, 0]
    _assert_batch_matches_predict(forest, X)


def test_predict_batch_wrong_shape_rejected():
    forest = firefighter_forest()
    for X in ([0.5, 0.5], [[0.5]], [[0.5, 0.5, 0.5]], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            forest.predict_batch(X)


def test_leaf_of_both_splits_strictly_below():
    forest = firefighter_forest()
    assert leaf_of(forest.trees[0], (0.69, 0.79)) == LEAF_NO_LEFT


def test_leaf_of_boundary_goes_right():
    forest = firefighter_forest()
    assert leaf_of(forest.trees[0], (0.7, 0.6)) == LEAF_YES_RIGHT


def test_leaf_of_depth_one_boundary():
    forest = _single_feature_forest()
    assert leaf_of(forest.trees[0], (0.5,)) == 2


def test_leaf_box_firefighter_left_yes():
    forest = firefighter_forest()
    eps = 1e-6
    box = leaf_box(forest.trees[0], LEAF_YES_LEFT, forest.domains, eps)
    assert box[0] == (0.0, 0.7 - eps)
    assert box[1] == (0.8, 1.0)


def test_leaf_box_root_only_right():
    forest = _single_feature_forest(threshold=0.4)
    assert leaf_box(forest.trees[0], 2, forest.domains) == [(0.4, 1.0)]


def test_leaf_box_repeated_feature_intersects():
    tree = Tree(
        0,
        [Node(0, 0, 0.3, 1, 2), Node(2, 0, 0.6, 3, 4)],
        [Leaf(1, 0), Leaf(3, 0), Leaf(4, 1)],
    )
    forest = Forest([tree], [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])
    assert leaf_box(tree, 4, forest.domains) == [(0.6, 1.0)]


def test_leaf_box_degenerate_epsilon():
    tree = Tree(
        0,
        [Node(0, 0, 0.3, 1, 2), Node(2, 0, 0.3 + 1e-9, 3, 4)],
        [Leaf(1, 0), Leaf(3, 0), Leaf(4, 1)],
    )
    forest = Forest([tree], [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])
    with pytest.raises(DegenerateBoxError):
        leaf_box(tree, 3, forest.domains, 1e-6)   # left of 0.3+1e-9 but right of 0.3: gap < epsilon


@pytest.mark.parametrize("epsilon", [0.0, -1e-6, float("nan")])
def test_leaf_box_rejects_epsilon_that_is_not_positive(epsilon):
    # min(hi, threshold - nan) is hi: a NaN epsilon would silently drop the left bound
    forest = firefighter_forest()
    with pytest.raises(ValueError, match="epsilon"):
        leaf_box(forest.trees[0], LEAF_YES_LEFT, forest.domains, epsilon)


def test_boxes_intersect_overlap():
    assert boxes_intersect([[(0.0, 0.5)], [(0.3, 1.0)]]) == [(0.3, 0.5)]


def test_boxes_intersect_empty():
    assert boxes_intersect([[(0.0, 0.2)], [(0.3, 1.0)]]) is None


def test_boxes_intersect_identity_with_full_domain():
    forest = firefighter_forest()
    box = leaf_box(forest.trees[0], LEAF_YES_LEFT, forest.domains)
    assert boxes_intersect([box, UNIT]) == box


def test_leaf_boxes_table_matches_leaf_box():
    for seed in range(12):
        forest = make_random_instance(seed).forest
        for eps in (1e-6, 1e-3):
            table = forest.leaf_geometry(eps).boxes
            assert forest.leaf_geometry(eps).boxes is table   # built once per epsilon
            assert len(table) == forest.num_trees
            for t, tree in enumerate(forest.trees):
                assert set(table[t]) == set(tree.leaves)
                for leaf_id in tree.leaves:
                    assert table[t][leaf_id] == tuple(leaf_box(tree, leaf_id, forest.domains, eps))
            # the same boxes as arrays, one row per leaf in bit order
            geometry = forest.leaf_geometry(eps)
            rows = [box for tree_boxes in table for box in tree_boxes.values()]
            assert geometry.lo.tolist() == [[lo for lo, _ in box] for box in rows]
            assert geometry.hi.tolist() == [[hi for _, hi in box] for box in rows]


def test_leaf_compatibility_bits_match_intersect():
    outcomes = set()
    for seed in range(12):
        forest = make_random_instance(seed).forest
        for eps in (1e-6, 1e-3):
            geometry = forest.leaf_geometry(eps)
            assert forest.leaf_geometry(eps) is geometry   # built once per epsilon
            bits = [geometry.bit[t][leaf] for t, tree in enumerate(forest.trees) for leaf in tree.leaves]
            assert sorted(bits) == [1 << g for g in range(len(bits))]
            for (t, a_tree), (u, b_tree) in itertools.product(enumerate(forest.trees), repeat=2):
                for a, b in itertools.product(a_tree.leaves, b_tree.leaves):
                    has_bit = bool(geometry.compatible[t][a] & geometry.bit[u][b])
                    meets = t != u and _intersect(geometry.boxes[t][a], geometry.boxes[u][b]) is not None
                    assert has_bit == meets, (seed, eps, t, a, u, b)
                    outcomes.add(meets)
    assert outcomes == {True, False}


def test_touching_leaf_boxes_are_compatible():
    # the boxes share exactly the point 0.5: closed intervals meet there
    eps = 1e-6
    assert (0.5 + eps) - eps == 0.5
    left = Tree(0, [Node(0, 0, 0.5 + eps, 1, 2)], [Leaf(1, 0), Leaf(2, 1)])
    right = Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 0), Leaf(2, 1)])
    forest = Forest([left, right], [FeatureMeta(0, "f0", beneficial="increase")])
    geometry = forest.leaf_geometry(eps)
    assert geometry.boxes[0][1][0][1] == geometry.boxes[1][2][0][0] == 0.5
    assert geometry.compatible[0][1] & geometry.bit[1][2]
    assert boxes_intersect([geometry.boxes[0][1], geometry.boxes[1][2]]) == [(0.5, 0.5)]


def test_pairwise_compatibility_decides_joint_feasibility():
    # boxes meet jointly iff they meet pairwise (Helly's theorem in one dimension, per feature)
    outcomes = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        metas = [FeatureMeta(j, f"f{j}", beneficial="increase") for j in range(2)]
        forest = Forest([_grow_random_tree(rng, 2, 3) for _ in range(8)], metas)
        geometry = forest.leaf_geometry(1e-6)
        pick = random.Random(seed)
        for _ in range(300):
            trees = pick.sample(range(forest.num_trees), pick.randint(2, forest.num_trees))
            chosen = [(t, pick.choice(sorted(forest.trees[t].leaves))) for t in trees]
            joint = boxes_intersect([geometry.boxes[t][leaf] for t, leaf in chosen]) is not None
            pairwise = all(geometry.compatible[t][a] & geometry.bit[u][b]
                           for (t, a), (u, b) in itertools.combinations(chosen, 2))
            assert joint == pairwise, (seed, chosen)
            outcomes.add((joint, len(chosen) > 2))
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}


def test_solve_ignores_boxes_cached_at_another_epsilon():
    differs = False
    for seed in range(12):
        case = make_random_instance(seed)
        coarse = ProblemInstance(case.instance.x0, case.instance.target_class,
                                 case.instance.eta, case.instance.E, epsilon=1e-3)
        case.forest.leaf_geometry(1e-6)
        fresh = Forest(case.forest.trees, case.forest.feature_metas)
        for objective in (MAX_PATH, MIN_DISTANCE):
            config = SolverConfig(objective=objective)
            fine = solve(case.forest, case.instance, case.table, config)
            cached = solve(case.forest, coarse, case.table, config)
            expected = solve(fresh, coarse, case.table, config)
            assert replace(cached, wall_time=0.0) == replace(expected, wall_time=0.0)
            differs |= cached.x != fine.x
    assert differs   # the epsilon reaches the answer, so a stale table would show


def test_serialization_round_trip():
    forest = firefighter_forest()
    doc = forest_to_dict(forest)
    again = forest_to_dict(forest_from_dict(doc))
    assert doc == again


def test_serialization_rejects_bad_leaf_class():
    doc = forest_to_dict(firefighter_forest())
    doc["trees"][0]["leaves"][0]["class"] = 2
    with pytest.raises(ForestFormatError):
        forest_from_dict(doc)


def test_serialization_rejects_dangling_child():
    doc = forest_to_dict(firefighter_forest())
    doc["trees"][0]["nodes"][0]["left"] = 99
    with pytest.raises(ForestFormatError) as err:
        forest_from_dict(doc)
    assert "99" in str(err.value)


def test_tree_rejects_unreachable_leaf():
    with pytest.raises(ForestFormatError):
        Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 0), Leaf(2, 1), Leaf(3, 0)])


def test_leaf_of_matches_unique_box_membership():
    # leaf regions tile the domain: exactly one epsilon-box-or-region per point
    for seed in range(12):
        case = make_random_instance(seed)
        rng = np.random.default_rng(seed)
        for _ in range(25):
            x = rng.random(case.forest.num_features)
            for t, tree in enumerate(case.forest.trees):
                containing = []
                for leaf_id in tree.leaves:
                    box = leaf_box(tree, leaf_id, case.forest.domains, 1e-12)
                    if all(lo <= x[j] <= hi for j, (lo, hi) in enumerate(box)):
                        containing.append(leaf_id)
                assert containing == [leaf_of(tree, x)]


def test_leaf_of_boundary_membership():
    # a point exactly on a threshold belongs to the right leaf's box
    forest = _single_feature_forest(threshold=0.5)
    assert leaf_of(forest.trees[0], (0.5,)) == 2
    box = leaf_box(forest.trees[0], 2, forest.domains)
    assert box[0][0] <= 0.5 <= box[0][1]


def test_predict_invariant_under_tree_reordering():
    for seed in range(6):
        case = make_random_instance(seed)
        if case.forest.num_trees < 2:
            continue
        reordered = Forest(list(reversed(case.forest.trees)), case.forest.feature_metas)
        rng = np.random.default_rng(seed + 100)
        for _ in range(20):
            x = rng.random(case.forest.num_features)
            assert case.forest.predict(x)[0] == reordered.predict(x)[0]
