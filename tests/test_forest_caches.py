"""The forest caches built from one level-by-level walk equal the per-leaf builders.

``Forest.leaf_geometry`` and ``Forest.target_paths`` read every leaf's path off one
numpy walk down the flat node arrays, and ``Forest.scoring_plan`` keys the
signatures of all trees at once. ``helpers`` keeps the builders they replaced: one
``leaf_box`` call per leaf, each tree's ``trace_paths`` and one ``np.unique`` key
per tree. These tests hold the caches to them with ``==`` on every box, bitset,
array and dtype, and to the same error text where an epsilon empties a box.
"""
import numpy as np
import pytest

from treeshift import (DegenerateBoxError, FeatureMeta, Forest, Leaf, Node, TrainConfig, Tree,
                       split, synth_generate, train)
from treeshift.forest import _DENSE_KEYS, _unique_rows

from helpers import (_grow_random_tree, make_random_instance, reference_leaf_geometry,
                     reference_scoring_plan, reference_target_paths, trace_paths)


def _shuffled(forest, seed):
    """The same trees with their nodes and leaves in another dict order."""
    rng = np.random.default_rng(seed)
    trees = []
    for tree in forest.trees:
        nodes, leaves = list(tree.nodes.values()), list(tree.leaves.values())
        trees.append(Tree(tree.root, [nodes[i] for i in rng.permutation(len(nodes))],
                          [leaves[i] for i in rng.permutation(len(leaves))], tree.weight))
    return Forest(trees, forest.feature_metas)


def _forests():
    for seed in range(40):
        forest = make_random_instance(seed).forest
        yield forest
        yield _shuffled(forest, seed)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        d = 6
        metas = [FeatureMeta(j, f"f{j}", mutable=j != 2,
                             beneficial="increase" if j != 2 else "none") for j in range(d)]
        yield Forest([_grow_random_tree(rng, d, 5) for _ in range(7)], metas)
    train_ds, _ = split(synth_generate(300, 8, seed=1), 2 / 3, seed=1)
    yield train(train_ds, TrainConfig(num_trees=9, max_depth=4, seed=1))
    # single-leaf trees only: no path has a step, with one feature and with none
    stumps = [Tree(0, [], [Leaf(0, 1)]), Tree(5, [], [Leaf(5, 0)])]
    yield Forest(stumps, [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])
    yield Forest(stumps, [])


def _assert_arrays_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _geometry_or_error(build):
    try:
        return build(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def test_leaf_geometry_is_the_per_leaf_builders():
    outcomes = set()
    for forest in _forests():
        for eps in (1e-6, 1e-3, 0.015, 0.02, 0.05):
            want, want_error = _geometry_or_error(
                lambda: reference_leaf_geometry(forest.trees, forest.domains, eps))
            got, got_error = _geometry_or_error(lambda: forest.leaf_geometry(eps))
            assert got_error == want_error, (eps, got_error, want_error)
            outcomes.add(want_error is None or want_error[0])
            if want is None:
                continue
            boxes, bit, compatible, lo, hi = want
            assert [{leaf: got.box(t, leaf) for leaf in tree_bits}
                    for t, tree_bits in enumerate(got.bit)] == list(boxes)
            assert [list(b) for b in got.bit] == [list(b) for b in boxes]   # dict order
            assert all(got.box(t, leaf) is got.box(t, leaf)   # made once, when first read
                       for t, tree_bits in enumerate(got.bit) for leaf in tree_bits)
            assert got.bit == bit and got.compatible == compatible
            for a, b in ((got.lo, lo), (got.hi, hi)):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tolist() == b.tolist()
    assert outcomes == {True, DegenerateBoxError}


def test_split_gaps_are_the_gaps_each_split_defines():
    # a value lies in a split's gap iff threshold - eps < value < threshold on its feature
    outcomes = set()
    for forest in _forests():
        splits = [(node.feature, node.threshold) for tree in forest.trees
                  for node in tree.nodes.values()]
        for eps in (1e-6, 1e-3, 0.015):
            try:
                got, geometry = forest.split_gaps(eps), forest.leaf_geometry(eps)
            except DegenerateBoxError:
                continue
            assert forest.split_gaps(eps) is got   # built once per epsilon

            def in_gap(point):
                return any(t - eps < point[j] < t for j, t in splits)

            corners = [[bound[end] for bound in geometry.box(t, leaf)] for end in (0, 1)
                       for t, tree_bits in enumerate(geometry.bit) for leaf in tree_bits]
            assert got.crowded == any(in_gap(corner) for corner in corners)
            nearby = [tuple(v - eps / 2 for v in corner) for corner in corners]
            for point in corners + nearby:
                assert got.in_gap(point) == in_gap(point)
                outcomes.add(got.in_gap(point))
            outcomes.add(("crowded", got.crowded))
    assert outcomes == {True, False, ("crowded", True), ("crowded", False)}


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
def test_leaf_geometry_rejects_epsilon_as_leaf_box_does(epsilon):
    forest = make_random_instance(0).forest
    with pytest.raises(ValueError, match="epsilon must be positive"):
        forest.leaf_geometry(epsilon)


def test_an_emptied_box_keeps_leaf_box_error():
    # the right branch at 0.50 then the left branch at 0.51: x in [0.50, 0.51 - eps]
    tree = Tree(0, [Node(0, 0, 0.5, 1, 2), Node(2, 0, 0.51, 3, 4)],
                [Leaf(1, 0), Leaf(3, 1), Leaf(4, 0)])
    forest = Forest([tree], [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])
    assert forest.leaf_geometry(0.005).box(0, 3) == ((0.5, 0.51 - 0.005),)
    with pytest.raises(DegenerateBoxError) as err:
        forest.leaf_geometry(0.02)
    assert str(err.value) == f"leaf 3: feature 0 interval [0.5, {0.51 - 0.02}] is empty"


def test_tree_depth_is_the_longest_traced_path():
    for forest in _forests():
        for tree in forest.trees:
            assert tree.depth == max(map(len, trace_paths(tree).values()))


def test_target_paths_are_the_traced_paths():
    for forest in _forests():
        for target_class in (0, 1):
            got = forest.target_paths(target_class)
            want = reference_target_paths(forest.trees, target_class)
            assert got.leaves == want.leaves and got.nodes == want.nodes
            for name in ("node", "feature", "right"):
                _assert_arrays_equal(getattr(got, name), getattr(want, name))
                assert not getattr(got, name).flags.writeable


def test_scoring_plan_is_the_per_tree_keys():
    for forest in _forests():
        mutable = [meta.mutable for meta in forest.feature_metas]
        for target_class in (0, 1):
            paths = reference_target_paths(forest.trees, target_class)
            for E, eta in ((1, 1), (1, 3), (2, 2), (3, 4)):
                got = forest.scoring_plan(target_class, E, eta)
                want = reference_scoring_plan(mutable, paths, E, eta)
                assert got.allocations == want.allocations
                for name in ("pair", "tree", "slot", "step"):
                    _assert_arrays_equal(getattr(got, name), getattr(want, name))
                    assert not getattr(got, name).flags.writeable


def test_caches_stay_lazy():
    train_ds, _ = split(synth_generate(100, 4, seed=0), 2 / 3, seed=0)
    trained = train(train_ds, TrainConfig(num_trees=3, max_depth=3, seed=0))
    for forest in (make_random_instance(5).forest, trained):
        assert "_flat" not in vars(forest) and "_leaf_paths" not in vars(forest)
        assert not (forest._leaf_geometry or forest._split_gaps or forest._target_paths
                    or forest._target_masks or forest._scoring_plans)


def test_target_masks_are_the_target_leaves_bits():
    for forest in _forests():
        for target_class in (0, 1):
            for epsilon in (1e-6, 1e-9):
                bit = forest.leaf_geometry(epsilon).bit
                want = tuple(sum(bit[t][leaf_id] for leaf_id, leaf in tree.leaves.items()
                                 if leaf.predicted_class == target_class)
                             for t, tree in enumerate(forest.trees))
                assert forest.target_masks(target_class, epsilon) == want
                assert forest.target_masks(target_class, epsilon) is \
                    forest.target_masks(target_class, epsilon)


def test_unique_rows_marks_small_key_spaces_as_np_unique_sorts_them():
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(1, 400))
        size, width = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        key = rng.integers(0, size, n).astype(np.int64)
        columns = [rng.integers(0, width, n) for _ in range(int(rng.integers(0, 9)))]
        index, inverse = _unique_rows(key, size, columns, width)
        combined = key.copy()
        for column in columns:
            combined = combined * width + column
        _, want_index, want_inverse = np.unique(combined, return_index=True, return_inverse=True)
        _assert_arrays_equal(index, want_index)
        _assert_arrays_equal(inverse, want_inverse.reshape(-1))
        outcomes.add(size * width ** len(columns) <= max(_DENSE_KEYS, 4 * n))
    assert outcomes == {True, False}
