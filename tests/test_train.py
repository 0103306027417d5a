import numpy as np
import pytest

from treeshift import (Dataset, FeatureMeta, TrainConfig, TrainingError, accuracy,
                       forest_to_dict, impurity_importances, synth_generate, train)
from treeshift.train import _best_split

from helpers import reference_best_split


def _toy_dataset():
    X = np.array([[0.1], [0.2], [0.8], [0.9]])
    y = np.array([0, 0, 1, 1])
    return Dataset(X, y, [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])


def test_single_split_at_midpoint():
    forest = train(_toy_dataset(), TrainConfig(num_trees=1, max_depth=1, bootstrap=False))
    tree = forest.trees[0]
    assert len(tree.nodes) == 1
    node = next(iter(tree.nodes.values()))
    assert node.threshold == pytest.approx(0.5)
    left = tree.leaves[node.left].predicted_class
    right = tree.leaves[node.right].predicted_class
    assert (left, right) == (0, 1)


def test_single_class_dataset_rejected():
    ds = _toy_dataset()
    pure = Dataset(ds.X, np.zeros(4, dtype=int), ds.feature_metas)
    with pytest.raises(TrainingError):
        train(pure, TrainConfig(num_trees=1))


@pytest.mark.parametrize("label", [2, 0.5, -1])
def test_labels_outside_zero_one_rejected(label):
    ds = synth_generate(60, 3, seed=0)
    y = ds.y.astype(type(label))
    y[7] = label
    with pytest.raises(TrainingError, match=f"row 7 has {label!r}"):
        train(Dataset(ds.X, y, ds.feature_metas), TrainConfig(num_trees=3, max_depth=3))


@pytest.mark.parametrize("field, value, message", [
    ("features_per_split", 0, "features_per_split must be None or at least 1"),
    ("features_per_split", -1, "features_per_split must be None or at least 1"),
    ("features_per_split", 2.5, "features_per_split must be an integer"),
    ("num_trees", 2.0, "num_trees must be an integer"),
    ("max_depth", 3.5, "max_depth must be an integer"),
    ("min_samples_split", "2", "min_samples_split must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", -1, "seed >= 0 required"),
    ("bootstrap", "no", "bootstrap must be true or false"),
    ("bootstrap", 0, "bootstrap must be true or false"),
])
def test_train_config_rejects_bad_counts(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


def test_train_config_accepts_numpy_counts():
    config = TrainConfig(num_trees=np.int64(3), features_per_split=np.int32(2))
    assert (config.num_trees, config.features_per_split) == (3, 2)


def test_same_seed_identical_forest():
    ds = synth_generate(120, 5, seed=0)
    cfg = TrainConfig(num_trees=5, max_depth=3, seed=11)
    assert forest_to_dict(train(ds, cfg)) == forest_to_dict(train(ds, cfg))


def test_different_seed_differs():
    ds = synth_generate(120, 5, seed=0)
    a = train(ds, TrainConfig(num_trees=5, max_depth=3, seed=1))
    b = train(ds, TrainConfig(num_trees=5, max_depth=3, seed=2))
    assert forest_to_dict(a) != forest_to_dict(b)


def test_thresholds_between_observed_values():
    ds = synth_generate(80, 4, seed=1)
    forest = train(ds, TrainConfig(num_trees=4, max_depth=3, seed=3))
    for tree in forest.trees:
        for node in tree.nodes.values():
            col = np.unique(ds.X[:, node.feature])
            assert not np.any(col == node.threshold)
            assert col.min() < node.threshold < col.max()


def test_synthetic_accuracy():
    ds = synth_generate(600, 8, seed=2, label_noise=0.0)
    forest = train(ds, TrainConfig(num_trees=9, max_depth=4, seed=0))
    assert accuracy(forest, ds) >= 0.9


def _random_column(rng, n):
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return rng.random(n)
    if kind == 1:
        return rng.integers(0, 4, n) / 4.0  # repeated values
    if kind == 2:
        return rng.integers(0, 2, n).astype(float)
    if kind == 3:
        return np.full(n, rng.random())
    v = rng.random()
    # adjacent doubles, alone or among other values: their midpoint often rounds down to v
    col = np.where(rng.random(n) < 0.5, v, np.nextafter(v, 2.0))
    if kind == 5:
        col = np.where(rng.random(n) < 0.3, rng.random(n), col)
    return col


def _random_split_problem(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B17]))
    n = int(rng.integers(1, 30))
    d = int(rng.integers(1, 6))
    X = np.column_stack([_random_column(rng, n) for _ in range(d)])
    y = rng.integers(0, 2, n) if rng.random() < 0.8 else np.full(n, int(rng.integers(0, 2)))
    if rng.random() < 0.5:
        rows = np.sort(rng.integers(0, n, n))  # bootstrap-style duplicate rows
    else:
        rows = np.arange(n)
    return X, y, rows, int(rng.integers(1, d + 1))


def _batched_split_problem(seed):
    """Node problems shaped for the batched search: up to 200 rows, one-row nodes,
    k = 1 and k = d, duplicated columns (exact score ties across features in one
    batch), adjacent-double columns in the last batch positions and columns near
    the largest double, whose midpoints overflow."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C]))
    n = 1 if rng.random() < 0.06 else int(np.exp(rng.uniform(np.log(2), np.log(200))))
    d = int(rng.integers(1, 9))
    columns = [_random_column(rng, n) for _ in range(d)]
    for j in range(1, d):
        if rng.random() < 0.3:
            columns[j] = columns[int(rng.integers(0, j))]
    if rng.random() < 0.15:
        huge = rng.choice([1.6e308, 1.7e308], n)
        columns[int(rng.integers(0, d))] = huge if rng.random() < 0.5 else -huge
    if d > 1 and rng.random() < 0.4:
        v = rng.random()
        columns[-1] = np.where(rng.random(n) < 0.5, v, np.nextafter(v, 2.0))
    X = np.column_stack(columns)
    y = rng.integers(0, 2, n) if rng.random() < 0.9 else np.full(n, int(rng.integers(0, 2)))
    rows = np.sort(rng.integers(0, n, n)) if rng.random() < 0.5 else np.arange(n)
    k = int(rng.choice([1, d, int(rng.integers(1, d + 1))]))
    return X, y, rows, k


def _rounds_down(col) -> bool:
    values = np.unique(col)
    return bool(np.any((values[:-1] + values[1:]) / 2.0 == values[:-1]))


def test_best_split_matches_per_threshold_reference():
    for problem in (_random_split_problem, _batched_split_problem):
        outcomes = {"split": 0, "none": 0, "rounded down": 0}
        if problem is _batched_split_problem:
            outcomes.update({"n = 1": 0, "k = 1": 0, "k = d": 0, "tie across features": 0,
                             "rounded down in a later column": 0, "overflow": 0})
        with np.errstate(over="ignore"):   # the midpoint of two doubles near 1.8e308 is inf
            for seed in range(1200):
                X, y, rows, k = problem(seed)
                pool = np.arange(X.shape[1])
                rng_fast = np.random.default_rng(seed)
                rng_ref = np.random.default_rng(seed)
                fast = _best_split(X, y, rows, pool, rng_fast, k)
                ref = reference_best_split(X, y, rows, pool, rng_ref, k)
                assert fast == ref, (problem.__name__, seed, fast, ref)
                assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
                outcomes["none" if ref is None else "split"] += 1
                outcomes["rounded down"] += any(_rounds_down(col) for col in X.T)
                if problem is not _batched_split_problem:
                    continue
                chosen = np.sort(np.random.default_rng(seed).choice(pool, size=min(k, len(pool)),
                                                                    replace=False))
                outcomes["n = 1"] += len(rows) == 1
                outcomes["k = 1"] += k == 1
                outcomes["k = d"] += k == X.shape[1]
                outcomes["rounded down in a later column"] += any(_rounds_down(X[rows, j])
                                                                  for j in chosen[1:])
                outcomes["overflow"] += bool(np.any(np.abs(X[rows][:, chosen]) > 1e308))
                outcomes["tie across features"] += ref is not None and any(
                    j != ref[1] and np.array_equal(X[:, j], X[:, ref[1]]) for j in chosen)
        assert min(outcomes.values()) >= 50, (problem.__name__, outcomes)


def test_importances_single_feature():
    forest = train(_toy_dataset(), TrainConfig(num_trees=1, max_depth=1, bootstrap=False))
    imp = impurity_importances(forest, _toy_dataset())
    assert imp[0] == pytest.approx(1.0)


def test_importances_unused_feature_zero_and_sum_one():
    ds = synth_generate(150, 6, seed=3)
    forest = train(ds, TrainConfig(num_trees=5, max_depth=3, seed=5))
    imp = impurity_importances(forest, ds)
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(imp >= 0)
    used = {n.feature for t in forest.trees for n in t.nodes.values()}
    for j in range(ds.num_features):
        if j not in used:
            assert imp[j] == 0.0


def test_importances_permutation_equivariant():
    ds = synth_generate(100, 4, seed=4)
    forest = train(ds, TrainConfig(num_trees=3, max_depth=3, seed=7, bootstrap=False,
                                   features_per_split=4))
    imp = impurity_importances(forest, ds)

    perm = [2, 0, 3, 1]  # new position of each old feature
    X2 = ds.X[:, np.argsort(perm)]
    metas2 = []
    for new_j, old_j in enumerate(np.argsort(perm)):
        m = ds.feature_metas[old_j]
        metas2.append(FeatureMeta(new_j, m.name, m.kind, m.mutable, m.beneficial, m.lo, m.hi))
    ds2 = Dataset(X2, ds.y, metas2)
    forest2 = train(ds2, TrainConfig(num_trees=3, max_depth=3, seed=7, bootstrap=False,
                                     features_per_split=4))
    imp2 = impurity_importances(forest2, ds2)
    assert np.allclose(np.sort(imp), np.sort(imp2))
