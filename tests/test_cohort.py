import numpy as np
import pytest

from treeshift import (FeatureMeta, FeaturePerturbation, Forest, Leaf, Node,
                       PerturbationSpec, Tree, TrainConfig, build_report,
                       feasible_baseline, simulate_cohort, split, synth_generate,
                       train)


def _boundary_forest(threshold=0.5):
    # one split: x >= threshold is the target class 0
    tree = Tree(0, [Node(0, 0, threshold, 1, 2)], [Leaf(1, 1), Leaf(2, 0)])
    meta = FeatureMeta(0, "h", mutable=True, beneficial="increase")
    return Forest([tree], [meta])


def _spec_for(forest, sigma=0.2):
    return PerturbationSpec(
        [FeaturePerturbation(sigma=sigma) for _ in forest.feature_metas],
        forest.feature_metas)


def test_simulate_deterministic():
    forest = _boundary_forest()
    spec = _spec_for(forest)
    cohort = [(0.4,), (0.45,)]
    a = simulate_cohort(forest, cohort, 0, {0}, spec, n_reps=1, seed=3)
    b = simulate_cohort(forest, cohort, 0, {0}, spec, n_reps=1, seed=3)
    assert a.percent == b.percent


def test_simulate_forest_ignoring_perturbables_is_zero():
    # classifier keys only on an immutable, unperturbable feature
    tree = Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 1), Leaf(2, 0)])
    metas = [FeatureMeta(0, "age", mutable=False, beneficial="none"),
             FeatureMeta(1, "h", mutable=True, beneficial="increase")]
    forest = Forest([tree], metas)
    spec = PerturbationSpec(
        [FeaturePerturbation(sigma=0.2, effort_perturbable=False, no_effort_perturbable=False),
         FeaturePerturbation(sigma=0.2)],
        metas)
    cohort = [(0.2, 0.5), (0.4, 0.1)]
    result = simulate_cohort(forest, cohort, 0, {1}, spec, n_reps=50, seed=1)
    assert result.percent == 0.0
    base = feasible_baseline(forest, cohort, 0, spec, n_reps=10, seed=1)
    assert base.percent == 0.0


def test_simulate_empty_cohort_rejected():
    forest = _boundary_forest()
    with pytest.raises(ValueError):
        simulate_cohort(forest, [], 0, {0}, _spec_for(forest))


@pytest.mark.parametrize("n_reps", [0, -1])
def test_simulate_nonpositive_reps_rejected(n_reps):
    forest = _boundary_forest()
    with pytest.raises(ValueError):
        simulate_cohort(forest, [(0.4,)], 0, {0}, _spec_for(forest), n_reps=n_reps)


@pytest.mark.parametrize("n_reps", [0, -1])
def test_baseline_nonpositive_reps_rejected(n_reps):
    forest = _boundary_forest()
    with pytest.raises(ValueError):
        feasible_baseline(forest, [(0.4,)], 0, _spec_for(forest), n_reps=n_reps)


@pytest.mark.parametrize("feature", [2, 5, -1])
def test_simulate_effort_feature_out_of_range_rejected(feature):
    tree = Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 1), Leaf(2, 0)])
    metas = [FeatureMeta(0, "h", mutable=True, beneficial="increase"),
             FeatureMeta(1, "g", mutable=True, beneficial="increase")]
    forest = Forest([tree], metas)
    with pytest.raises(ValueError):
        simulate_cohort(forest, [(0.4, 0.4)], 0, {0, feature}, _spec_for(forest), n_reps=5)


def test_simulate_order_invariant():
    forest = _boundary_forest()
    spec = _spec_for(forest)
    # the last two rows duplicate the second and third
    cohort = [(0.1,), (0.3,), (0.45,), (0.3,), (0.45,)]
    fwd = simulate_cohort(forest, cohort, 0, {0}, spec, n_reps=40, seed=5)
    rev = simulate_cohort(forest, list(reversed(cohort)), 0, {0}, spec, n_reps=40, seed=5)
    assert fwd.percent == pytest.approx(rev.percent)
    assert sorted(fwd.per_individual) == sorted(rev.per_individual)
    assert fwd.per_individual[1] == fwd.per_individual[3]
    assert fwd.per_individual[2] == fwd.per_individual[4]


def test_baseline_crosses_reachable_threshold():
    # c - x0 < 1.5 sigma for every individual: deterministic favorable shift wins
    forest = _boundary_forest(threshold=0.5)
    spec = _spec_for(forest, sigma=0.2)   # shift = 0.3
    cohort = [(0.25,), (0.31,), (0.49,)]
    base = feasible_baseline(forest, cohort, 0, spec, n_reps=5, seed=0)
    assert base.percent == 100.0


def test_baseline_out_of_reach_is_zero():
    forest = _boundary_forest(threshold=0.9)
    spec = _spec_for(forest, sigma=0.2)
    cohort = [(0.1,), (0.2,)]
    base = feasible_baseline(forest, cohort, 0, spec, n_reps=5, seed=0)
    assert base.percent == 0.0


def test_effort_beats_no_effort_directionally():
    rates_all, rates_none = [], []
    for seed in range(5):
        ds = synth_generate(300, 6, seed=seed)
        tr, te = split(ds, 2 / 3, seed=seed)
        forest = train(tr, TrainConfig(num_trees=9, max_depth=4, seed=seed))
        spec = PerturbationSpec.from_dataset(tr, seed=seed)
        cohort = [te.X[i] for i in range(te.num_rows)
                  if forest.predict(te.X[i])[0] == 1]
        if not cohort:
            continue
        mutables = {m.index for m in ds.feature_metas if m.mutable}
        rates_all.append(simulate_cohort(forest, cohort, 0, mutables, spec,
                                         n_reps=30, seed=seed).percent)
        rates_none.append(simulate_cohort(forest, cohort, 0, set(), spec,
                                          n_reps=30, seed=seed).percent)
    assert np.mean(rates_all) >= np.mean(rates_none)


# --- report arithmetic -----------------------------------------------------------


def test_report_reproduces_published_pair():
    report = build_report({("50%-path", 4): 31.81}, baseline=34.53)
    assert report.normalized[("50%-path", 4)] == pytest.approx(92.12, abs=0.05)


def test_report_zero_raw_normalizes_to_zero():
    report = build_report({("m", 1): 0.0}, baseline=34.53)
    assert report.normalized[("m", 1)] == 0.0


def test_report_zero_baseline_omits_normalized():
    with pytest.warns(UserWarning):
        report = build_report({("m", 1): 10.0}, baseline=0.0)
    assert report.normalized == {}


def test_report_detail_json(tmp_path):
    import json

    from treeshift import report_detail_json

    forest = _boundary_forest()
    spec = _spec_for(forest)
    cohort = [(0.3,), (0.45,)]
    cell = simulate_cohort(forest, cohort, 0, {0}, spec, n_reps=20, seed=2)
    base = feasible_baseline(forest, cohort, 0, spec, n_reps=20, seed=2)
    path = tmp_path / "detail.json"
    report_detail_json(path, {("effort", 1): cell}, base)
    doc = json.loads(path.read_text())
    assert doc["cells"][0]["method"] == "effort"
    assert len(doc["cells"][0]["per_individual"]) == 2
    assert doc["baseline"]["percent"] == base.percent
