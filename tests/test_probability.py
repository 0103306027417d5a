import json
import math
import pickle
import re

import numpy as np
import pytest

from treeshift import (BINARY, FeatureMeta, FeaturePerturbation, Forest, Leaf, Node,
                       NodeProbabilityTable, PerturbationSpec, ProblemInstance,
                       TableFormatError, TrainConfig, Tree, estimate_node_probabilities,
                       load_table, save_table, solve, split, synth_generate, train)
from treeshift.fixtures import firefighter_forest, firefighter_table
from treeshift.probability import _perturb_samples, change_rule

from helpers import make_random_instance, with_a_fixed


def _one_feature_forest(threshold, kind="continuous", beneficial="increase"):
    tree = Tree(0, [Node(0, 0, threshold, 1, 2)], [Leaf(1, 0), Leaf(2, 1)])
    return Forest([tree], [FeatureMeta(0, "x0", kind=kind, mutable=True, beneficial=beneficial)])


def _continuous_spec(sigma, n=1000, seed=0):
    return PerturbationSpec([FeaturePerturbation(sigma=sigma)], num_samples=n, seed=seed)


def _binary_spec(p, n=1000, seed=0):
    return PerturbationSpec([FeaturePerturbation(p_majority=p)], num_samples=n, seed=seed)


# --- _perturb_samples ------------------------------------------------------------


def test_binary_effort_flip_rate_floor():
    # p_majority = 0.9: effort flip probability is max(0.1, 0.2) = 0.2
    meta = FeatureMeta(0, "b", kind="binary", mutable=True, beneficial="to_one")
    spec = _binary_spec(0.9)
    rng = np.random.default_rng(1)
    n = 20000
    flips = sum(_perturb_samples(0.0, meta, spec, 1, rng, 1)[0] == 1.0 for _ in range(n))
    assert flips / n == pytest.approx(0.2, abs=3 * math.sqrt(0.2 * 0.8 / n))


def test_binary_effort_keeps_beneficial_value():
    meta = FeatureMeta(0, "b", kind="binary", mutable=True, beneficial="to_one")
    spec = _binary_spec(0.9)
    rng = np.random.default_rng(2)
    assert all(_perturb_samples(1.0, meta, spec, 1, rng, 1)[0] == 1.0 for _ in range(200))


def test_continuous_no_effort_sign_symmetry():
    meta = FeatureMeta(0, "c", mutable=True, beneficial="increase")
    spec = _continuous_spec(0.2)
    rng = np.random.default_rng(3)
    n = 20000
    ups = sum(_perturb_samples(0.5, meta, spec, 0, rng, 1)[0] >= 0.5 for _ in range(n))
    assert ups / n == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / n))


def test_effort_on_non_effort_feature_rejected():
    meta = FeatureMeta(0, "c", mutable=False, beneficial="none")
    spec = PerturbationSpec([FeaturePerturbation(sigma=0.2)])
    with pytest.raises(ValueError):
        _perturb_samples(0.5, meta, spec, 1, np.random.default_rng(0), 1)[0]


def test_non_perturbable_feature_unchanged():
    meta = FeatureMeta(0, "c", mutable=False, beneficial="none")
    spec = PerturbationSpec([FeaturePerturbation()])
    assert _perturb_samples(0.37, meta, spec, 0, np.random.default_rng(0), 1)[0] == 0.37


def test_values_clamped_to_domain():
    meta = FeatureMeta(0, "c", mutable=True, beneficial="increase")
    spec = _continuous_spec(0.5)
    rng = np.random.default_rng(4)
    values = [_perturb_samples(0.9, meta, spec, 1, rng, 1)[0] for _ in range(500)]
    assert max(values) <= 1.0 and min(values) >= 0.0


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf"), 0.0, -0.1])
def test_sigma_must_be_finite_and_positive(sigma):
    with pytest.raises(ValueError, match="sigma must be finite and positive"):
        FeaturePerturbation(sigma=sigma)


@pytest.mark.parametrize("p", [float("nan"), 0.49, 1.01])
def test_p_majority_must_lie_in_half_to_one(p):
    with pytest.raises(ValueError, match=r"p_majority must be in \[0.5, 1\]"):
        FeaturePerturbation(p_majority=p)


def test_change_rule_reads_the_kind_parameter_and_the_forest_mutability():
    mutable = FeatureMeta(0, "c", mutable=True, beneficial="increase")
    frozen = FeatureMeta(0, "c", mutable=False, beneficial="increase")
    binary = FeatureMeta(0, "b", kind=BINARY, mutable=True, beneficial="to_one")
    assert change_rule(mutable, FeaturePerturbation(sigma=0.2)) == (True, True)
    assert change_rule(frozen, FeaturePerturbation(sigma=0.2)) == (True, False)
    assert change_rule(mutable, FeaturePerturbation()) == (False, False)
    assert change_rule(binary, FeaturePerturbation(sigma=0.2)) == (False, False)
    assert change_rule(binary, FeaturePerturbation(p_majority=0.7)) == (True, True)


# --- estimate_node_probabilities ----------------------------------------------


def test_spec_of_the_wrong_length_rejected_by_the_estimator():
    forest = firefighter_forest()   # two features
    for features in ([FeaturePerturbation(sigma=0.2)], [FeaturePerturbation(sigma=0.2)] * 3):
        with pytest.raises(ValueError, match="one FeaturePerturbation per forest feature"):
            estimate_node_probabilities(forest, (0.5, 0.5), PerturbationSpec(features), E=1)


def test_estimate_threshold_at_x0_is_half():
    forest = _one_feature_forest(0.5)
    spec = _continuous_spec(0.2, seed=5)
    table = estimate_node_probabilities(forest, (0.5,), spec, E=0)
    p = table.right_prob(0, 0, 0)
    assert p == pytest.approx(0.5, abs=3 * math.sqrt(0.25 / 1000))


def test_estimate_out_of_support_is_exact_zero():
    forest = _one_feature_forest(0.6)
    spec = _continuous_spec(0.2, seed=6)
    table = estimate_node_probabilities(forest, (0.2,), spec, E=0)
    assert table.right_prob(0, 0, 0) == 0.0


def test_estimate_effort_uniform_third():
    # P(U[0, 1.5 sigma] >= sigma) = 1/3
    forest = _one_feature_forest(0.5)
    spec = _continuous_spec(0.2, seed=7)
    table = estimate_node_probabilities(forest, (0.3,), spec, E=1)
    p = table.right_prob(0, 0, 1)
    assert p == pytest.approx(1 / 3, abs=3 * math.sqrt((1 / 3) * (2 / 3) / 1000))


def test_estimates_deterministic_given_seed():
    case = make_random_instance(3)
    spec = PerturbationSpec([FeaturePerturbation(sigma=0.2) for _ in case.forest.feature_metas],
                            seed=9)
    t1 = estimate_node_probabilities(case.forest, case.instance.x0, spec, E=1, individual=4)
    t2 = estimate_node_probabilities(case.forest, case.instance.x0, spec, E=1, individual=4)
    assert t1.probs == t2.probs


def test_estimates_equal_direct_recount():
    # one mean per node over the (seed, individual, feature, effort) stream's draws
    for seed in range(4):
        case = make_random_instance(seed)
        forest = case.forest
        metas = forest.feature_metas
        # immutable features stay put, on a threshold where they have one: all draws tie it
        spec = PerturbationSpec(
            [FeaturePerturbation(sigma=0.2) if m.mutable else FeaturePerturbation()
             for m in metas], seed=seed)
        x0 = list(case.instance.x0)
        for tree in forest.trees:
            for node in tree.nodes.values():
                if not metas[node.feature].mutable:
                    x0[node.feature] = node.threshold
        E = 2
        table = estimate_node_probabilities(forest, x0, spec, E=E, individual=7)
        expected = {}
        for t, tree in enumerate(forest.trees):
            for node in tree.nodes.values():
                j = node.feature
                row = []
                for e in range(E + 1):
                    stream_e = e if metas[j].mutable else 0
                    rng = np.random.default_rng(np.random.SeedSequence([seed, 7, j, stream_e]))
                    draws = _perturb_samples(x0[j], metas[j], spec, stream_e, rng,
                                             spec.num_samples)
                    row.append(float(np.mean(draws >= node.threshold)))
                expected[(t, node.id)] = tuple(row)
        assert table.probs == expected


def test_estimate_monotone_in_threshold():
    # common random numbers: larger threshold on the same feature, smaller estimate
    tree_nodes = [Node(0, 0, 0.3, 1, 2), Node(2, 0, 0.7, 3, 4)]
    tree = Tree(0, tree_nodes, [Leaf(1, 0), Leaf(3, 0), Leaf(4, 1)])
    forest = Forest([tree], [FeatureMeta(0, "c", mutable=True, beneficial="increase")])
    spec = _continuous_spec(0.3, seed=11)
    table = estimate_node_probabilities(forest, (0.45,), spec, E=1)
    for e in (0, 1):
        assert table.right_prob(0, 0, e) >= table.right_prob(0, 2, e)


def test_immutable_feature_rows_effort_invariant():
    meta = FeatureMeta(0, "age", mutable=False, beneficial="none")
    forest = Forest([Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 0), Leaf(2, 1)])], [meta])
    spec = PerturbationSpec([FeaturePerturbation(sigma=0.2)])
    table = estimate_node_probabilities(forest, (0.4,), spec, E=2)
    row = table.probs[(0, 0)]
    assert row[0] == row[1] == row[2]


def test_estimates_within_unit_interval():
    case = make_random_instance(5)
    spec = PerturbationSpec([FeaturePerturbation(sigma=0.25) for _ in case.forest.feature_metas],
                            seed=13)
    table = estimate_node_probabilities(case.forest, case.instance.x0, spec, E=2)
    for row in table.probs.values():
        assert all(0.0 <= p <= 1.0 for p in row)


def _exact_right_prob(x, threshold, meta, fp, e):
    """P(x' >= threshold) for one feature, from the change model as README states it."""
    moves, takes_effort = change_rule(meta, fp)
    if e > 0 and not takes_effort:
        e = 0   # such a feature reuses its no-effort row
    if not moves:
        return float(x >= threshold)
    if meta.kind == BINARY:   # thresholds lie in (0, 1), so the event is x' == 1
        if e == 0:
            flip = 1.0 - fp.p_majority
            return flip if x == 0.0 else 1.0 - flip
        beneficial = meta.beneficial_value
        reach = 1.0 if x == beneficial else max(1.0 - fp.p_majority, min(1.0, 0.2 * e))
        return reach if beneficial == 1.0 else 1.0 - reach

    # thresholds lie strictly inside the domain, so clipping never changes the event
    def up(width):     # P(x + U[0, width) >= threshold)
        return 1.0 if x >= threshold else max(0.0, 1.0 - (threshold - x) / width)

    def down(width):   # P(x - U[0, width) >= threshold)
        return 0.0 if x < threshold else min(1.0, (x - threshold) / width)

    if e == 0:
        return 0.5 * up(fp.sigma) + 0.5 * down(fp.sigma)
    width = (1.0 + 0.5 * e) * fp.sigma
    return up(width) if meta.beneficial == "increase" else down(width)


def test_estimates_match_closed_form_change_model():
    # desk configuration, every fourth training row; the bound was fixed before the first run
    ds = synth_generate(600, 8, seed=0)
    tr, _ = split(ds, 2 / 3, seed=0)
    forest = train(tr, TrainConfig(num_trees=9, max_depth=4, seed=0))
    spec = PerturbationSpec.from_dataset(tr, num_samples=1000, seed=0)
    n, E = spec.num_samples, 2
    exact_entries = interior_entries = 0
    for i in range(0, tr.num_rows, 4):
        x0 = tr.X[i]
        table = estimate_node_probabilities(forest, x0, spec, E=E, individual=i)
        for (t, node_id), row in table.probs.items():
            node = forest.trees[t].nodes[node_id]
            meta = forest.feature_metas[node.feature]
            for e, estimate in enumerate(row):
                p = _exact_right_prob(float(x0[node.feature]), node.threshold, meta,
                                      spec.features[node.feature], e)
                where = (i, t, node_id, e, p, estimate)
                if p in (0.0, 1.0):
                    assert estimate == p, where
                    exact_entries += 1
                else:
                    assert abs(estimate - p) <= 6 * math.sqrt(p * (1 - p) / n) + 1 / n, where
                    interior_entries += 1
    assert exact_entries and interior_entries


def test_negative_effort_level_count_rejected():
    # E = -1 gives rows with no effort level at all, which no solve can read
    with pytest.raises(TableFormatError, match="E must be nonnegative"):
        NodeProbabilityTable(0, -1, {})
    with pytest.raises(TableFormatError, match="E must be nonnegative"):
        NodeProbabilityTable.from_dict({"individual": 0, "E": -1, "entries": []})
    forest = firefighter_forest()
    spec = PerturbationSpec([FeaturePerturbation(sigma=0.2)] * 2)
    with pytest.raises(TableFormatError, match="E must be nonnegative"):
        estimate_node_probabilities(forest, (0.5, 0.5), spec, E=-1)


# --- table round trip -----------------------------------------------------------


def test_table_round_trip(tmp_path):
    table = firefighter_table()
    path = tmp_path / "t.json"
    save_table(table, path)
    again = load_table(path, firefighter_forest())
    assert again.probs == table.probs
    assert (again.individual, again.E) == (table.individual, table.E)


def _firefighter_table_with(*entries):
    """The firefighter table's JSON text with ``entries`` added."""
    doc = firefighter_table().to_dict()
    doc["entries"] += [{"tree": t, "node": node, "right": right} for t, node, right in entries]
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    ('{"E": 1', "not valid JSON at line 1"),
    ('{"individual": 0, "entries": []}', "missing or bad field 'E'"),
    ('{"individual": 0, "E": 1, "entries": [{"tree": 0, "node": 1}]}',
     "missing or bad field 'right'"),
    ('"table"', "missing or bad field"),
    (_firefighter_table_with((0, 9, [0.5, 0.5])), "table has entries for unknown nodes [(0, 9)]"),
    # the firefighter table itself: effort moves the probabilities of nodes 1 and 2, on A
    (_firefighter_table_with(), "tree 0 node 1: effort changes an immutable feature's probabilities"),
    (_firefighter_table_with((0, 1, [0.5, 0.5])), "duplicate (tree, node) entry"),
    # each of these once loaded: as (0.4, 0.5), (0.4, 1.0), row 0's table, E = 1 and node 0
    ('{"individual": 0, "E": 1, "entries": [{"tree": 0, "node": 0, "right": ["0.4", 0.5]}]}',
     "tree 0 node 0: right must be a list of numbers, got ['0.4', 0.5]"),
    ('{"individual": 0, "E": 1, "entries": [{"tree": 0, "node": 0, "right": [0.4, true]}]}',
     "tree 0 node 0: right must be a list of numbers, got [0.4, True]"),
    ('{"individual": false, "E": 1, "entries": []}', "individual must be an integer, got False"),
    ('{"individual": 0, "E": true, "entries": []}', "E must be an integer, got True"),
    ('{"individual": 0, "E": 1, "entries": [{"tree": 0, "node": false, "right": [0.4, 0.5]}]}',
     "tree 0 node False: node must be an integer, got False"),
    ('{"individual": 0, "E": 1, "entries": [{"tree": 0, "node": 0, "right": 0.4}]}',
     "tree 0 node 0: right must be a list of numbers, got 0.4"),
], ids=["not JSON", "no E", "entry without right", "not an object", "unknown node",
        "immutable feature moved", "duplicate entry", "probability string", "probability true",
        "individual false", "E true", "node false", "right a number"])
def test_load_table_names_the_file_it_rejects(tmp_path, text, message):
    path = tmp_path / "t.json"
    path.write_text(text)
    with pytest.raises(TableFormatError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_table(path, with_a_fixed(firefighter_forest()))


def test_table_holds_integer_probabilities_as_floats():
    doc = firefighter_table().to_dict()
    doc["entries"][0]["right"] = [0, 1]
    row = NodeProbabilityTable.from_dict(doc, firefighter_forest()).probs[(0, 0)]
    assert row == (0.0, 1.0) and all(type(p) is float for p in row)


def test_table_missing_node_rejected():
    table = firefighter_table()
    broken = NodeProbabilityTable(0, 1, {k: v for k, v in table.probs.items() if k != (0, 2)})
    with pytest.raises(TableFormatError):
        broken.validate_against(firefighter_forest())


def _forest_with_one_more_node():
    """The firefighter forest with its leaf 3 split once more, into leaves 7 and 8: a
    table of the firefighter forest misses that node."""
    forest = firefighter_forest()
    tree = forest.trees[0]
    grown = Tree(tree.root, list(tree.nodes.values()) + [Node(3, 0, 0.3, 7, 8)],
                 [leaf for leaf in tree.leaves.values() if leaf.id != 3]
                 + [Leaf(7, 0), Leaf(8, 0)])
    return Forest([grown], forest.feature_metas)


def test_a_table_validates_once_per_forest():
    table, forest = firefighter_table(), firefighter_forest()
    table.validate_against(forest)
    table.probs.clear()   # tables are immutable: this shows the check is not repeated
    table.validate_against(forest)
    with pytest.raises(TableFormatError, match="missing"):
        table.validate_against(firefighter_forest())   # another forest is checked anew


def test_a_mismatched_table_is_rejected_every_time():
    table = firefighter_table()
    for _ in range(2):   # a failed check is not remembered as a pass
        with pytest.raises(TableFormatError, match="missing"):
            table.validate_against(_forest_with_one_more_node())


def test_a_validated_table_is_still_rejected_by_a_mismatched_forest():
    table, forest = firefighter_table(), firefighter_forest()
    table.validate_against(forest)
    grown = _forest_with_one_more_node()
    with pytest.raises(TableFormatError, match="missing"):
        table.validate_against(grown)
    instance = ProblemInstance(x0=(0.5, 0.5), target_class=1, eta=1, E=1)
    assert solve(forest, instance, table).found
    with pytest.raises(TableFormatError, match="missing"):
        solve(grown, instance, table)
    table.validate_against(forest)


def test_pickled_table_forgets_its_forests():
    table, forest = firefighter_table(), firefighter_forest()
    table.validate_against(forest)
    again = pickle.loads(pickle.dumps(table))   # as from a worker process
    assert again == table and len(again._valid_for) == 0
    again.validate_against(forest)


@pytest.mark.parametrize("row, message", [
    ((0.4,), "expected 2 effort levels"),
    ((0.4, 0.5, 0.6), "expected 2 effort levels"),
    ((0.4, 1.5), "outside"),
    ((-0.1, 0.5), "outside"),
    ((0.4, float("nan")), "outside"),
])
def test_bad_table_row_rejected_when_built(row, message):
    probs = {**firefighter_table().probs, (0, 1): row}
    with pytest.raises(TableFormatError, match=f"tree 0 node 1: .*{message}"):
        NodeProbabilityTable(0, 1, probs)


def test_table_out_of_range_probability_rejected(tmp_path):
    table = firefighter_table()
    path = tmp_path / "t.json"
    save_table(table, path)
    doc = path.read_text().replace("0.4", "1.2")
    path.write_text(doc)
    with pytest.raises(TableFormatError):
        load_table(path)
