"""The path search's vectorised scoring is bit-for-bit the scalar definitions.

``_path_products`` evaluates target leaves' path probabilities, one row per (leaf,
effort levels along its path), with one numpy gather and one product per path step,
through a scoring plan's ``step`` index. ``Forest.scoring_plan`` groups the allocations
per tree by the effort at the features on the tree's target paths (pairs) and the
pairs' target leaves by the effort along each leaf's own path (leaf signatures); the
path search computes each leaf signature's product once, values every pair from them by
one batch rule (``_tree_values``, through ``_score_pairs``) and bounds every allocation
in numpy (``_bounds``). These tests compare each value with ``==`` (no tolerance) against
``path_probability``, the one-tree-at-a-time reference ``reference_tree_value`` and
``_add_up``, allocation by allocation.
"""
import hashlib
import itertools
import json
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
from treeshift.solver import (_add_up, _bounds, _consecutive_slots, _log, _path_products,
                              _resolve_kappa, _score_pairs, _tree_values)

from helpers import (assert_matches_oracle, ladder_rung, make_random_instance,
                     reference_steps, reference_tree_value, trace_paths)


def _products(table, paths, E):
    """The path probabilities of leaf rows ``leaf`` of ``paths`` at effort levels ``level``
    by ``_path_products``, through the steps a scoring plan at this E would hold."""
    return lambda leaf, level: _path_products(table, paths, E,
                                              reference_steps(paths, leaf, level, E))


def _assert_exact(forest, table, target_class, E, eta):
    paths = forest.target_paths(target_class)
    leaves = paths.leaves
    assert leaves == tuple(tuple(sorted(leaf_id for leaf_id, leaf in tree.leaves.items()
                                        if leaf.predicted_class == target_class))
                           for tree in forest.trees)
    probs = _products(table, paths, E)
    mask = [m.mutable for m in forest.feature_metas]
    efforts = list(enumerate_effort_allocations(forest.num_features, E, eta, mask))
    assert efforts
    rows = np.arange(len(paths.node))
    every_row = []
    for effort in efforts:
        got = probs(rows, np.array(effort)[paths.feature]).tolist()
        want = [path_probability(forest, t, leaf_id, table, effort)
                for t, ids in enumerate(leaves) for leaf_id in ids]
        assert got == want, f"effort {effort}"
        assert all(type(p) is float for p in got)
        every_row.append(want)
    # every (leaf, effort) row in one gather, the leaves in reverse order per effort
    got = probs(np.concatenate([rows[::-1]] * len(efforts)),
                np.concatenate([np.array(effort)[paths.feature][::-1] for effort in efforts]))
    assert got.tolist() == [p for want in every_row for p in want[::-1]]


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
    paths = no_class_1.target_paths(1)
    assert paths.node.shape == (0, 1)
    probs = _products(table, paths, 1)
    assert probs(np.arange(0), np.zeros((0, 1), dtype=np.int8)).tolist() == []
    plan = no_class_1.scoring_plan(1, 1, 1)
    assert plan.step.shape == (1, 0) and (plan.slot == -1).all()
    for objective in (MAX_PATH, MIN_PATH, KAPPA_PATH):
        scores = _score_pairs(no_class_1, paths.leaves, _path_products(table, paths, 1, plan.step),
                              plan.slot, plan.tree, SolverConfig(objective=objective),
                              lambda: None)
        value, eligible, log = (array.tolist() for array in scores)
        assert not any(eligible) and set(value) == {0.0} and set(log) == {-math.inf}


@pytest.mark.parametrize("E", [0, 1])
@pytest.mark.parametrize("target_class", [0, 1])
def test_plan_products_read_a_table_that_covers_more_levels(E, target_class):
    # the table covers levels 0..2, the plan 0..E: the plan's steps read the table's rows
    # cut to E + 1 levels, whatever width the table has
    forest, table = _edge_forest()
    assert table.E == 2
    paths = forest.target_paths(target_class)
    plan = forest.scoring_plan(target_class, E, 2)
    prob = _path_products(table, paths, E, plan.step).tolist()
    seen = set()
    for a, effort in enumerate(plan.allocations):
        for t, ids in enumerate(paths.leaves):
            slots = plan.slot[plan.pair[a, t], :len(ids)].tolist()
            want = [path_probability(forest, t, leaf_id, table, effort) for leaf_id in ids]
            assert [prob[s] for s in slots] == want, (effort, t)
            seen.update(slots)
    assert seen == set(range(plan.step.shape[1]))   # every leaf signature's product


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


def _assert_plan_groups(forest, plan, target_class, E):
    """Two allocations share a tree's pair iff they agree at the features on the tree's
    paths to target leaves; pairs are numbered tree by tree. The k-th target leaf of a
    pair is a leaf signature (its row in the target paths, the effort levels along its
    path), each signature once, whose steps are ``reference_steps``'."""
    paths = forest.target_paths(target_class)
    depth = paths.node.shape[1]
    traced = [trace_paths(tree) for tree in forest.trees]
    signatures = {}
    for a, effort in enumerate(plan.allocations):
        row = 0
        for t, ids in enumerate(paths.leaves):
            slot = plan.slot[plan.pair[a, t]].tolist()
            assert all(s == -1 for s in slot[len(ids):])
            for k, leaf_id in enumerate(ids):
                path = traced[t][leaf_id]
                levels = [effort[forest.trees[t].nodes[node_id].feature] for node_id, _ in path]
                key = (row + k, tuple(levels + [0] * (depth - len(path))))
                assert signatures.setdefault(key, slot[k]) == slot[k]
            row += len(ids)
    assert sorted(signatures.values()) == list(range(plan.step.shape[1]))   # each one, once
    for (leaf, levels), s in signatures.items():
        assert (plan.step[:, s] == reference_steps(paths, [leaf], [levels], E)[:, 0]).all()
    assert plan.tree.tolist() == sorted(plan.tree.tolist())
    for t, tree in enumerate(forest.trees):
        features = sorted({tree.nodes[node_id].feature
                           for leaf_id, leaf in tree.leaves.items()
                           if leaf.predicted_class == target_class
                           for node_id, _ in traced[t][leaf_id]})
        groups = {}
        for effort, p in zip(plan.allocations, plan.pair[:, t].tolist()):
            assert plan.tree[p] == t
            signature = tuple(effort[j] for j in features)
            assert groups.setdefault(p, signature) == signature
        assert len(set(groups.values())) == len(groups)   # one pair per signature


def _assert_scores_exact(forest, table, config, target_class, E, eta):
    plan = forest.scoring_plan(target_class, E, eta)
    mask = [meta.mutable for meta in forest.feature_metas]
    assert plan.allocations == tuple(enumerate_effort_allocations(forest.num_features, E,
                                                                  eta, mask))
    _assert_plan_groups(forest, plan, target_class, E)
    m = majority_threshold(forest.num_trees)
    target = forest.target_paths(target_class).leaves
    prob = _path_products(table, forest.target_paths(target_class), E, plan.step)
    want_values, want_bounds = [], []
    for a, effort in enumerate(plan.allocations):
        row, values = [], []
        for t, tree in enumerate(forest.trees):
            probs = [path_probability(forest, t, leaf_id, table, effort) for leaf_id in target[t]]
            assert prob[plan.slot[plan.pair[a, t], :len(probs)]].tolist() == probs
            value, eligible = reference_tree_value(probs, len(tree.leaves),
                                                   _resolve_kappa(config, len(tree.leaves)),
                                                   config)
            # a tree without target leaves has value 0.0 in the batch rule
            row.append((0.0 if value is None else value, eligible,
                        _log(value) if eligible else -math.inf))
            if eligible:
                values.append(value)
        want_values.append(row)
        if len(values) >= m:
            best = sorted(values, reverse=True)[:m]
            want_bounds.append((_add_up(0.0, map(_log, best)), a))
    want_bounds.sort(key=lambda s: (-s[0], s[1]))
    indices = np.arange(len(plan.allocations))
    # a pair's scores do not depend on its block (one pair, two, the default, one block
    # for all the pairs) or on whether logs are taken per distinct value or per pair
    for block, few in itertools.product((1, 2, solver._SCORE_BLOCK, len(plan.tree) + 1),
                                        (0, len(plan.tree))):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_SCORE_BLOCK", block)
            patch.setattr(solver, "_FEW_PAIRS", few)
            scores = _score_pairs(forest, target, prob, plan.slot, plan.tree, config,
                                  lambda: None)
        value, eligible, log = (array.tolist() for array in scores)
        for a, row in enumerate(want_values):
            got = [(value[p], eligible[p], log[p]) for p in plan.pair[a].tolist()]
            assert got == row, f"{config.objective} allocation {plan.allocations[a]}"
        assert _bounds(plan.pair, indices, scores, m) == want_bounds


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


# --- pinned solves and the batch rule ---------------------------------------------------

# sha256 over the 198 pinned documents below (without wall_time), as the pinned solve gave
# them when it scored through the forest's scoring plan
PINNED_DIGEST = "cd0560ad1a81ea882092a26c14c3bb4b0a0aae2fc1d87616a35e924cd9f61afb"


def test_pinned_solves_keep_their_digest():
    # every allocation at eta 2, E 1, of the first three off-target rows of the seed-0 desk
    # forest, each pinned on a freshly loaded copy of the forest
    tr, _ = split(synth_generate(600, 8, seed=0), 2 / 3, seed=0)
    forest = train(tr, TrainConfig(num_trees=9, max_depth=4, seed=0))
    spec = PerturbationSpec.from_dataset(tr, num_samples=1000, seed=0)
    rows = [i for i in range(tr.num_rows) if forest.predict(tr.X[i])[0] != 0][:3]
    configs = [SolverConfig(objective=MAX_PATH), SolverConfig(objective=MIN_PATH),
               SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5, mu=1e-6)]
    mask = [m.mutable for m in forest.feature_metas]
    digest, count = hashlib.sha256(), 0
    for row in rows:
        table = estimate_node_probabilities(forest, tr.X[row], spec, E=1, individual=row)
        instance = ProblemInstance(x0=tuple(tr.X[row]), target_class=0, eta=2, E=1)
        for effort in enumerate_effort_allocations(forest.num_features, 1, 2, mask):
            for config in configs:
                fresh = forest_from_dict(forest_to_dict(forest))
                doc = evaluate_allocation(fresh, instance, table, config, effort).to_dict()
                del doc["wall_time"]
                digest.update(json.dumps(doc, sort_keys=True).encode())
                count += 1
    assert count == 198
    assert digest.hexdigest() == PINNED_DIGEST


def _random_tree_rows(rng, n_rows):
    """(target probabilities, leaf count) of random trees: ties, empty rows, single-leaf
    trees and many small values."""
    rows = []
    for _ in range(n_rows):
        n = int(rng.integers(0, 9))
        kind = int(rng.integers(3))
        if kind == 0:
            probs = rng.choice([0.0, 0.125, 0.25, 0.5, 1.0], n)   # ties
        elif kind == 1:
            probs = np.round(rng.random(n), 1)
        else:
            probs = rng.random(n) ** int(rng.integers(1, 8))
        rows.append((probs.tolist(), n + int(rng.integers(0 if n else 1, 4))))
    return rows + [([], 1), ([0.3], 1), ([1.0], 1), ([0.0], 1)]


def _rows_near_mu(rng, mu, n_rows):
    """Rows whose kappa-1 smallest probabilities sum to within an ulp or two of mu, either
    side, and their kappa."""
    rows = []
    for _ in range(n_rows):
        j = int(rng.integers(1, 10))
        below = rng.uniform(0.0, mu / j, j - 1).tolist()
        below.append(mu - math.fsum(below) + int(rng.integers(-1, 2)) * math.ulp(mu))
        probs = below + rng.uniform(0.9, 1.0, int(rng.integers(1, 4))).tolist()
        rng.shuffle(probs)
        rows.append((probs, len(probs) + int(rng.integers(0, 3)), j + 1))
    return rows


def _assert_batch_is_reference(rows, config):
    """_tree_values on (probabilities, leaf count, kappa) rows, all in one block, equals
    reference_tree_value row by row."""
    prob = np.array([p for probs, _, _ in rows for p in probs], dtype=float)
    counts = np.array([len(probs) for probs, _, _ in rows], dtype=np.intp)
    value, eligible = _tree_values(prob, _consecutive_slots(counts), counts,
                                   np.array([n for _, n, _ in rows]),
                                   np.array([kappa for _, _, kappa in rows]), config)
    for (probs, n_leaves, kappa), v, ok in zip(rows, value.tolist(), eligible.tolist()):
        got = (v if probs else None, ok)
        assert got == reference_tree_value(probs, n_leaves, kappa, config), (probs, n_leaves,
                                                                              kappa, config)


def test_batch_rule_is_the_reference_on_random_trees():
    rng = np.random.default_rng(2024)
    configs = [SolverConfig(objective=MIN_PATH), SolverConfig(objective=MAX_PATH)]
    configs += [SolverConfig(objective=KAPPA_PATH, mu=mu, positive_leaves_only=only)
                for only in (False, True) for mu in (0.0, 1e-6, 0.2, 0.7)]
    checked = 0
    for config in configs:
        # kappa up to three past the leaf count
        rows = [(probs, n, int(rng.integers(1, n + 4)))
                for probs, n in _random_tree_rows(rng, 200)]
        _assert_batch_is_reference(rows, config)
        checked += len(rows)
    assert checked >= 2000


@pytest.mark.parametrize("positive_leaves_only", [False, True])
def test_near_mu_rows_with_different_kappas_score_alike_in_any_block(positive_leaves_only):
    # trees with 1 to 9 entries below the kappa-th, whose sum lies within an ulp or two of
    # mu, valued through _score_pairs: kappa = ceil(0.5 * leaf count) runs from 2 to 10,
    # so each block mixes kappa columns
    rng = np.random.default_rng(11)
    mu = 0.3
    rows = _rows_near_mu(rng, mu, 120)
    assert len({kappa for _, _, kappa in rows}) > 5
    forest = SimpleNamespace(trees=[SimpleNamespace(leaves=range(2 * kappa))
                                    for _, _, kappa in rows])
    config = SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5, mu=mu,
                          positive_leaves_only=positive_leaves_only)
    want = [reference_tree_value(probs, 2 * kappa, kappa, config) for probs, _, kappa in rows]
    assert {ok for _, ok in want} == {False, True}
    prob = np.array([p for probs, _, _ in rows for p in probs], dtype=float)
    slot = _consecutive_slots([len(probs) for probs, _, _ in rows])
    for block in (1, 2, 7, len(rows) + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_SCORE_BLOCK", block)
            scores = _score_pairs(forest, [range(len(probs)) for probs, _, _ in rows], prob,
                                  slot, np.arange(len(rows)), config, lambda: None)
        value, eligible, log = (array.tolist() for array in scores)
        assert list(zip(value, eligible)) == want
        assert log == [_log(v) if ok else -math.inf for v, ok in want]


@pytest.mark.parametrize("objective", [MAX_PATH, KAPPA_PATH])
def test_a_time_limit_that_expires_while_scoring_returns_timeout(monkeypatch, objective):
    # the 25-tree ladder rung scores 3,824 pairs, four blocks of 1,024; the clock passes
    # the limit while the first block is valued, and is read before the next
    forest, table, instance = ladder_rung(25, 5)
    assert len(forest.scoring_plan(0, 1, 4).tree) == 3824
    monkeypatch.setattr(solver, "_SCORE_BLOCK", 1024)
    now = [0.0]
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: now[0]))
    blocks = []

    def tree_values(prob, slot, *rest):
        blocks.append(len(slot))
        now[0] = 2.0
        return _tree_values(prob, slot, *rest)

    monkeypatch.setattr(solver, "_tree_values", tree_values)
    sol = solve(forest, instance, table, SolverConfig(objective=objective, time_limit=1.0))
    assert sol.status == "timeout" and not sol.found and sol.nodes_explored == 0
    assert blocks == [1024]


@pytest.mark.parametrize("objective", [MAX_PATH, MIN_PATH])
def test_column_reduction_is_the_row_reduction(objective):
    # rows of padding alone, of one leaf, of 0.0 products and of ties, against numpy's
    # row max/min over the same padded matrix
    rng = np.random.default_rng(5)
    rows = [[], [0.0], [0.3], [1.0], [0.0, 0.0], [0.0, 0.25], [0.25, 0.0, 0.25], [],
            [0.0] * 7, [1.0, 0.0, 1.0]]
    rows += [rng.choice([0.0, 0.5, 1.0, 1e-300], int(rng.integers(0, 9))).tolist()
             for _ in range(200)]
    prob = np.array([p for probs in rows for p in probs], dtype=float)
    counts = np.array([len(probs) for probs in rows])
    slot = _consecutive_slots(counts)
    value, eligible = _tree_values(prob, slot, counts, counts + 1, counts + 1,
                                   SolverConfig(objective=objective))
    least = objective == MIN_PATH
    padded = np.append(prob, math.inf if least else -math.inf)[slot]
    want = np.where(slot[:, 0] >= 0, padded.min(axis=1) if least else padded.max(axis=1), 0.0)
    assert value.tobytes() == want.tobytes()
    assert eligible.tolist() == [bool(probs) for probs in rows]
    assert value.tolist() == [(min if least else max)(probs, default=0.0) for probs in rows]


def test_batch_rule_decides_mu_as_fsum_does():
    # rows whose float64 cumsum lands within an ulp or two of mu: where the cumsum and the
    # exact sum disagree about mu, only the fsum fallback gives the reference's answer
    rng = np.random.default_rng(7)
    disagree = 0
    for mu in rng.uniform(0.05, 0.85, 4).tolist():
        rows = _rows_near_mu(rng, mu, 150)
        for only in (False, True):
            _assert_batch_is_reference(
                rows, SolverConfig(objective=KAPPA_PATH, mu=mu, positive_leaves_only=only))
        for probs, _, kappa in rows:
            total = 0.0
            for p in sorted(probs)[:kappa - 1]:
                total += p   # the cumsum's order
            disagree += (total >= mu) != (math.fsum(sorted(probs)[:kappa - 1]) >= mu)
    assert disagree >= 10
