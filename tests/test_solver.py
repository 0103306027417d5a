import math
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from treeshift import (KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH, FeatureMeta,
                       Forest, Leaf, Node, NodeProbabilityTable, ProblemInstance,
                       SolverConfig, Tree, boxes_intersect,
                       choose_point, enumerate_effort_allocations, evaluate_allocation,
                       objectives_close, path_probability, solve, solve_kappa_path,
                       solve_max_path, solve_min_distance, solve_min_path, verify_solution)
from treeshift.fixtures import LEAF_NO_RIGHT, LEAF_YES_LEFT, LEAF_YES_RIGHT
from treeshift.solver import (_MEASURES, _UPPER_BOUNDS, STEP, _add_up, _consecutive_slots,
                              _distance, _leaf_residuals, _resolve_kappa, _sure_below,
                              _swapped_at_most, _tree_values, majority_threshold)

from helpers import (assert_matches_oracle, brute_force_oracle, make_random_instance,
                     reference_tree_value, with_a_fixed)

TOL = 1e-9


def _cfg(objective, **kw):
    return SolverConfig(objective=objective, **kw)


# --- ProblemInstance and SolverConfig validation ---------------------------------------


@pytest.mark.parametrize("epsilon", [0.0, -1e-6, math.nan, math.inf])
def test_instance_rejects_epsilon_that_is_not_finite_and_positive(epsilon):
    # a NaN epsilon would drop every left-branch bound from the leaf boxes
    with pytest.raises(ValueError, match="epsilon"):
        ProblemInstance(x0=(0.5, 0.5), target_class=1, eta=1, E=1, epsilon=epsilon)


@pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
def test_config_rejects_kappa_fraction_outside_unit_interval(fraction):
    with pytest.raises(ValueError):
        _cfg(KAPPA_PATH, kappa_fraction=fraction)


@pytest.mark.parametrize("kappa", [1.5, 2.0, "2"])
def test_config_rejects_kappa_that_is_not_an_integer(kappa):
    # 1.5 used to be accepted and end in a TypeError inside the per-tree value rule
    with pytest.raises(ValueError, match="kappa"):
        _cfg(KAPPA_PATH, kappa=kappa)


@pytest.mark.parametrize("field", ["eta", "E"])
@pytest.mark.parametrize("value", [1.5, 1.0])
def test_instance_rejects_counts_that_are_not_integers(field, value):
    # used to be accepted and end in a TypeError inside the allocation enumeration
    counts = {"eta": 1, "E": 1, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ProblemInstance(x0=(0.5, 0.5), target_class=1, **counts)


def test_numpy_integer_counts_are_accepted(firefighter, firefighter_instance):
    forest, table = firefighter
    instance = ProblemInstance(x0=(0.5, 0.5), target_class=1, eta=np.int64(1), E=np.int32(1))
    config = _cfg(KAPPA_PATH, kappa=np.int64(2))
    assert (solve(forest, instance, table, config).to_dict() | {"wall_time": 0.0}
            == solve(forest, firefighter_instance, table, _cfg(KAPPA_PATH, kappa=2)).to_dict()
            | {"wall_time": 0.0})


def test_config_accepts_kappa_fraction_one():
    assert _cfg(KAPPA_PATH, kappa_fraction=1.0).kappa_fraction == 1.0


@pytest.mark.parametrize("weights", [(-1.0, 1.0), (1.0, float("inf")), (float("nan"), 1.0)])
def test_config_rejects_bad_distance_weights(weights):
    with pytest.raises(ValueError):
        _cfg(MIN_DISTANCE, distance_weights=weights)


@pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0])
def test_config_rejects_time_limit_that_is_not_positive(limit):
    with pytest.raises(ValueError, match="time_limit"):
        _cfg(MAX_PATH, time_limit=limit)


@pytest.mark.parametrize("limit", [math.nan, -1.0])
def test_solve_rejects_nan_and_negative_time_limit(firefighter, firefighter_instance, limit):
    # NaN never compares greater, so it used to run unlimited; -1 used to time out at once
    forest, table = firefighter
    with pytest.raises(ValueError, match="time_limit"):
        solve(forest, firefighter_instance, table, _cfg(MAX_PATH, time_limit=limit))


def test_infinite_time_limit_is_no_limit(firefighter, firefighter_instance):
    forest, table = firefighter
    unlimited = solve(forest, firefighter_instance, table, _cfg(MAX_PATH))
    sol = solve(forest, firefighter_instance, table, _cfg(MAX_PATH, time_limit=math.inf))
    assert sol.status == "optimal"
    assert sol.to_dict() | {"wall_time": 0.0} == unlimited.to_dict() | {"wall_time": 0.0}


def test_zero_distance_weight_is_accepted(firefighter):
    # a zero weight makes moving that feature free; the distance stays nonnegative
    forest, _ = firefighter
    instance = ProblemInstance(x0=(0.65, 0.5), target_class=1, eta=0, E=0)
    config = _cfg(MIN_DISTANCE, distance_weights=(1.0, 0.0))
    sol = solve_min_distance(forest, instance, config)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0, abs=TOL)
    assert sol.x == pytest.approx((0.65, 0.8), abs=TOL)
    assert verify_solution(forest, instance, None, sol, config).passed


# --- enumerate_effort_allocations ------------------------------------------------


def test_allocations_three_features_budget_two():
    allocs = list(enumerate_effort_allocations(3, 1, 2))
    assert len(allocs) == 7
    assert set(allocs) == {
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    }


def test_allocations_per_feature_cap():
    allocs = list(enumerate_effort_allocations(2, 2, 2))
    assert set(allocs) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}
    assert allocs == sorted(allocs)  # lexicographic emission


def test_allocations_respect_immutables():
    allocs = list(enumerate_effort_allocations(2, 2, 2, mutable_mask=[True, False]))
    assert allocs == [(0, 0), (1, 0), (2, 0)]


# --- path_probability -------------------------------------------------------------


def test_path_probability_effort_on_aerobic(firefighter):
    forest, table = firefighter
    p = path_probability(forest, 0, LEAF_YES_LEFT, table, (0, 1))
    assert p == pytest.approx((1 - 0.4) * 0.6, abs=TOL)


def test_path_probability_effort_on_strength(firefighter):
    forest, table = firefighter
    p = path_probability(forest, 0, LEAF_YES_LEFT, table, (1, 0))
    assert p == pytest.approx((1 - 0.5) * 0.3, abs=TOL)


def test_path_probabilities_sum_to_one(firefighter):
    forest, table = firefighter
    for effort in enumerate_effort_allocations(2, 1, 2):
        total = sum(path_probability(forest, 0, l, table, effort)
                    for l in forest.trees[0].leaves)
        assert total == pytest.approx(1.0, abs=TOL)


# --- per-tree value rule ---------------------------------------------------------------


def _target_probs(forest, t, table, effort, target_class=1):
    return {leaf_id: path_probability(forest, t, leaf_id, table, effort)
            for leaf_id, leaf in forest.trees[t].leaves.items()
            if leaf.predicted_class == target_class}


def _batch_tree_value(probs, n_leaves, kappa, config):
    """One tree's (value, eligible) by the solver's batch rule, held to the reference;
    a tree without target leaves is (None, False) in the reference's terms."""
    probs = list(probs)
    values, eligible = _tree_values(np.array(probs, dtype=float),
                                    _consecutive_slots([len(probs)]), np.array([len(probs)]),
                                    np.array([n_leaves]), np.array([kappa]), config)
    got = (values.tolist()[0] if probs else None, eligible.tolist()[0])
    assert got == reference_tree_value(probs, n_leaves, kappa, config)
    return got


def test_profile_min_path_effort_a(firefighter):
    forest, table = firefighter
    probs = _target_probs(forest, 0, table, (0, 1))
    assert probs == {LEAF_YES_LEFT: pytest.approx(0.36, abs=TOL),
                     LEAF_YES_RIGHT: pytest.approx(0.32, abs=TOL)}
    value, eligible = _batch_tree_value(probs.values(), 4, 1, _cfg(MIN_PATH))
    assert value == pytest.approx(0.32, abs=TOL) and eligible


def test_profile_kappa_two_order_statistic(firefighter):
    # the theta vector is the target probabilities then a 1.0 cap per other leaf
    forest, table = firefighter
    probs = _target_probs(forest, 0, table, (0, 1)).values()
    theta = [_batch_tree_value(probs, 4, k, _cfg(KAPPA_PATH, kappa=k, mu=0.0))[0]
             for k in range(1, 5)]
    assert theta == pytest.approx([0.32, 0.36, 1.0, 1.0], abs=TOL)


def test_profile_never_positive_tree():
    tree = Tree(0, [], [Leaf(0, 0)])
    forest = Forest([tree], [FeatureMeta(0, "x", mutable=True, beneficial="increase")])
    table = NodeProbabilityTable(0, 1, {})
    probs = _target_probs(forest, 0, table, (0,))
    assert probs == {}
    assert _batch_tree_value(probs.values(), 1, 1, _cfg(MIN_PATH)) == (None, False)


# --- firefighter golden solves -------------------------------------------------------


def test_max_path_golden(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_max_path(forest, firefighter_instance, table)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.36, abs=TOL)
    assert sol.effort == (0, 1)
    assert sol.chosen_leaves[0] == LEAF_YES_LEFT
    assert sol.essential_trees == (0,)


def test_max_path_effort_s_alternative(firefighter, firefighter_instance):
    forest, table = firefighter
    alt = evaluate_allocation(forest, firefighter_instance, table, _cfg(MAX_PATH), (1, 0))
    assert alt.objective == pytest.approx(0.2, abs=TOL)


@pytest.mark.parametrize("effort", [(1, 1), (1,), (1, 0, 0), (2, 0), (-1, 0)])
def test_pinned_effort_must_be_an_allocation(firefighter, firefighter_instance, effort):
    forest, table = firefighter   # eta=1, E=1
    with pytest.raises(ValueError, match="not an allocation"):
        evaluate_allocation(forest, firefighter_instance, table, _cfg(MAX_PATH), effort)


def test_pinned_effort_is_reported_as_the_allocation(firefighter, firefighter_instance):
    forest, table = firefighter
    alt = evaluate_allocation(forest, firefighter_instance, table, _cfg(MAX_PATH), [1.0, 0])
    assert alt.effort == (1, 0) and all(type(e) is int for e in alt.effort)
    assert alt.objective == pytest.approx(0.2, abs=TOL)


def test_pinned_effort_on_immutable_feature_rejected(firefighter, firefighter_instance):
    forest, table = firefighter
    metas = [FeatureMeta(0, "S", mutable=False), forest.feature_metas[1]]
    frozen_s = Forest(forest.trees, metas)
    frozen_table = NodeProbabilityTable(0, 1, {**table.probs, (0, 0): (0.4, 0.4)})
    cfg = _cfg(MAX_PATH)
    assert evaluate_allocation(frozen_s, firefighter_instance, frozen_table, cfg, (0, 1)).found
    with pytest.raises(ValueError, match="not an allocation"):
        evaluate_allocation(frozen_s, firefighter_instance, frozen_table, cfg, (1, 0))


def test_min_path_golden(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_min_path(forest, firefighter_instance, table)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.32, abs=TOL)
    assert sol.effort == (0, 1)


def test_min_path_effort_s_alternative(firefighter, firefighter_instance):
    forest, table = firefighter
    alt = evaluate_allocation(forest, firefighter_instance, table, _cfg(MIN_PATH), (1, 0))
    assert alt.objective == pytest.approx(0.15, abs=TOL)


def test_kappa_one_equals_min_path(firefighter, firefighter_instance):
    forest, table = firefighter
    mn = solve_min_path(forest, firefighter_instance, table)
    kp = solve_kappa_path(forest, firefighter_instance, table, _cfg(KAPPA_PATH, kappa=1, mu=0.0))
    assert kp.objective == mn.objective
    assert kp.effort == mn.effort
    assert kp.essential_trees == mn.essential_trees


def test_kappa_two_golden(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_kappa_path(forest, firefighter_instance, table, _cfg(KAPPA_PATH, kappa=2, mu=0.0))
    assert sol.objective == pytest.approx(0.36, abs=TOL)
    assert sol.effort == (0, 1)


@pytest.mark.parametrize("positive_leaves_only, objective, effort", [
    (False, 1.0, (0, 0)),    # theta at (0, 0) is (0.16, 0.18, 1.0, 1.0): the third is a cap
    (True, 0.36, (0, 1)),    # kappa is capped at the two target leaves: (0.32, 0.36) at (0, 1)
])
def test_kappa_three_counts_the_capped_leaves(firefighter, firefighter_instance,
                                              positive_leaves_only, objective, effort):
    forest, table = firefighter
    config = _cfg(KAPPA_PATH, kappa=3, mu=0.0, positive_leaves_only=positive_leaves_only)
    sol = solve_kappa_path(forest, firefighter_instance, table, config)
    assert sol.objective == pytest.approx(objective, abs=TOL)
    assert sol.effort == effort
    assert verify_solution(forest, firefighter_instance, table, sol, config).passed


def test_kappa_two_mu_half_infeasible(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_kappa_path(forest, firefighter_instance, table, _cfg(KAPPA_PATH, kappa=2, mu=0.5))
    assert sol.status == "infeasible"


def test_eta_zero_already_target(firefighter):
    # x0 sits in the left YES leaf; without effort the best combination is its own
    forest, table = firefighter
    instance = ProblemInstance(x0=(0.5, 0.9), target_class=1, eta=0, E=1)
    sol = solve_max_path(forest, instance, table)
    assert sol.status == "optimal"
    assert sol.effort == (0, 0)
    own = path_probability(forest, 0, LEAF_YES_LEFT, table, (0, 0))
    assert sol.objective == pytest.approx(own, abs=TOL)
    oracle = brute_force_oracle(forest, instance, table, _cfg(MAX_PATH))
    assert oracle.objective == pytest.approx(sol.objective, abs=TOL)


def test_oracle_firefighter_max_path(firefighter, firefighter_instance):
    forest, table = firefighter
    oracle = brute_force_oracle(forest, firefighter_instance, table, _cfg(MAX_PATH))
    assert oracle.objective == pytest.approx(0.36, abs=TOL)
    assert oracle.effort == (0, 1)


def test_oracle_refuses_above_cap(firefighter, firefighter_instance, monkeypatch):
    forest, table = firefighter
    monkeypatch.setattr("helpers.ORACLE_CAP", 2)
    with pytest.raises(ValueError):
        brute_force_oracle(forest, firefighter_instance, table, _cfg(MAX_PATH))


def test_tiny_time_limit_reports_timeout(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_max_path(forest, firefighter_instance, table,
                         _cfg(MAX_PATH, time_limit=1e-9))
    assert sol.status == "timeout"


def test_infeasible_when_no_positive_leaves(firefighter_instance):
    tree = Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 0), Leaf(2, 0)])
    forest = Forest([tree], [FeatureMeta(0, "x", mutable=True, beneficial="increase"),
                             FeatureMeta(1, "y", mutable=True, beneficial="increase")][:1])
    table = NodeProbabilityTable(0, 1, {(0, 0): (0.4, 0.6)})
    instance = ProblemInstance(x0=(0.5,), target_class=1, eta=1, E=1)
    sol = solve_max_path(forest, instance, table)
    oracle = brute_force_oracle(forest, instance, table, _cfg(MAX_PATH))
    assert sol.status == "infeasible" and oracle.status == "infeasible"


@pytest.mark.parametrize("objective", [MIN_PATH, KAPPA_PATH])
def test_tree_without_target_leaf_has_no_value(objective):
    # the only tree never votes 1, so it has no per-tree value and no shift exists
    tree = Tree(0, [], [Leaf(0, 0)])
    forest = Forest([tree], [FeatureMeta(0, "x", mutable=True, beneficial="increase")])
    table = NodeProbabilityTable(0, 1, {})
    instance = ProblemInstance(x0=(0.5,), target_class=1, eta=1, E=1)
    config = _cfg(objective, mu=0.0)
    assert solve(forest, instance, table, config).status == "infeasible"
    assert brute_force_oracle(forest, instance, table, config).status == "infeasible"


# --- pruning in the path search: forward checking and sibling dominance -----------------


def _one_feature_forest(*trees):
    """Trees over one feature x in [0, 1], each given as (nodes, leaves, right-branch
    probabilities per node); the table has one effort level, so eta = E = 0."""
    meta = [FeatureMeta(0, "x", mutable=True, beneficial="increase")]
    forest = Forest([Tree(0, nodes, leaves) for nodes, leaves, _ in trees], meta)
    table = NodeProbabilityTable(0, 0, {(t, node): (p,) for t, (_, _, probs) in enumerate(trees)
                                        for node, p in probs.items()})
    return forest, table


def _path_case(forest, table):
    instance = ProblemInstance(x0=(0.65,), target_class=1, eta=0, E=0)
    return SimpleNamespace(seed="hand-built", forest=forest, table=table, instance=instance)


def test_sibling_dominated_by_an_earlier_leaf_is_skipped():
    # tree 0: a = [0, 0.3) and b = [0.3, 0.6) vote 1 with path probability 0.45 each, x >= 0.6
    #   votes 0; tree 1: c = [0.6, 1] votes 1 (0.4); tree 2: e1 = [0, 0.2) (0.3) and
    #   e2 = [0.2, 1] (0.7) vote 1. min_path values 0.45 > 0.4 > 0.3, so the search order is
    #   0, 1, 2; two of three trees must vote 1. c meets neither a nor b; a meets e1 and e2,
    #   b meets only e2, so b leaves open a subset of what a leaves open.
    forest, table = _one_feature_forest(
        ([Node(0, 0, 0.6, 1, 2), Node(1, 0, 0.3, 3, 4)], [Leaf(2, 0), Leaf(3, 1), Leaf(4, 1)],
         {0: 0.1, 1: 0.5}),
        ([Node(0, 0, 0.6, 1, 2)], [Leaf(1, 0), Leaf(2, 1)], {0: 0.4}),
        ([Node(0, 0, 0.2, 1, 2)], [Leaf(1, 1), Leaf(2, 1)], {0: 0.7}),
    )
    sol, _ = assert_matches_oracle(_path_case(forest, table), MIN_PATH)
    assert sol.objective == pytest.approx(0.45 * 0.3, abs=TOL)
    assert sol.essential_trees == (0, 2)
    assert (sol.chosen_leaves[0], sol.chosen_leaves[2]) == (3, 1)   # a and e1, the first visited
    # Nodes: 1 the root; 2 a, where tree 1 has no allowed leaf and is passed over; 3 a + e1,
    # the incumbent 0.45 * 0.3 (e2 then fails the bound); 4 a with tree 2 excluded, cut as
    # no tree is left. b still passes the bound 0.45 * 0.4 > 0.135 but is dominated by a, so
    # its two nodes are never made. 5 tree 0 excluded: 0.4 * 0.3 cannot beat 0.135.
    assert sol.nodes_explored == 5


def test_forward_check_cuts_a_leaf_that_empties_the_other_trees():
    # tree 0: a = [0, 0.5) votes 1 with 0.7 and b = [0.5, 1] with 0.3; trees 1 and 2 vote 1
    #   only on [0.5, 1], with 0.6 and 0.4. Two of three must vote 1. Including a leaves no
    #   allowed leaf in trees 1 and 2, so that node is cut at once.
    half = [Node(0, 0, 0.5, 1, 2)]
    forest, table = _one_feature_forest(
        (half, [Leaf(1, 1), Leaf(2, 1)], {0: 0.3}),
        (half, [Leaf(1, 0), Leaf(2, 1)], {0: 0.6}),
        (half, [Leaf(1, 0), Leaf(2, 1)], {0: 0.4}),
    )
    sol, _ = assert_matches_oracle(_path_case(forest, table), MAX_PATH)
    assert sol.objective == pytest.approx(0.6 * 0.4, abs=TOL)
    assert sol.essential_trees == (1, 2)
    # Nodes: 1 the root; 2 a, cut by the forward check; 3 b; 4 b + c, incumbent 0.18;
    # 5 b with tree 1 excluded, 0.3 * 0.4 cut; 6 tree 0 excluded, bound 0.24; 7 c;
    # 8 c + e, incumbent 0.24; 9 c with tree 2 excluded, no tree left; 10 trees 0 and 1
    # excluded, one tree left.
    assert sol.nodes_explored == 10


def test_bound_first_candidate_cut_is_the_exact_one():
    # a node's bound is cur_log plus its forward check's logs, best first, added one at a
    # time; a lower candidate swaps best for its own log value. The bound-first test must
    # give the exact sum's answer at cuts on, next to and just around that sum
    rng = random.Random(5)
    decided = 0
    for _ in range(3000):
        scale = rng.choice([1e-3, 1.0, 30.0, 700.0])
        logs = sorted((-rng.random() * scale for _ in range(rng.randint(1, 60))), reverse=True)
        cur_log = -rng.random() * scale * rng.randint(0, 40)
        best, rest = logs[0], logs[1:]
        log_value = best - rng.random() * scale * rng.choice([1e-15, 1e-9, 1.0])
        if not log_value < best:
            continue
        bound = _add_up(cur_log, logs)
        exact = _add_up(cur_log + log_value, rest)
        approx = bound - best + log_value
        for cut in (exact, math.nextafter(exact, -math.inf), min(math.nextafter(exact, 0.0), 0.0),
                    approx, math.nextafter(approx, -math.inf), exact * (1 + 1e-13),
                    exact * (1 - 1e-13), 0.0, -5e-324, -math.inf):
            assert _swapped_at_most(cut, bound, best, cur_log, log_value, rest) == (exact <= cut)
            decided += 1
    assert decided > 20000


# --- allocation order: best bound first, the tie rule and threshold descent -------------


def _with_unused_feature(case):
    """The case with one more mutable feature that no tree splits on: each allocation with
    effort there ties exactly with the one that has none."""
    metas = case.forest.feature_metas + [
        FeatureMeta(case.forest.num_features, "unused", mutable=True, beneficial="increase")]
    instance = ProblemInstance(x0=case.instance.x0 + (0.5,),
                               target_class=case.instance.target_class,
                               eta=max(1, case.instance.eta), E=max(1, case.instance.E))
    return SimpleNamespace(seed=case.seed, forest=Forest(case.forest.trees, metas),
                           table=case.table, instance=instance)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("objective", [MAX_PATH, MIN_PATH, KAPPA_PATH])
def test_exact_ties_between_allocations_go_to_the_lower_index(seed, objective):
    case = _with_unused_feature(make_random_instance(seed))
    kw = dict(kappa=2, mu=0.0) if objective == KAPPA_PATH else {}
    sol, oracle = assert_matches_oracle(case, objective, **kw)   # objectives within 1e-9
    assert sol.effort == oracle.effort
    if sol.found:
        # the twin with effort on the unused feature has a higher index and the same value
        assert sol.effort[-1] == 0


def _two_feature_tie():
    """Three trees over a, b in [0, 1]; two of them must vote 1.

    Trees 0 and 1 vote 1 for a < 0.5, with 0.8 and 0.7 at no effort. Tree 2 votes 1
    at A (a < 0.5, b < 0.5) and at B (a >= 0.5, b >= 0.5); B meets neither tree 0's nor
    tree 1's target leaf. Effort on b lifts B to 0.81, so allocation (0, 1) has the
    highest bound, log 0.81 + log 0.8, and is searched first, but its best plan is
    trees 0 and 1 again, log 0.8 + log 0.7, added in the same order. That equals the
    bound, and the optimum, of allocation (0, 0), which has the lower index.
    """
    metas = [FeatureMeta(0, "a", mutable=True, beneficial="increase"),
             FeatureMeta(1, "b", mutable=True, beneficial="increase")]
    split_a = [Node(0, 0, 0.5, 1, 2)]
    trees = [Tree(0, split_a, [Leaf(1, 1), Leaf(2, 0)]),
             Tree(0, split_a, [Leaf(1, 1), Leaf(2, 0)]),
             Tree(0, [Node(0, 1, 0.5, 1, 2), Node(1, 0, 0.5, 3, 4), Node(2, 0, 0.5, 5, 6)],
                  [Leaf(3, 1), Leaf(4, 0), Leaf(5, 0), Leaf(6, 1)])]
    table = NodeProbabilityTable(0, 1, {(0, 0): (0.2, 0.6), (1, 0): (0.3, 0.7),
                                        (2, 0): (0.5, 0.9), (2, 1): (0.1, 0.5),
                                        (2, 2): (0.9, 0.95)})
    instance = ProblemInstance(x0=(0.2, 0.2), target_class=1, eta=1, E=1)
    return SimpleNamespace(seed="two-feature tie", forest=Forest(trees, metas), table=table,
                           instance=instance)


def test_lower_index_with_an_equal_bound_searched_later_still_wins():
    sol, oracle = assert_matches_oracle(_two_feature_tie(), MAX_PATH)
    assert sol.effort == oracle.effort == (0, 0)
    assert sol.log_objective == math.log(0.8) + math.log(0.7)
    assert sol.essential_trees == (0, 1)


def _allocation_bounds(case, config):
    """Each allocation's bound from the definitions: the m best per-tree values' logs,
    added best first (allocations with fewer than m eligible trees are left out)."""
    forest, instance, table = case.forest, case.instance, case.table
    m = majority_threshold(forest.num_trees)
    bounds = []
    mask = [meta.mutable for meta in forest.feature_metas]
    for effort in enumerate_effort_allocations(forest.num_features, instance.E, instance.eta,
                                               mask):
        values = []
        for t, tree in enumerate(forest.trees):
            probs = [path_probability(forest, t, leaf_id, table, effort)
                     for leaf_id, leaf in sorted(tree.leaves.items())
                     if leaf.predicted_class == instance.target_class]
            value, eligible = reference_tree_value(probs, len(tree.leaves),
                                          _resolve_kappa(config, len(tree.leaves)), config)
            if eligible:
                values.append(value)
        if len(values) >= m:
            log_bound = 0.0
            for value in sorted(values, reverse=True)[:m]:
                log_bound += math.log(value) if value > 0.0 else -math.inf
            bounds.append(log_bound)
    return bounds


@pytest.mark.parametrize("seed, objective", [(21, MAX_PATH), (42, MIN_PATH),
                                             (299, KAPPA_PATH)])
def test_a_later_pass_finds_the_optimum_the_first_pass_misses(seed, objective):
    case = make_random_instance(seed)
    kw = dict(kappa=case.kappa, mu=case.mu) if objective == KAPPA_PATH else {}
    sol, oracle = assert_matches_oracle(case, objective, **kw)
    assert sol.effort == oracle.effort
    bounds = _allocation_bounds(case, _cfg(objective, **kw))
    lowest = min(b for b in bounds if b > -math.inf)
    # nothing above the first pass's threshold, but more than the lowest finite bound:
    # a pass with a finite threshold finds it
    assert lowest < sol.log_objective <= max(bounds) - STEP


def _descent_to_the_last_pass(zero_leaf_class):
    """One feature x, levels 0..2, eta 2; two of three trees must vote 1.

    The target leaves with a positive path probability, x >= 0.5 (tree 0, 1.0), x < 0.3
    (tree 1) and 0.3 <= x < 0.5 (tree 2), meet pairwise nowhere. Allocation (0,) has
    the bound log 1.0 + log 0.5, (1,) about log 1.0 + log 0.04, and (2,) is -inf.
    Tree 0's leaf x < 0.5 has path probability 0; voting ``zero_leaf_class`` there, it
    makes plans at log -inf with tree 1 or 2 when that class is 1, and none otherwise.
    """
    meta = [FeatureMeta(0, "x", mutable=True, beneficial="increase")]
    trees = [Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, zero_leaf_class), Leaf(2, 1)]),
             Tree(0, [Node(0, 0, 0.3, 1, 2)], [Leaf(1, 1), Leaf(2, 0)]),
             Tree(0, [Node(0, 0, 0.3, 1, 2), Node(2, 0, 0.5, 3, 4)],
                  [Leaf(1, 0), Leaf(3, 1), Leaf(4, 0)])]
    table = NodeProbabilityTable(0, 2, {(0, 0): (1.0, 1.0, 1.0), (1, 0): (0.5, 0.96, 1.0),
                                        (2, 0): (0.5, 0.5, 0.5), (2, 2): (0.5, 0.95, 1.0)})
    instance = ProblemInstance(x0=(0.65,), target_class=1, eta=2, E=2)
    return SimpleNamespace(seed="descent", forest=Forest(trees, meta), table=table,
                           instance=instance)


@pytest.mark.parametrize("zero_leaf_class, status", [(1, "optimal"), (0, "infeasible")])
def test_descent_ends_when_no_finite_pass_finds_a_plan(zero_leaf_class, status):
    # a threshold that never fell below the lowest finite bound would search forever:
    # the time limit turns that into a timeout
    case = _descent_to_the_last_pass(zero_leaf_class)
    sol, oracle = assert_matches_oracle(case, MAX_PATH, time_limit=10.0)
    assert sol.status == status
    bounds = _allocation_bounds(case, _cfg(MAX_PATH))
    assert bounds[2] == -math.inf and bounds[0] - bounds[1] > STEP
    if status == "optimal":
        assert sol.objective == 0.0 and sol.effort == oracle.effort == (0,)


# --- min distance ---------------------------------------------------------------------


def test_min_distance_golden(firefighter):
    forest, _ = firefighter
    instance = ProblemInstance(x0=(0.65, 0.5), target_class=1, eta=0, E=0)
    sol = solve_min_distance(forest, instance)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.15, abs=TOL)
    assert sol.x == pytest.approx((0.7, 0.6), abs=TOL)
    assert sol.chosen_leaves[0] == LEAF_YES_RIGHT


def test_min_distance_already_target(firefighter):
    forest, _ = firefighter
    instance = ProblemInstance(x0=(0.75, 0.9), target_class=1, eta=0, E=0)
    sol = solve_min_distance(forest, instance)
    assert sol.objective == pytest.approx(0.0, abs=TOL)
    assert sol.x == pytest.approx((0.75, 0.9))


def _weighted_tie_forest():
    # weights (2,1,1): the first tree votes 1 below 0.6, the other two from 0.3 up
    meta = [FeatureMeta(0, "x", mutable=True, beneficial="increase")]
    t1 = Tree(0, [Node(0, 0, 0.6, 1, 2)], [Leaf(1, 1), Leaf(2, 0)], weight=2.0)
    t2 = Tree(0, [Node(0, 0, 0.3, 1, 2)], [Leaf(1, 0), Leaf(2, 1)], weight=1.0)
    t3 = Tree(0, [Node(0, 0, 0.3, 1, 2)], [Leaf(1, 0), Leaf(2, 1)], weight=1.0)
    return Forest([t1, t2, t3], meta)


def test_min_distance_weighted_tie_feasible_for_class_zero():
    # a 2-vs-2 weighted tie classifies to 0, so target 0 works
    forest = _weighted_tie_forest()
    instance = ProblemInstance(x0=(0.5,), target_class=0, eta=0, E=0)
    sol = solve_min_distance(forest, instance)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.1, abs=TOL)   # x = 0.6 beats x = 0.3 - eps
    oracle = brute_force_oracle(forest, instance, None, _cfg(MIN_DISTANCE))
    assert oracle.objective == pytest.approx(sol.objective, abs=TOL)
    verdict = verify_solution(forest, instance, None, sol, _cfg(MIN_DISTANCE))
    assert verdict.passed, verdict.failures


@pytest.mark.parametrize("x0, distance, x", [(0.8, 0.2 + 1e-6, 0.599999), (0.1, 0.2, 0.3)])
def test_min_distance_weighted_tie_not_enough_for_class_one(x0, distance, x):
    # both starting points are 2-vs-2 weighted ties (class 0): target 1 needs 0.3 <= x < 0.6
    forest = _weighted_tie_forest()
    instance = ProblemInstance(x0=(x0,), target_class=1, eta=0, E=0)
    assert forest.predict(instance.x0)[0] == 0
    sol = solve_min_distance(forest, instance)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(distance, abs=TOL)
    assert sol.x == pytest.approx((x,), abs=TOL)
    oracle = brute_force_oracle(forest, instance, None, _cfg(MIN_DISTANCE))
    assert oracle.objective == pytest.approx(sol.objective, abs=TOL)
    verdict = verify_solution(forest, instance, None, sol, _cfg(MIN_DISTANCE))
    assert verdict.passed, verdict.failures


def test_min_distance_infeasible():
    tree = Tree(0, [], [Leaf(0, 0)])
    forest = Forest([tree], [FeatureMeta(0, "x", mutable=True, beneficial="increase")])
    instance = ProblemInstance(x0=(0.5,), target_class=1, eta=0, E=0)
    assert solve_min_distance(forest, instance).status == "infeasible"


def _residuals(x0, box, weights):
    """The definition: per feature, the weighted gap between x0 and the box."""
    return [w * abs(min(max(x, lo), hi) - x) for w, x, (lo, hi) in zip(weights, x0, box)]


def test_residual_lemma_intersection_takes_the_elementwise_max():
    # boxes that pairwise meet (all contain one point per feature), with bounds drawn from
    # a small pool so that endpoints are shared and x0 often lies on a bound
    rng = random.Random(0)
    for _ in range(2000):
        d, n = rng.randint(1, 5), rng.randint(1, 5)
        weights = [rng.choice((0.0, 1.0, rng.uniform(0.0, 3.0))) for _ in range(d)]
        x0, boxes = [], [[] for _ in range(n)]
        for _ in range(d):
            pool = [rng.uniform(-2.0, 2.0) for _ in range(4)]
            common = rng.choice(pool)
            x0.append(rng.choice(pool + [rng.uniform(-3.0, 3.0)]))
            for box in boxes:
                box.append((rng.choice([v for v in pool if v <= common]),
                            rng.choice([v for v in pool if v >= common])))
        joint = boxes_intersect(boxes)
        assert joint is not None
        maxed = [max(col) for col in zip(*(_residuals(x0, box, weights) for box in boxes))]
        assert maxed == _residuals(x0, joint, weights)
        for kind, measure in _MEASURES.items():
            assert measure(maxed) == _distance(x0, choose_point(joint, x0), weights, kind)


def test_vote_upper_bound_is_sound():
    # the vote bound counts a leaf as nearer than the incumbent, unmeasured, when the
    # norm's bound on the distance of max(r, l) from those of r and l is below
    # _sure_below(score); then that distance must be below score, for scores at and a few
    # ulps around the distance and the bound, also at magnitudes where squares under- or
    # overflow
    rng = random.Random(0)
    scales = (1e-300, 1e-160, 1.0, 1e150, 1e300)

    def residuals(weights):
        return [w * rng.choice((0.0, rng.random(), 1.0)) * rng.choice(scales) for w in weights]

    sure_count = 0
    for _ in range(4000):
        d = rng.randint(1, 8)
        weights = [rng.choice((0.0, 1.0, rng.uniform(0.0, 3.0))) for _ in range(d)]
        r, leaf = residuals(weights), residuals(weights)
        maxed = list(map(max, r, leaf))
        for kind, measure in _MEASURES.items():
            dist, own, exact = measure(r), measure(leaf), measure(maxed)
            upper = _UPPER_BOUNDS[kind](dist, own)   # a bound up to rounding, exact for linf
            assert kind != "linf" or exact == upper
            scores = [exact, upper, upper * (1 - 2.0 ** -48), math.inf]
            for score in list(scores):
                scores += [math.nextafter(score, 0.0), math.nextafter(score, math.inf)]
            for score in scores:
                if upper < _sure_below(score):
                    sure_count += 1
                    assert exact < score, (kind, r, leaf, score)
    assert sure_count > 10_000


def test_leaf_residuals_match_the_definition():
    for seed in range(12):
        case = make_random_instance(seed)
        forest, x0 = case.forest, case.instance.x0
        geometry = forest.leaf_geometry(case.instance.epsilon)
        weights = tuple(float(j % 3) * 0.75 for j in range(forest.num_features))   # zeros too
        residuals = _leaf_residuals(geometry, x0, weights)
        for t, tree in enumerate(forest.trees):
            assert list(residuals[t]) == list(tree.leaves)
            for leaf_id in tree.leaves:
                box = geometry.box(t, leaf_id)
                assert list(residuals[t][leaf_id]) == _residuals(x0, box, weights), (seed, t)


# --- choose_point -----------------------------------------------------------------------


def test_choose_point_projection():
    box = [(0.7, 1.0), (0.6, 1.0)]
    assert choose_point(box, (0.65, 0.5)) == (0.7, 0.6)


def test_choose_point_inside_is_identity():
    box = [(0.0, 1.0), (0.0, 1.0)]
    assert choose_point(box, (0.4, 0.9)) == (0.4, 0.9)


def test_choose_point_empty_box_rejected():
    with pytest.raises(ValueError):
        choose_point(None, (0.5,))


# --- verify_solution ----------------------------------------------------------------------


def test_verify_passes_on_solver_output(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_max_path(forest, firefighter_instance, table)
    verdict = verify_solution(forest, firefighter_instance, table, sol, _cfg(MAX_PATH))
    assert verdict.passed and not verdict.failures


def test_verify_catches_effort_overrun(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_max_path(forest, firefighter_instance, table)
    sol.effort = (1, 1)   # eta is 1
    verdict = verify_solution(forest, firefighter_instance, table, sol, _cfg(MAX_PATH))
    assert not verdict.passed
    assert any("effort budget" in f for f in verdict.failures)


def test_verify_reports_effort_level_above_e(firefighter, firefighter_instance):
    forest, table = firefighter   # the table has levels 0..1 only
    sol = solve_max_path(forest, firefighter_instance, table)
    sol.effort = (2, 0)
    verdict = verify_solution(forest, firefighter_instance, table, sol, _cfg(MAX_PATH))
    assert verdict.failures == ["effort budget", "effort level bounds"]


def test_verify_catches_empty_joint_box(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_max_path(forest, firefighter_instance, table)
    sol.chosen_leaves = dict(sol.chosen_leaves)
    sol.chosen_leaves[0] = LEAF_NO_RIGHT    # x no longer inside the claimed leaf
    verdict = verify_solution(forest, firefighter_instance, table, sol, _cfg(MAX_PATH))
    assert not verdict.passed
    assert any("leaf assignment" in f or "box intersection" in f for f in verdict.failures)


# 0.7 - epsilon rounds to 0.6999989999999999, the top of the firefighter leaf 4 box on S
_NEAR_S_SPLIT = 0.7 - 1e-6 + 5e-13


def _with_a_stump_near_the_s_split(forest):
    """The firefighter forest plus a stump voting 1 from S >= _NEAR_S_SPLIT: its class-1
    box and leaf 4's each hold (_NEAR_S_SPLIT, 0.8), within the verifier's 1e-12, but
    they do not meet."""
    stump = Tree(0, [Node(0, 0, _NEAR_S_SPLIT, 1, 2)], [Leaf(1, 0), Leaf(2, 1)])
    return Forest(forest.trees + [stump], forest.feature_metas)


# The max_path solution puts effort on A and reaches leaf 4 at (0.5, 0.8), at 0.36; the
# min_distance one reaches leaf 6 at (0.7, 0.6). ``forest_of`` changes the verified forest.
@pytest.mark.parametrize("objective, forest_of, content, failures", [
    (MAX_PATH, None, {"x": (0.5,)}, ["point dimension"]),
    (MAX_PATH, None, {"chosen_leaves": {0: 99}}, ["unknown leaf (tree 0)"]),
    (MAX_PATH, None, {"essential_trees": (3,)}, ["essential tree out of range"]),
    (MAX_PATH, None, {"x": None}, ["no solution content to verify"]),
    (MAX_PATH, None, {"effort": (1,)}, ["effort vector missing or wrong length"]),
    (MAX_PATH, with_a_fixed, {}, ["effort on immutable feature"]),
    (MAX_PATH, None, {"chosen_leaves": {}}, ["leaf assignment incomplete"]),
    (MAX_PATH, None, {"essential_trees": ()}, ["essential set size", "objective mismatch"]),
    (MIN_DISTANCE, _with_a_stump_near_the_s_split,
     {"x": (_NEAR_S_SPLIT, 0.8), "chosen_leaves": {0: 4, 1: 2},
      "objective": _NEAR_S_SPLIT - 0.5 + 0.3}, ["box intersection"]),
    (MIN_DISTANCE, None, {"x": (0.5, 0.5), "chosen_leaves": {0: 3}, "objective": 0.0},
     ["majority", "prediction at x"]),
    (MIN_DISTANCE, None, {"objective": 0.5}, ["objective mismatch"]),
], ids=["short-x", "unknown-leaf", "essential-out-of-range", "no-content", "short-effort",
        "immutable-effort", "incomplete-leaves", "essential-size", "joint-box",
        "distance-majority", "distance-objective"])
def test_verify_reports_malformed_content(firefighter, firefighter_instance, objective,
                                          forest_of, content, failures):
    forest, table = firefighter
    config = _cfg(objective)
    sol = replace(solve(forest, firefighter_instance, table, config), **content)
    if forest_of is not None:
        forest = forest_of(forest)
    verdict = verify_solution(forest, firefighter_instance, table, sol, config)
    assert verdict.failures == failures


@pytest.mark.parametrize("verify_mu, forged_objective, failure", [
    (0.5, None, "mu eligibility (tree 0)"),   # the smaller theta, 0.32, is below mu
    (0.0, 0.5, "objective mismatch"),
], ids=["mu", "objective"])
def test_verify_recomputes_kappa_values(firefighter, firefighter_instance,
                                        verify_mu, forged_objective, failure):
    forest, table = firefighter
    sol = solve_kappa_path(forest, firefighter_instance, table, _cfg(KAPPA_PATH, kappa=2, mu=0.0))
    assert (sol.status, sol.objective, sol.effort) == ("optimal", pytest.approx(0.36), (0, 1))
    if forged_objective is not None:
        sol = replace(sol, objective=forged_objective)
    verdict = verify_solution(forest, firefighter_instance, table, sol,
                              _cfg(KAPPA_PATH, kappa=2, mu=verify_mu))
    assert verdict.failures == [failure]


def test_objectives_close_compares_positive_values_in_log_space():
    # an absolute 1e-9 would accept any two objectives below 1e-9, such as the r51 max_path
    # optimum and a tenth of it
    assert not objectives_close(5.290192232884195e-13, 5.290192232884195e-14)
    assert objectives_close(5.290192232884195e-13, 5.290192232884195e-13 * (1 + 1e-12))
    assert objectives_close(0.0, 0.0) and objectives_close(None, None)
    assert not objectives_close(0.0, None)


@pytest.mark.parametrize("config", [_cfg(MAX_PATH), _cfg(KAPPA_PATH, kappa=2, mu=0.0)],
                         ids=[MAX_PATH, KAPPA_PATH])
def test_verify_rejects_small_objective_off_by_tenfold(firefighter, firefighter_instance, config):
    # 41 copies of the firefighter tree: the optimum, 0.36 ** 21, is below 1e-9
    forest, table = firefighter
    copies = Forest(forest.trees * 41, forest.feature_metas)
    table41 = NodeProbabilityTable(0, 1, {(t, node): row for t in range(41)
                                          for (_, node), row in table.probs.items()})
    sol = solve(copies, firefighter_instance, table41, config)
    assert sol.status == "optimal" and 0.0 < sol.objective < 1e-9
    assert verify_solution(copies, firefighter_instance, table41, sol, config).passed
    forged = replace(sol, objective=sol.objective / 10)
    verdict = verify_solution(copies, firefighter_instance, table41, forged, config)
    assert verdict.failures == ["objective mismatch"]


def test_verify_reports_repeated_essential_tree(firefighter, firefighter_instance):
    # three copies of one tree: counting tree 0 twice reproduces the objective exactly
    forest, table = firefighter
    tripled = Forest(forest.trees * 3, forest.feature_metas)
    table3 = NodeProbabilityTable(0, 1, {(t, node): row for t in range(3)
                                         for (_, node), row in table.probs.items()})
    sol = solve_max_path(tripled, firefighter_instance, table3)
    assert sol.essential_trees == (0, 1)
    forged = replace(sol, essential_trees=(0, 0))
    verdict = verify_solution(tripled, firefighter_instance, table3, forged, _cfg(MAX_PATH))
    assert verdict.failures == ["essential tree repeated"]


def test_probabilistic_solver_requires_equal_weights(firefighter, firefighter_instance):
    forest, table = firefighter
    tree = forest.trees[0]
    heavier = Tree(tree.root, list(tree.nodes.values()), list(tree.leaves.values()), weight=2.0)
    lopsided = Forest([tree, heavier], forest.feature_metas)
    table2 = NodeProbabilityTable(0, 1, {**table.probs,
                                         **{(1, k): v for (_, k), v in table.probs.items()}})
    with pytest.raises(ValueError):
        solve_max_path(lopsided, firefighter_instance, table2)


def test_solver_requires_table_effort_coverage(firefighter):
    forest, table = firefighter   # table covers E=1 only
    instance = ProblemInstance(x0=(0.5, 0.5), target_class=1, eta=2, E=2)
    with pytest.raises(ValueError):
        solve_max_path(forest, instance, table)


def test_solver_runs_are_deterministic(firefighter, firefighter_instance):
    forest, table = firefighter
    a = solve_max_path(forest, firefighter_instance, table)
    b = solve_max_path(forest, firefighter_instance, table)
    assert (a.objective, a.effort, a.chosen_leaves, a.x) == (b.objective, b.effort, b.chosen_leaves, b.x)


# --- the shape of a Solution, per search and status -------------------------------------

_CONTENT = ("objective", "log_objective", "effort", "chosen_leaves", "essential_trees",
            "per_tree_value", "x", "feasible_box")


def _three_firefighters(forest, table):
    """Three copies of the firefighter tree whose A rows rank them 2, 0, 1 by value, so the
    searches meet the essential trees out of index order."""
    a_rows = {1: {1: (0.1, 0.2), 2: (0.1, 0.2)}, 2: {1: (0.5, 0.9), 2: (0.6, 0.95)}}
    probs = {(t, node): a_rows.get(t, {}).get(node, row)   # tree 0 and the S rows: the fixture's
             for t in range(3) for (_, node), row in table.probs.items()}
    return Forest(forest.trees * 3, forest.feature_metas), NodeProbabilityTable(0, 1, probs)


def _all_class_zero():
    """A one-tree forest whose leaves all predict class 0: class 1 is out of reach."""
    tree = Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 0), Leaf(2, 0)])
    forest = Forest([tree], [FeatureMeta(0, "x", mutable=True, beneficial="increase")])
    table = NodeProbabilityTable(0, 1, {(0, 0): (0.4, 0.6)})
    return forest, table, ProblemInstance(x0=(0.5,), target_class=1, eta=1, E=1)


@pytest.mark.parametrize("objective", [MAX_PATH, MIN_PATH, KAPPA_PATH, MIN_DISTANCE])
@pytest.mark.parametrize("runner, status", [
    ("solve", "optimal"), ("solve", "infeasible"), ("solve", "timeout"),
    ("oracle", "optimal"), ("oracle", "infeasible"),
])
def test_solution_shape(firefighter, firefighter_instance, objective, runner, status):
    forest, table = _three_firefighters(*firefighter)
    instance = firefighter_instance
    if status == "infeasible":
        forest, table, instance = _all_class_zero()
    config = _cfg(objective, kappa=2, mu=0.0, time_limit=1e-9 if status == "timeout" else None)
    if objective == MIN_DISTANCE:
        table = None
    if runner == "solve":
        sol = solve(forest, instance, table, config)
    else:
        sol = brute_force_oracle(forest, instance, table, config)
    assert sol.status == status
    assert sol.wall_time > 0.0
    if status != "optimal":   # at a 1 ns limit, a timeout stops before any incumbent
        assert not sol.found
        assert all(getattr(sol, name) is None for name in _CONTENT)
        if status == "timeout":
            # min_distance stops in its root node; the path search stops at the
            # check before its first allocation, before any DFS node
            assert sol.nodes_explored == (1 if objective == MIN_DISTANCE else 0)
        return
    d = forest.num_features
    assert sol.found
    assert len(sol.x) == d and len(sol.feasible_box) == d and len(sol.effort) == d
    assert sorted(sol.chosen_leaves) == list(range(forest.num_trees))
    assert sol.essential_trees == tuple(sorted(sol.per_tree_value))
    assert sol.x == choose_point(sol.feasible_box, instance.x0)
    if objective == MIN_DISTANCE:
        assert sol.essential_trees == () and sol.per_tree_value == {}
        assert sol.effort == (0,) * d
        assert sol.log_objective is None
    else:
        assert len(sol.essential_trees) == 2   # the majority of three trees
        assert sol.objective == math.exp(sol.log_objective)
    assert verify_solution(forest, instance, table, sol, config).passed
