"""Randomized equivalence against the exhaustive oracle (dev-scale suite).

The acceptance module runs the full 100-seed version with timing; this keeps
a quick slice in the regular suite so solver regressions surface fast.
"""
from dataclasses import replace
from types import SimpleNamespace

import pytest

from treeshift import (KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH, FeatureMeta,
                       Forest, Leaf, Node, NodeProbabilityTable, ProblemInstance, SolverConfig,
                       Tree, brute_force_oracle, leaf_of, objectives_close, solve,
                       solve_min_distance, verify_solution)

from helpers import (assert_matches_oracle, make_random_instance,
                     make_weighted_distance_case, per_tree_value_chain)

SEEDS = range(25)


@pytest.mark.parametrize("seed", SEEDS)
def test_max_path_matches_oracle(seed):
    assert_matches_oracle(make_random_instance(seed), MAX_PATH)


@pytest.mark.parametrize("seed", SEEDS)
def test_min_path_matches_oracle(seed):
    assert_matches_oracle(make_random_instance(seed), MIN_PATH)


@pytest.mark.parametrize("seed", SEEDS)
def test_kappa_path_matches_oracle(seed):
    case = make_random_instance(seed)
    assert_matches_oracle(case, KAPPA_PATH, kappa=case.kappa, mu=case.mu)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("by_fraction", [False, True])
def test_kappa_positive_leaves_only_matches_oracle(seed, by_fraction):
    case = make_random_instance(seed)
    kw = {"kappa_fraction": 0.5} if by_fraction else {"kappa": case.kappa}
    assert_matches_oracle(case, KAPPA_PATH, mu=case.mu, positive_leaves_only=True, **kw)


@pytest.mark.parametrize("seed", SEEDS)
def test_kappa_fraction_matches_oracle(seed):
    # the desk-scale acceptance configuration: half the leaves, default mu
    assert_matches_oracle(make_random_instance(seed), KAPPA_PATH, kappa_fraction=0.5)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("objective", [MAX_PATH, MIN_PATH])
def test_box_center_point_rule_matches_oracle(seed, objective):
    # a path objective depends only on the chosen leaves, so the centre of the
    # feasible box is as good a shifted point as the clamp of x0 onto it
    case = make_random_instance(seed)
    solver_sol, oracle_sol = assert_matches_oracle(case, objective)
    if solver_sol.status != "optimal":
        return
    for sol in (solver_sol, oracle_sol):
        centre = tuple((lo + hi) / 2.0 for lo, hi in sol.feasible_box)
        leaves = {t: leaf_of(tree, centre) for t, tree in enumerate(case.forest.trees)}
        assert all(leaves[t] == sol.chosen_leaves[t] for t in sol.essential_trees)
        moved = replace(sol, x=centre, chosen_leaves=leaves)
        verdict = verify_solution(case.forest, case.instance, case.table, moved,
                                  SolverConfig(objective=objective))
        assert verdict.passed, f"seed {seed} {objective}: {verdict.failures}"


@pytest.mark.parametrize("seed", SEEDS)
def test_min_distance_matches_oracle(seed):
    assert_matches_oracle(make_random_instance(seed), MIN_DISTANCE)


@pytest.mark.parametrize("seed", range(12))
def test_min_distance_weighted_matches_oracle(seed):
    forest, instance, weights, kind = make_weighted_distance_case(seed)
    config = SolverConfig(objective=MIN_DISTANCE, distance=kind, distance_weights=weights)
    sol = solve_min_distance(forest, instance, config)
    oracle = brute_force_oracle(forest, instance, None, config)
    assert sol.status == oracle.status
    if sol.status == "optimal":
        assert objectives_close(sol.objective, oracle.objective)
        verdict = verify_solution(forest, instance, None, sol, config)
        assert verdict.passed, verdict.failures


def _heavy_and_light_trees():
    """Trees 0-3 (weight 1) vote 1 from x0 >= 0.3, x1 >= 0.3, x0 >= 0.35 and x1 >= 0.35;
    tree 4 (weight 3) votes 1 from x0 >= 0.9. Class 1 needs 4 of the 7 votes, so from
    (0.1, 0.1) the light trees are the cheapest votes, and only all four of them win."""
    metas = [FeatureMeta(j, f"x{j}", mutable=True, beneficial="increase") for j in range(2)]
    splits = [(0, 0.3, 1.0), (1, 0.3, 1.0), (0, 0.35, 1.0), (1, 0.35, 1.0), (0, 0.9, 3.0)]
    trees = [Tree(0, [Node(0, j, threshold, 1, 2)], [Leaf(1, 0), Leaf(2, 1)], weight=w)
             for j, threshold, w in splits]
    return Forest(trees, metas)


@pytest.mark.parametrize("distance, expected", [
    ("l1", 0.5), ("l2", 0.25 * 2 ** 0.5), ("linf", 0.25)])
def test_min_distance_vote_bound_counts_several_light_trees(distance, expected):
    case = SimpleNamespace(seed="heavy and light", forest=_heavy_and_light_trees(), table=None,
                           instance=ProblemInstance(x0=(0.1, 0.1), target_class=1, eta=0, E=0))
    sol, _ = assert_matches_oracle(case, MIN_DISTANCE, distance=distance)
    assert sol.objective == pytest.approx(expected, abs=1e-9)
    assert sol.x == pytest.approx((0.35, 0.35), abs=1e-9)
    assert sol.chosen_leaves == {0: 2, 1: 2, 2: 2, 3: 2, 4: 1}
    # Nodes (children nearest first, the vote needs weight 4): 1 root; 2 tree 0 votes 0,
    # cut: trees 2 and 4 can no longer vote 1, so trees 1 and 3 bring weight 2 at most;
    # 3 tree 0 votes 1; 4 tree 1 votes 0; 5 tree 2 votes 0, cut (only weight 1 left);
    # 6 tree 2 votes 1; 7 tree 3 votes 0; 8 tree 4 votes 0 (a leaf, vote lost); 9 tree 4
    # votes 1: incumbent at x = (0.9, 0.1); 10 tree 1 votes 1; 11 tree 2 votes 0, cut (tree
    # 4 cannot vote 1, weight 3 at most); 12 tree 2 votes 1; 13 tree 3 votes 0, cut: tree
    # 4 can vote 1 only at the incumbent's distance or more; 14 tree 3 votes 1, the vote
    # is won; 15 tree 4 votes 0: the optimum; 16 tree 4 votes 1, cut by its distance.
    assert sol.nodes_explored == 16


def _e0_table(table):
    return NodeProbabilityTable(table.individual, 0, {k: row[:1] for k, row in table.probs.items()})


@pytest.mark.parametrize("objective, table_of, E, weights", [
    (MAX_PATH, lambda table: None, 1, None),            # no table
    (KAPPA_PATH, lambda table: None, 1, None),
    (MAX_PATH, lambda table: table, 2, None),           # table E=1 below the instance's E=2
    (MIN_PATH, _e0_table, 1, None),                     # table E=0 below the instance's E=1
    (MIN_DISTANCE, lambda table: None, 1, (1.0,)),      # one weight per feature needed
    (MIN_DISTANCE, lambda table: None, 1, (1.0, 1.0, 1.0)),
    (MIN_DISTANCE, lambda table: None, 1, ()),          # empty is not the unit-weight default
], ids=["no-table-max", "no-table-kappa", "table-e1-instance-e2", "table-e0-instance-e1",
        "one-weight", "three-weights", "no-weights"])
def test_oracle_rejects_what_solve_rejects(firefighter, objective, table_of, E, weights):
    forest, table = firefighter   # the table covers E=1
    instance = ProblemInstance(x0=(0.5, 0.5), target_class=1, eta=E, E=E)
    config = SolverConfig(objective=objective, distance_weights=weights)
    with pytest.raises(ValueError) as solve_err:
        solve(forest, instance, table_of(table), config)
    with pytest.raises(ValueError) as oracle_err:
        brute_force_oracle(forest, instance, table_of(table), config)
    assert str(oracle_err.value) == str(solve_err.value)


@pytest.mark.parametrize("seed", SEEDS)
def test_kappa_one_mu_zero_equals_min_path(seed):
    case = make_random_instance(seed)
    mn = solve(case.forest, case.instance, case.table, SolverConfig(objective=MIN_PATH))
    kp = solve(case.forest, case.instance, case.table,
               SolverConfig(objective=KAPPA_PATH, kappa=1, mu=0.0))
    assert mn.status == kp.status
    if mn.status == "optimal":
        assert mn.objective == kp.objective       # exact, same arithmetic
        assert mn.effort == kp.effort
        assert mn.essential_trees == kp.essential_trees


@pytest.mark.parametrize("seed", range(12))
def test_ordering_chain(seed):
    case = make_random_instance(seed)
    mn = solve(case.forest, case.instance, case.table, SolverConfig(objective=MIN_PATH))
    if mn.status != "optimal":
        return
    kp = solve(case.forest, case.instance, case.table,
               SolverConfig(objective=KAPPA_PATH, kappa=case.kappa_ord, mu=0.0))
    mx = solve(case.forest, case.instance, case.table, SolverConfig(objective=MAX_PATH))
    assert mn.objective <= kp.objective + 1e-12
    assert mn.objective <= mx.objective + 1e-12
    per_tree_value_chain(case, case.kappa_ord)


@pytest.mark.parametrize("seed", range(8))
def test_solves_are_deterministic(seed):
    case = make_random_instance(seed)
    for objective in (MAX_PATH, MIN_PATH, KAPPA_PATH, MIN_DISTANCE):
        kw = {"kappa": case.kappa, "mu": case.mu} if objective == KAPPA_PATH else {}
        a = solve(case.forest, case.instance, case.table, SolverConfig(objective=objective, **kw))
        b = solve(case.forest, case.instance, case.table, SolverConfig(objective=objective, **kw))
        assert (a.status, a.objective, a.effort, a.chosen_leaves, a.essential_trees, a.x) == \
               (b.status, b.objective, b.effort, b.chosen_leaves, b.essential_trees, b.x)


@pytest.mark.parametrize("seed", range(10))
def test_budget_monotonicity(seed):
    case = make_random_instance(seed)
    for objective in (MAX_PATH, MIN_PATH, KAPPA_PATH):
        kw = {"kappa": case.kappa_ord, "mu": 0.0} if objective == KAPPA_PATH else {}
        prev = None
        for eta in range(4):
            inst = type(case.instance)(x0=case.instance.x0,
                                       target_class=case.instance.target_class,
                                       eta=eta, E=case.instance.E)
            sol = solve(case.forest, inst, case.table, SolverConfig(objective=objective, **kw))
            if sol.status != "optimal":
                continue
            if prev is not None:
                assert sol.objective >= prev
            prev = sol.objective
        prev = None
        for E in range(3):
            inst = type(case.instance)(x0=case.instance.x0,
                                       target_class=case.instance.target_class,
                                       eta=case.instance.eta, E=E)
            sol = solve(case.forest, inst, case.table, SolverConfig(objective=objective, **kw))
            if sol.status != "optimal":
                continue
            if prev is not None:
                assert sol.objective >= prev
            prev = sol.objective
