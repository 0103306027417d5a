import pytest

from treeshift import (KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH, FeatureMeta,
                       Forest, Leaf, Node, NodeProbabilityTable, ProblemInstance,
                       SolverConfig, Tree, brute_force_oracle, choose_point,
                       enumerate_effort_allocations, evaluate_allocation,
                       path_probability, solve_kappa_path, solve_max_path,
                       solve_min_distance, solve_min_path, tree_value_profile,
                       verify_solution)
from treeshift.fixtures import (LEAF_NO_LEFT, LEAF_NO_RIGHT, LEAF_YES_LEFT,
                                LEAF_YES_RIGHT)

TOL = 1e-9


def _cfg(objective, **kw):
    return SolverConfig(objective=objective, **kw)


# --- SolverConfig validation ----------------------------------------------------------


@pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
def test_config_rejects_kappa_fraction_outside_unit_interval(fraction):
    with pytest.raises(ValueError):
        _cfg(KAPPA_PATH, kappa_fraction=fraction)


def test_config_accepts_kappa_fraction_one():
    assert _cfg(KAPPA_PATH, kappa_fraction=1.0).kappa_fraction == 1.0


@pytest.mark.parametrize("weights", [(-1.0, 1.0), (1.0, float("inf")), (float("nan"), 1.0)])
def test_config_rejects_bad_distance_weights(weights):
    with pytest.raises(ValueError):
        _cfg(MIN_DISTANCE, distance_weights=weights)


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


# --- tree_value_profile ------------------------------------------------------------


def test_profile_min_path_effort_a(firefighter):
    forest, table = firefighter
    profile = tree_value_profile(forest, 0, table, (0, 1), 1, _cfg(MIN_PATH))
    assert profile.leaf_theta[LEAF_YES_LEFT] == pytest.approx(0.36, abs=TOL)
    assert profile.leaf_theta[LEAF_YES_RIGHT] == pytest.approx(0.32, abs=TOL)
    assert profile.leaf_theta[LEAF_NO_LEFT] == 1.0
    assert profile.robust_value == pytest.approx(0.32, abs=TOL)


def test_profile_kappa_two_order_statistic(firefighter):
    forest, table = firefighter
    profile = tree_value_profile(forest, 0, table, (0, 1), 1, _cfg(KAPPA_PATH, kappa=2, mu=0.0))
    assert profile.sorted_theta == pytest.approx((0.32, 0.36, 1.0, 1.0), abs=TOL)
    assert profile.robust_value == pytest.approx(0.36, abs=TOL)


def test_profile_never_positive_tree():
    tree = Tree(0, [], [Leaf(0, 0)])
    forest = Forest([tree], [FeatureMeta(0, "x", mutable=True, beneficial="increase")])
    table = NodeProbabilityTable(0, 1, {})
    profile = tree_value_profile(forest, 0, table, (0,), 1, _cfg(MIN_PATH))
    assert profile.robust_value is None and not profile.eligible


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


def test_oracle_refuses_above_cap(firefighter, firefighter_instance):
    forest, table = firefighter
    with pytest.raises(ValueError):
        brute_force_oracle(forest, firefighter_instance, table,
                           _cfg(MAX_PATH, oracle_cap=2))


def test_zero_time_limit_reports_timeout(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_max_path(forest, firefighter_instance, table,
                         _cfg(MAX_PATH, time_limit=0.0))
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


# --- choose_point -----------------------------------------------------------------------


def test_choose_point_projection():
    box = [(0.7, 1.0), (0.6, 1.0)]
    assert choose_point(box, (0.65, 0.5), "project_x0") == (0.7, 0.6)


def test_choose_point_inside_is_identity():
    box = [(0.0, 1.0), (0.0, 1.0)]
    assert choose_point(box, (0.4, 0.9), "project_x0") == (0.4, 0.9)


def test_choose_point_center():
    assert choose_point([(0.0, 1.0), (0.8, 1.0)], (0, 0), "box_center") == (0.5, 0.9)


def test_choose_point_empty_box_rejected():
    with pytest.raises(ValueError):
        choose_point(None, (0.5,), "project_x0")


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


def test_verify_catches_empty_joint_box(firefighter, firefighter_instance):
    forest, table = firefighter
    sol = solve_max_path(forest, firefighter_instance, table)
    sol.chosen_leaves = dict(sol.chosen_leaves)
    sol.chosen_leaves[0] = LEAF_NO_RIGHT    # x no longer inside the claimed leaf
    verdict = verify_solution(forest, firefighter_instance, table, sol, _cfg(MAX_PATH))
    assert not verdict.passed
    assert any("leaf assignment" in f or "box intersection" in f for f in verdict.failures)


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
