"""Randomized equivalence against the exhaustive oracle (dev-scale suite).

The acceptance module runs the full 100-seed version with timing; this keeps
a quick slice in the regular suite so solver regressions surface fast.
"""
from dataclasses import replace
from types import SimpleNamespace

import pytest

from treeshift import (KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH, DegenerateBoxError,
                       FeatureMeta, Forest, Leaf, Node, NodeProbabilityTable, ProblemInstance,
                       SolverConfig, Tree, leaf_of, objectives_close, solve,
                       solve_min_distance, solver, verify_solution)

from helpers import (DECIMAL_TREE_WEIGHTS, assert_matches_oracle, brute_force_oracle,
                     make_random_instance, make_weighted_distance_case, per_tree_value_chain)

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


@pytest.mark.parametrize("epsilon", [0.01, 0.05])
def test_min_distance_matches_oracle_where_gaps_hold_points(epsilon):
    # at these epsilons a leaf bound or x0 lies in a gap in many of the cases, where a
    # plan's point can lie in no leaf box of a tree outside the plan
    gappy = 0
    for seed in range(60):
        case = make_random_instance(seed)
        instance = replace(case.instance, epsilon=epsilon)
        try:
            gaps = case.forest.split_gaps(epsilon)
        except DegenerateBoxError:   # epsilon empties a box of this forest
            continue
        gappy += gaps.crowded or gaps.in_gap(instance.x0)
        for distance in ("l1", "linf"):
            assert_matches_oracle(SimpleNamespace(seed=seed, forest=case.forest, table=None,
                                                  instance=instance),
                                  MIN_DISTANCE, distance=distance)
    assert gappy >= 10


@pytest.mark.parametrize("seeds, tree_weights", [
    *(pytest.param([seed], None, id=str(seed)) for seed in range(12)),
    # sums of these weights round, so the vote depends on the order they are added in
    pytest.param(range(200), DECIMAL_TREE_WEIGHTS, id="decimal tree weights"),
])
def test_min_distance_weighted_matches_oracle(seeds, tree_weights):
    for seed in seeds:
        forest, instance, weights, kind = make_weighted_distance_case(seed, tree_weights)
        config = SolverConfig(objective=MIN_DISTANCE, distance=kind, distance_weights=weights)
        sol = solve_min_distance(forest, instance, config)
        oracle = brute_force_oracle(forest, instance, None, config)
        assert sol.status == oracle.status, seed
        if sol.status == "optimal":
            assert objectives_close(sol.objective, oracle.objective), seed
            verdict = verify_solution(forest, instance, None, sol, config)
            assert verdict.passed, (seed, verdict.failures)


def _document(solution):
    doc = solution.to_dict()
    del doc["wall_time"]
    return doc


@pytest.mark.parametrize("seed", range(12))
def test_min_distance_leaf_distances_are_kept_per_solve(seed, monkeypatch):
    # two points on one forest, each asking for the class the forest does not give it,
    # solved in both orders: nothing measured for one may reach the other; a cache that
    # starts over at every residual vector changes nothing
    case = make_random_instance(seed)
    forest, config = case.forest, SolverConfig(objective=MIN_DISTANCE)
    instances = [replace(case.instance, x0=x0, target_class=1 - forest.predict(x0)[0])
                 for x0 in (case.instance.x0, tuple(1.0 - v for v in case.instance.x0))]
    first = [_document(solve_min_distance(forest, i, config)) for i in instances]
    second = [_document(solve_min_distance(forest, i, config)) for i in instances[::-1]]
    assert first == second[::-1]
    monkeypatch.setattr(solver, "_CACHED_RESIDUALS", 1)
    assert [_document(solve_min_distance(forest, i, config)) for i in instances] == first
    for instance in instances:
        assert_matches_oracle(SimpleNamespace(seed=seed, forest=forest, table=None,
                                              instance=instance), MIN_DISTANCE)


def test_min_distance_decides_the_vote_like_forest_vote():
    # trees 0 and 2 vote 1 from x0 >= 0.5, trees 1 and 3 from x1 >= 0.5; at (0.6, 0.2) the
    # two classes tie at 1.1 + 0.6, so the forest predicts 0, while 3.4 - (1.1 + 0.6),
    # with 3.4 summed in reverse tree order, rounds below 1.1 + 0.6
    metas = [FeatureMeta(j, f"x{j}", mutable=True, beneficial="increase") for j in range(2)]
    trees = [Tree(0, [Node(0, j, 0.5, 1, 2)], [Leaf(1, 0), Leaf(2, 1)], weight=w)
             for j, w in [(0, 1.1), (1, 1.1), (0, 0.6), (1, 0.6)]]
    case = SimpleNamespace(seed="tied in float", forest=Forest(trees, metas), table=None,
                           instance=ProblemInstance(x0=(0.6, 0.2), target_class=1, eta=0, E=0))
    assert case.forest.predict(case.instance.x0)[0] == 0
    sol, _ = assert_matches_oracle(case, MIN_DISTANCE)
    assert sol.objective == pytest.approx(0.3, abs=1e-9)
    assert sol.x == pytest.approx((0.6, 0.5), abs=1e-9)


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
    # Nodes (target leaves nearest first, then the skip; the vote needs weight 4 of 7):
    # 1 root; 2 tree 0 votes 1; 3 tree 1 votes 1; 4 tree 2 votes 1; 5 tree 3 votes 1: the
    # vote is won even if tree 4 votes 0, so the search stops with tree 4 unvisited, and
    # the incumbent is x = (0.35, 0.35); 6 tree 3 skipped, cut: tree 4 can vote 1 only at
    # the incumbent's distance or more, so weight 3 at most; 7 tree 2 skipped, cut: of
    # trees 3 and 4 only tree 3 can still vote 1 nearer than the incumbent, weight 3 at
    # most; 8 tree 1 skipped and 9 tree 0 skipped, cut alike. Under linf tree 3 cannot
    # vote 1 nearer at 7 and 8 either; the count is the same.
    assert sol.nodes_explored == 9


def _one_split_forest(splits, weights=None):
    """Stumps, one per (feature, threshold, side voting 1), of unit weight unless
    ``weights`` are given, over two features, and the point (0.1, 0.1) to move into class 1."""
    metas = [FeatureMeta(j, f"x{j}", mutable=True, beneficial="increase") for j in range(2)]
    trees = [Tree(0, [Node(0, j, threshold, 1, 2)],
                  [Leaf(1, int(side == "left")), Leaf(2, int(side == "right"))], weight)
             for (j, threshold, side), weight in zip(splits, weights or [1.0] * len(splits))]
    return SimpleNamespace(seed=str(splits), forest=Forest(trees, metas), table=None,
                           instance=ProblemInstance(x0=(0.1, 0.1), target_class=1, eta=0, E=0))


@pytest.mark.parametrize("first_tree, nodes", [
    # tree 0's target leaf holds x0 and meets every later target leaf: the skip of tree 0
    # is not tried. 1 root; 2 tree 0 votes 1; 3 tree 1 votes 1, the vote is won at
    # distance 0.2; 4 tree 1 skipped, cut: tree 2 can vote 1 only at 0.5
    ((0, 0.5, "left"), 4),
    # tree 0's target leaf holds x0 but excludes the later target leaves: the skip is
    # tried. 1 root; 2 tree 0 votes 1, cut: no tree left can vote 1; 3 tree 0 skipped;
    # 4 tree 1 votes 1; 5 tree 2 votes 1, the vote is won at distance 0.5; 6 tree 2
    # skipped, with no vote left to win; 7 tree 1 skipped, cut: tree 2 reaches 0.5 only
    ((1, 0.2, "left"), 7),
], ids=["no later candidate removed", "later candidates removed"])
def test_min_distance_skips_a_tree_only_when_a_free_target_leaf_could_cost(first_tree, nodes):
    case = _one_split_forest([first_tree, (1, 0.3, "right"), (1, 0.6, "right")])
    assert case.forest.predict(case.instance.x0)[0] == 0
    sol, _ = assert_matches_oracle(case, MIN_DISTANCE)
    assert sol.objective == pytest.approx(0.2 if nodes == 4 else 0.5, abs=1e-9)
    assert sol.nodes_explored == nodes


def test_min_distance_stops_when_the_vote_is_won_and_fills_the_trees_left():
    # trees 0 and 1 vote 1 from x0 >= 0.3, tree 2 from x0 >= 0.2. 1 root; 2 tree 0 votes 1;
    # 3 tree 1 votes 1 and adds no residual, so its skip is not tried: the vote is
    # won with tree 2 unvisited; 4 tree 0 skipped, cut: tree 1 cannot vote 1 nearer than
    # the incumbent, so weight 1 at most. At x, tree 2 votes 1 as well.
    case = _one_split_forest([(0, 0.3, "right"), (0, 0.3, "right"), (0, 0.2, "right")])
    assert case.forest.predict(case.instance.x0)[0] == 0
    sol, _ = assert_matches_oracle(case, MIN_DISTANCE)
    assert sol.objective == pytest.approx(0.2, abs=1e-9)
    assert sol.nodes_explored == 4
    tree = case.forest.trees[2]
    assert sol.chosen_leaves[2] == leaf_of(tree, sol.x) == 2


def test_min_distance_gives_a_leaf_to_a_tree_whose_gap_holds_the_point():
    # Trees 0 and 1 vote 1 from x0 >= 0.3, tree 2 from x0 >= 0.3 + 5e-7: the leaf bound 0.3
    # lies in tree 2's gap (0.3 + 5e-7 - eps, 0.3 + 5e-7), in no leaf box of it, so each
    # tree votes against from a leaf of its own. 1 root; 2 tree 0 votes 1; 3 tree 1 votes
    # 1, the vote is won with tree 2 unvisited, but x0 = 0.3 is in its gap, so the search
    # goes on: 4 tree 2 votes 1 from the one leaf meeting the plan, at distance 0.2000005;
    # tree 1's left leaf misses tree 0's right one; 5 tree 0's left leaf, cut: no target
    # leaf meets it.
    case = _one_split_forest([(0, 0.3, "right"), (0, 0.3, "right"), (0, 0.3 + 5e-7, "right")])
    assert case.forest.split_gaps(case.instance.epsilon).crowded
    sol, oracle = assert_matches_oracle(case, MIN_DISTANCE)
    assert sol.objective == oracle.objective == 0.3 + 5e-7 - 0.1
    assert sol.x == (0.3 + 5e-7, 0.1) and sol.chosen_leaves == {0: 2, 1: 2, 2: 2}
    assert sol.nodes_explored == 5


def test_min_distance_gives_a_leaf_to_a_tree_whose_gap_holds_x0():
    # Tree 0 (weight 2) votes 1 from x0 >= 0.3, tree 1 (weight 1) from x1 >= 0.1 + 5e-7;
    # no leaf bound lies in a gap, but x1 = 0.1 does. 1 root; 2 tree 0 votes 1, the vote
    # is won at (0.3, 0.1), in tree 1's gap, so the search goes on: 3 tree 1 votes 1, at
    # 0.2 + 5e-7; 4 its left leaf, as near, cut; 5 tree 0's left leaf, cut: tree 1 weighs
    # too little.
    case = _one_split_forest([(0, 0.3, "right"), (1, 0.1 + 5e-7, "right")], weights=[2.0, 1.0])
    gaps = case.forest.split_gaps(case.instance.epsilon)
    assert not gaps.crowded and gaps.in_gap(case.instance.x0)
    sol, oracle = assert_matches_oracle(case, MIN_DISTANCE)
    assert sol.objective == oracle.objective
    assert sol.x == (0.3, 0.1 + 5e-7) and sol.chosen_leaves == {0: 2, 1: 2}
    assert sol.nodes_explored == 5


def test_min_distance_never_skips_a_tree_where_a_gap_can_hold_the_point():
    # Tree 0 (weight 1) votes 1 at x0 <= a = 0.300001 - eps, tree 1 (weight 1) at x0 <=
    # 0.3000005 - eps, tree 2 (weight 3) at x0 >= a. Tree 0's target leaf holds x0 and
    # meets tree 2's, so the skip rule would not try tree 0's vote against; but a lies in
    # tree 1's gap, and no leaf of tree 1 meets both those leaves. 1 root; 2 tree 0 votes
    # 1; 3 tree 1 votes 1, cut: tree 2 cannot vote 1 then, and tree 1's right leaf misses
    # tree 0's left one; 4 tree 0 votes 0 from its right leaf, at 0.200001; 5 tree 1
    # votes 0 from its right leaf; 6 tree 2 votes 1, won at distance 0.200001.
    a = 0.300001 - 1e-6
    case = _one_split_forest([(0, 0.300001, "left"), (0, 0.3000005, "left"), (0, a, "right")],
                             weights=[1.0, 1.0, 3.0])
    assert case.forest.predict(case.instance.x0)[0] == 0
    sol, oracle = assert_matches_oracle(case, MIN_DISTANCE)
    assert sol.objective == oracle.objective == 0.300001 - 0.1
    assert sol.x == (0.300001, 0.1) and sol.chosen_leaves == {0: 2, 1: 2, 2: 2}
    assert sol.nodes_explored == 6


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
