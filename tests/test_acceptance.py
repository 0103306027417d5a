"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The random-instance envelope is R<=5, depth<=3, d<=5, E<=2, eta<=3
with random probability tables and random target classes.
"""
import math
import time

import numpy as np
import pytest

from treeshift import (KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH, FeatureMeta,
                       FeaturePerturbation, Forest, Leaf, Node, PerturbationSpec,
                       ProblemInstance, SolverConfig, Tree, TrainConfig, accuracy,
                       effort_ranking,
                       enumerate_effort_allocations, estimate_node_probabilities,
                       evaluate_allocation, objectives_close, path_probability,
                       rsr_ranking, simulate_cohort, solve, solve_kappa_path,
                       solve_max_path, solve_min_path, split, synth_generate,
                       train, verify_solution)
from treeshift.fixtures import firefighter_forest, firefighter_table

from helpers import brute_force_oracle, make_random_instance, per_tree_value_chain

N_INSTANCES = 100
TOL = 1e-9


def _report(name, condition, detail=""):
    line = f"[acceptance] {name}: {'PASS' if condition else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert condition, f"{name} failed: {detail}"


@pytest.fixture(scope="session")
def suite():
    return [make_random_instance(seed) for seed in range(N_INSTANCES)]


def test_criterion_firefighter_golden():
    forest, table = firefighter_forest(), firefighter_table()
    instance = ProblemInstance(x0=(0.5, 0.5), target_class=1, eta=1, E=1)
    solve_max_path(forest, instance, table)  # warm-up outside the timed window
    started = time.perf_counter()
    best_max = solve_max_path(forest, instance, table)
    best_min = solve_min_path(forest, instance, table)
    alt_max = evaluate_allocation(forest, instance, table,
                                  SolverConfig(objective=MAX_PATH), (1, 0))
    alt_min = evaluate_allocation(forest, instance, table,
                                  SolverConfig(objective=MIN_PATH), (1, 0))
    elapsed = time.perf_counter() - started
    ok = (
        abs(best_max.objective - 0.36) <= TOL and best_max.effort == (0, 1)
        and abs(alt_max.objective - 0.20) <= TOL
        and abs(best_min.objective - 0.32) <= TOL and best_min.effort == (0, 1)
        and abs(alt_min.objective - 0.15) <= TOL
        and elapsed < 0.010
    )
    _report("firefighter golden values", ok,
            f"max {best_max.objective:.9f}/alt {alt_max.objective:.9f}, "
            f"min {best_min.objective:.9f}/alt {alt_min.objective:.9f}, {elapsed*1e3:.2f} ms")


def _configs_for(case):
    return {
        MAX_PATH: SolverConfig(objective=MAX_PATH),
        MIN_PATH: SolverConfig(objective=MIN_PATH),
        KAPPA_PATH: SolverConfig(objective=KAPPA_PATH, kappa=case.kappa, mu=case.mu),
        MIN_DISTANCE: SolverConfig(objective=MIN_DISTANCE),
    }


def test_criterion_oracle_equivalence(suite):
    started = time.perf_counter()
    mismatches = []
    for case in suite:
        for objective, config in _configs_for(case).items():
            sol = solve(case.forest, case.instance, case.table, config)
            oracle = brute_force_oracle(case.forest, case.instance, case.table, config)
            if sol.status != oracle.status:
                mismatches.append((case.seed, objective, "status"))
                continue
            if sol.status != "optimal":
                continue
            if not objectives_close(sol.objective, oracle.objective, TOL):
                mismatches.append((case.seed, objective, "objective"))
            verdict = verify_solution(case.forest, case.instance, case.table, sol, config)
            if not verdict.passed:
                mismatches.append((case.seed, objective, verdict.failures))
    elapsed = time.perf_counter() - started
    _report("oracle equivalence (100 instances, 4 objectives)",
            not mismatches and elapsed < 60.0,
            f"{len(mismatches)} mismatches, {elapsed:.1f} s")


def test_criterion_kappa_one_coincides_with_min_path(suite):
    diffs = []
    for case in suite:
        mn = solve(case.forest, case.instance, case.table, SolverConfig(objective=MIN_PATH))
        kp = solve(case.forest, case.instance, case.table,
                   SolverConfig(objective=KAPPA_PATH, kappa=1, mu=0.0))
        if mn.status != kp.status:
            diffs.append(case.seed)
        elif mn.status == "optimal" and mn.objective != kp.objective:
            diffs.append(case.seed)
    _report("kappa=1, mu=0 coincides with min-path (exact)", not diffs,
            f"{len(diffs)} deviating instances")


def test_criterion_ordering_and_monotonicity(suite):
    bad = []
    for case in suite:
        mn = solve(case.forest, case.instance, case.table, SolverConfig(objective=MIN_PATH))
        if mn.status == "optimal":
            kp = solve(case.forest, case.instance, case.table,
                       SolverConfig(objective=KAPPA_PATH, kappa=case.kappa_ord, mu=0.0))
            mx = solve(case.forest, case.instance, case.table,
                       SolverConfig(objective=MAX_PATH))
            if not (mn.objective <= kp.objective + 1e-12
                    and mn.objective <= mx.objective + 1e-12):
                bad.append((case.seed, "lower chain"))
            try:
                per_tree_value_chain(case, case.kappa_ord)
            except AssertionError:
                bad.append((case.seed, "per-tree chain"))
        for objective in (MAX_PATH, MIN_PATH, KAPPA_PATH):
            kw = {"kappa": case.kappa_ord, "mu": 0.0} if objective == KAPPA_PATH else {}
            config = SolverConfig(objective=objective, **kw)
            prev = None
            for eta in range(4):
                inst = ProblemInstance(x0=case.instance.x0,
                                       target_class=case.instance.target_class,
                                       eta=eta, E=case.instance.E)
                s = solve(case.forest, inst, case.table, config)
                if s.status != "optimal":
                    continue
                if prev is not None and s.objective < prev:
                    bad.append((case.seed, objective, "eta"))
                prev = s.objective
            prev = None
            for E in range(3):
                inst = ProblemInstance(x0=case.instance.x0,
                                       target_class=case.instance.target_class,
                                       eta=case.instance.eta, E=E)
                s = solve(case.forest, inst, case.table, config)
                if s.status != "optimal":
                    continue
                if prev is not None and s.objective < prev:
                    bad.append((case.seed, objective, "E"))
                prev = s.objective
    _report("ordering chain and eta/E monotonicity", not bad, f"{len(bad)} violations")


def test_criterion_path_probability_normalization(suite):
    worst = 0.0
    for case in suite:
        forest, instance, table = case.forest, case.instance, case.table
        mask = [m.mutable for m in forest.feature_metas]
        for effort in enumerate_effort_allocations(forest.num_features, instance.E,
                                                   instance.eta, mask):
            for t, tree in enumerate(forest.trees):
                total = math.fsum(path_probability(forest, t, l, table, effort)
                                  for l in tree.leaves)
                worst = max(worst, abs(total - 1.0))
    _report("per-tree path probabilities sum to 1", worst <= TOL, f"worst |sum-1| = {worst:.2e}")


def test_criterion_monte_carlo_closed_forms():
    def one_split_forest(threshold):
        tree = Tree(0, [Node(0, 0, threshold, 1, 2)], [Leaf(1, 0), Leaf(2, 1)])
        return Forest([tree], [FeatureMeta(0, "x0", mutable=True, beneficial="increase")])

    cases = {
        "symmetric 0.5": (one_split_forest(0.5), (0.5,), 0, 0.5),
        "out-of-support 0": (one_split_forest(0.6), (0.2,), 0, 0.0),
        "effort-uniform 1/3": (one_split_forest(0.5), (0.3,), 1, 1 / 3),
    }
    counts = {}
    for name, (forest, x0, e, truth) in cases.items():
        se = math.sqrt(truth * (1 - truth) / 1000)
        hits = 0
        for seed in range(100):
            spec = PerturbationSpec([FeaturePerturbation(sigma=0.2)], num_samples=1000,
                                    seed=seed)
            table = estimate_node_probabilities(forest, x0, spec, E=e)
            err = abs(table.right_prob(0, 0, e) - truth)
            if err <= 3 * se:
                hits += 1
        counts[name] = hits
    _report("Monte-Carlo closed forms within 3 SE in >= 99/100 seeds",
            all(h >= 99 for h in counts.values()), str(counts))


def test_criterion_normalized_table_arithmetic():
    # a normalized entry is the method's raw reclassification % over the feasible
    # baseline's, times 100
    value = 31.81 / 34.53 * 100.0
    _report("normalized report reproduces 31.81 -> 92.12 at baseline 34.53",
            abs(value - 92.12) <= 0.05, f"got {value:.4f}")


def test_criterion_end_to_end_desk_scale():
    started = time.perf_counter()
    target = 0
    etas = (1, 2)
    effort_means = {e: [] for e in etas}
    rsr_means = {e: [] for e in etas}
    accuracies = []
    for seed in range(5):
        ds = synth_generate(600, 8, seed=seed)
        tr, te = split(ds, 2 / 3, seed=seed)
        forest = train(tr, TrainConfig(num_trees=9, max_depth=4, seed=seed))
        accuracies.append(accuracy(forest, tr))
        spec = PerturbationSpec.from_dataset(tr, num_samples=1000, seed=seed)
        train_off = [i for i in range(tr.num_rows) if forest.predict(tr.X[i])[0] != target]
        cohort = [te.X[i] for i in range(te.num_rows) if forest.predict(te.X[i])[0] != target]
        config = SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5, mu=1e-6)
        for eta in etas:
            solutions = []
            for i in train_off:
                table = estimate_node_probabilities(forest, tr.X[i], spec, E=1, individual=i)
                inst = ProblemInstance(x0=tuple(tr.X[i]), target_class=target, eta=eta, E=1)
                solutions.append(solve_kappa_path(forest, inst, table, config))
            ranking = effort_ranking(solutions, ds.feature_metas, eta=eta)
            effort_means[eta].append(
                simulate_cohort(forest, cohort, target, ranking.top(eta), spec,
                                n_reps=100, seed=seed).percent)
            random_runs = [
                simulate_cohort(forest, cohort, target,
                                rsr_ranking(ds.feature_metas, eta, seed=seed * 10 + k).top(eta),
                                spec, n_reps=100, seed=seed).percent
                for k in range(3)
            ]
            rsr_means[eta].append(float(np.mean(random_runs)))
    elapsed = time.perf_counter() - started
    detail = (f"acc min {min(accuracies):.3f}; "
              + "; ".join(
                  f"eta={e}: effort {np.mean(effort_means[e]):.2f}% vs "
                  f"RSR {np.mean(rsr_means[e]):.2f}%" for e in etas)
              + f"; {elapsed:.0f} s")
    ok = (min(accuracies) >= 0.9
          and all(np.mean(effort_means[e]) >= np.mean(rsr_means[e]) for e in etas)
          and elapsed < 900.0)
    _report("end-to-end: 50%-path effort ranking >= RSR (5 seeds)", ok, detail)


def test_criterion_solver_scale_check():
    started = time.perf_counter()
    ds = synth_generate(800, 14, seed=0)
    tr, _ = split(ds, 2 / 3, seed=0)
    forest = train(tr, TrainConfig(num_trees=25, max_depth=5, seed=0))
    spec = PerturbationSpec.from_dataset(tr, num_samples=1000, seed=0)
    row = next(i for i in range(tr.num_rows) if forest.predict(tr.X[i])[0] == 1)
    table = estimate_node_probabilities(forest, tr.X[row], spec, E=1, individual=row)
    instance = ProblemInstance(x0=tuple(tr.X[row]), target_class=0, eta=4, E=1)
    config = SolverConfig(objective=MAX_PATH, time_limit=300.0)
    sol = solve_max_path(forest, instance, table, config)
    elapsed = time.perf_counter() - started
    verified = sol.found and verify_solution(forest, instance, table, sol, config).passed
    ok = elapsed < 300.0 and (sol.status == "optimal" or (sol.status == "timeout" and verified))
    ok = ok and verified
    _report("25-tree depth-5 scale check (d=14, E=1, eta=4)", ok,
            f"status={sol.status}, objective={sol.objective:.3e}, "
            f"nodes={sol.nodes_explored}, {elapsed:.1f} s")
