"""The path solves of the solver ladder, pinned: status, objective bits, node count,
effort and chosen leaves.

The rungs are built as the benchmark's ladder builds them (``helpers.ladder_rung``):
25 trees of depth 5 and 51 of depth 6 on ``synth_generate(800, 14, seed=0)``, the first
off-target training row, E=1, eta 4. A change to scoring, bounds or the search's cuts
that moves an answer, a tie or a node count fails here.
"""
import pytest

from treeshift import KAPPA_PATH, MAX_PATH, MIN_PATH, SolverConfig, solve, verify_solution

from helpers import ladder_rung

RUNGS = {"r25": (25, 5), "r51": (51, 6)}
CONFIGS = {
    MAX_PATH: SolverConfig(objective=MAX_PATH),
    MIN_PATH: SolverConfig(objective=MIN_PATH),
    KAPPA_PATH: SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5,
                             positive_leaves_only=True),
}
# (status, repr(objective), nodes_explored, effort, chosen leaf per tree)
PINS = {
    ("r25", MAX_PATH): (
        "optimal", "2.4936374755179467e-05", 27, (0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0),
        (23, 20, 16, 14, 41, 40, 42, 26, 35, 31, 32, 28, 28, 35, 21, 37, 43, 21, 25, 27, 37, 29,
         26, 28, 32)),
    ("r25", MIN_PATH): (
        "optimal", "0.0", 27, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (5, 6, 5, 5, 7, 4, 5, 12, 5, 10, 6, 5, 14, 9, 8, 11, 6, 9, 3, 19, 5, 9, 5, 7, 7)),
    ("r25", KAPPA_PATH): (
        "optimal", "2.4278453810831577e-07", 27, (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0),
        (5, 6, 5, 5, 4, 23, 5, 12, 5, 10, 11, 5, 14, 9, 5, 11, 6, 6, 16, 3, 5, 7, 5, 4, 5)),
    ("r51", MAX_PATH): (
        "optimal", "5.290192232884195e-13", 419, (0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0),
        (47, 30, 32, 26, 55, 57, 81, 53, 68, 30, 63, 48, 48, 39, 44, 62, 64, 48, 47, 35, 53, 47,
         58, 47, 46, 46, 28, 48, 34, 61, 35, 39, 48, 36, 53, 65, 50, 14, 28, 55, 35, 37, 35, 57,
         43, 40, 58, 56, 53, 32, 17)),
    ("r51", KAPPA_PATH): (
        "optimal", "2.6026600952678134e-16", 141, (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0),
        (6, 8, 14, 6, 16, 4, 9, 27, 19, 12, 7, 13, 11, 18, 5, 6, 9, 28, 7, 3, 6, 8, 9, 13, 31, 6,
         6, 2, 4, 4, 12, 14, 4, 2, 9, 3, 4, 8, 11, 27, 12, 15, 6, 6, 10, 3, 5, 6, 25, 7, 17)),
}


@pytest.mark.parametrize("rung, objective", sorted(PINS))
def test_ladder_path_solve_keeps_its_pins(rung, objective):
    forest, table, instance = ladder_rung(*RUNGS[rung])
    config = CONFIGS[objective]
    sol = solve(forest, instance, table, config)
    leaves = tuple(sol.chosen_leaves[t] for t in range(forest.num_trees))
    got = (sol.status, repr(sol.objective), sol.nodes_explored, sol.effort, leaves)
    assert got == PINS[rung, objective]
    verdict = verify_solution(forest, instance, table, sol, config)
    assert verdict.passed, verdict.failures
