"""Correctness gate: each checked operation is compared with the reference
values recorded at the seed commit, and every found solution is verified.

Objectives are compared on a relative scale at 1e-9, and a zero objective
must stay exactly zero (``objective_matches``). Effort vectors,
chosen leaves, ``wall_time`` and ``nodes_explored`` are not compared, because
a correct change may break ties between optimal plans differently. Cohort
percentages are compared within a Monte-Carlo tolerance, because a correct
change may re-key the simulation's random streams.
"""
from __future__ import annotations

import dataclasses
import math

from treeshift import (MAX_PATH, ProblemInstance, SolverConfig, solve_max_path,
                       verify_solution)
from treeshift.fixtures import firefighter_forest, firefighter_table

OBJECTIVE_TOL = 1e-9
MC_STANDARD_ERRORS = 5.0


class Gate:
    """Counts attempted and failed operations and names the failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, operation: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 25:
                self.failures.append(f"{operation}: {'; '.join(problems)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def observe_solve(forest, instance, table, config, solution) -> dict:
    """What the gate compares for one solve: status, objective, verification."""
    failures = (verify_solution(forest, instance, table, solution, config).failures
                if solution.found else [])
    return {"status": solution.status, "objective": solution.objective, "verify": failures}


def objective_matches(observed, reference) -> bool:
    """Equal up to a relative 1e-9; None and 0.0 only equal themselves.

    ``objectives_close`` also accepts an absolute difference of 1e-9, which
    would pass any plan whose objective is below 1e-9: the 51-tree objectives
    are 1e-13 to 1e-16, and ``min_path`` is 0.0.
    """
    if observed is None or reference is None or observed == 0 or reference == 0:
        return observed == reference
    return math.isclose(observed, reference, rel_tol=OBJECTIVE_TOL, abs_tol=0.0)


def solve_problems(observed: dict, reference) -> list[str]:
    if reference is None:
        return ["no reference value for this solve"]
    status, objective = reference
    problems = []
    if observed["status"] != status:
        problems.append(f"status {observed['status']} != reference {status}")
    elif not objective_matches(observed["objective"], objective):
        problems.append(f"objective {observed['objective']!r} != reference {objective!r}")
    if observed["verify"]:
        problems.append("verify_solution failed: " + ", ".join(observed["verify"]))
    return problems


def mc_tolerance(n_individuals: int, n_reps: int) -> float:
    """Percentage points two independent cohort estimates may differ by.

    Each individual's hit rate has variance at most 1/(4 n_reps); the cohort
    mean of n individuals at most 1/(4 n n_reps); a difference of two
    independent estimates twice that. The tolerance is five standard errors.
    """
    return MC_STANDARD_ERRORS * 100.0 * math.sqrt(2 * 0.25 / (n_individuals * n_reps))


def percent_problems(observed: float, reference, n_individuals: int, n_reps: int) -> list[str]:
    if reference is None:
        return ["no reference value for this feature set"]
    tol = mc_tolerance(n_individuals, n_reps)
    if abs(observed - reference) > tol:
        return [f"{observed:.2f}% is more than {tol:.2f} points from reference {reference:.2f}%"]
    return []


def self_test() -> list[str]:
    """Show that the gate catches forged results; returns what it missed.

    A forged objective (also one far below 1e-9, and one off a reference of
    0.0), a forged status and a solution moved off its leaves (so that
    verification fails) must each raise failed_frac above 0, while the
    genuine result, and a tiny objective off by rounding, keep it at 0.
    """
    forest, table = firefighter_forest(), firefighter_table()
    instance = ProblemInstance(x0=(0.5, 0.5), target_class=1, eta=1, E=1)
    config = SolverConfig(objective=MAX_PATH)
    solution = solve_max_path(forest, instance, table, config)
    genuine = observe_solve(forest, instance, table, config, solution)
    reference = (genuine["status"], genuine["objective"])
    moved = dataclasses.replace(solution, x=(0.0, 0.0))
    tiny = ("optimal", 5.290192232884195e-13)  # the 51-tree ladder's max_path optimum
    cases = {
        "genuine result": (genuine, reference, False),
        "forged objective": ({**genuine, "objective": genuine["objective"] * (1 + 1e-6)},
                             reference, True),
        "tiny objective after rounding": ({**genuine, "objective": tiny[1] * (1 + 1e-12)},
                                          tiny, False),
        "forged tiny objective": ({**genuine, "objective": tiny[1] / 10}, tiny, True),
        "forged objective off 0.0": ({**genuine, "objective": 1e-12}, ("optimal", 0.0), True),
        "forged status": ({**genuine, "status": "infeasible"}, reference, True),
        "failed verification": (observe_solve(forest, instance, table, config, moved),
                                reference, True),
    }
    missed = []
    for name, (observed, expected, should_fail) in cases.items():
        gate = Gate()
        gate.record(name, solve_problems(observed, expected))
        if (gate.failed_frac > 0) != should_fail:
            missed.append(f"{name} gave failed_frac {gate.failed_frac}")
    return missed
