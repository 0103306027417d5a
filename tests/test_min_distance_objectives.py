"""``min_distance`` objectives, pinned bit for bit.

A change to the ``min_distance`` search may move the point it returns among
equally near ones, or the nodes it explores, but never the distance: for
each case, ``min_distance_objectives.json`` holds the status and the
``repr`` of the objective. The cases are the 36 of
``test_min_distance_digests.py`` and every off-target training row of the
seed-0 desk forest (``synth_generate(600, 8)``, 9 trees, depth 4) at l1, l2
and linf. Each found solution must also pass ``verify_solution``.

Re-record only for a change that is meant to move a distance:
``PYTHONPATH=src python tests/test_min_distance_objectives.py > tests/min_distance_objectives.json``.
"""
import json
import sys
from pathlib import Path

from test_min_distance_digests import min_distance_cases
from treeshift import (MIN_DISTANCE, ProblemInstance, SolverConfig, TrainConfig, solve, split,
                       synth_generate, train, verify_solution)

OBJECTIVES = Path(__file__).with_name("min_distance_objectives.json")


def desk_cases():
    tr, _ = split(synth_generate(600, 8, seed=0), 2 / 3, seed=0)
    forest = train(tr, TrainConfig(num_trees=9, max_depth=4, seed=0))
    for row in range(tr.num_rows):
        if forest.predict(tr.X[row])[0] == 0:
            continue
        instance = ProblemInstance(x0=tuple(tr.X[row]), target_class=0, eta=1, E=1)
        for distance in ("l1", "l2", "linf"):
            config = SolverConfig(objective=MIN_DISTANCE, distance=distance)
            yield f"desk row {row} {distance}", forest, instance, config


def min_distance_objectives(check=lambda *case: None) -> dict:
    out = {}
    for key, forest, instance, config in [*min_distance_cases(), *desk_cases()]:
        sol = solve(forest, instance, config=config)
        check(key, forest, instance, config, sol)
        out[key] = [sol.status, repr(sol.objective)]
    return out


def test_min_distance_objectives_are_unchanged():
    def check(key, forest, instance, config, sol):
        if sol.found:
            verdict = verify_solution(forest, instance, None, sol, config)
            assert verdict.passed, (key, verdict.failures)

    expected = json.loads(OBJECTIVES.read_text())
    observed = min_distance_objectives(check)
    assert observed.keys() == expected.keys()
    changed = [key for key in expected if observed[key] != expected[key]]
    assert not changed, f"{len(changed)} objectives changed, first: {changed[:3]}"


if __name__ == "__main__":
    json.dump(min_distance_objectives(), sys.stdout, indent=1)
    print()
