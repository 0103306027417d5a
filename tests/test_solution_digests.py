"""Solution documents of the desk configuration, pinned by digest.

Pruning may change how many nodes a search explores, never which optimum it
returns: among equally good plans, the first one the search visits wins. The
digests in ``solution_digests.json`` are the sha256 of each canonical
solution document, without ``wall_time`` and ``nodes_explored``, for the first
ten off-target training rows of the seed-0 desk forest, every objective, at
eta 1 and 2. A change to the search that re-breaks a tie shows up here.

To re-record after an intended change of the answers:
``PYTHONPATH=src python tests/test_solution_digests.py > tests/solution_digests.json``.
"""
import hashlib
import json
import sys
from pathlib import Path

from treeshift import (KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH, PerturbationSpec,
                       ProblemInstance, SolverConfig, TrainConfig,
                       estimate_node_probabilities, solve, split, synth_generate, train)

DIGESTS = Path(__file__).with_name("solution_digests.json")
CONFIGS = {
    MAX_PATH: SolverConfig(objective=MAX_PATH),
    MIN_PATH: SolverConfig(objective=MIN_PATH),
    KAPPA_PATH: SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5, mu=1e-6),
    MIN_DISTANCE: SolverConfig(objective=MIN_DISTANCE),
}


def document_digest(solution) -> str:
    doc = solution.to_dict()
    del doc["wall_time"], doc["nodes_explored"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def desk_digests() -> dict:
    ds = synth_generate(600, 8, seed=0)
    tr, _ = split(ds, 2 / 3, seed=0)
    forest = train(tr, TrainConfig(num_trees=9, max_depth=4, seed=0))
    spec = PerturbationSpec.from_dataset(tr, num_samples=1000, seed=0)
    rows = [i for i in range(tr.num_rows) if forest.predict(tr.X[i])[0] != 0][:10]
    out = {}
    for row in rows:
        table = estimate_node_probabilities(forest, tr.X[row], spec, E=1, individual=row)
        for eta in (1, 2):
            instance = ProblemInstance(x0=tuple(tr.X[row]), target_class=0, eta=eta, E=1)
            for objective, config in CONFIGS.items():
                out[f"row {row} eta {eta} {objective}"] = document_digest(
                    solve(forest, instance, table, config))
    return out


def test_desk_solution_documents_are_unchanged():
    expected = json.loads(DIGESTS.read_text())
    observed = desk_digests()
    assert len(observed) == 80
    assert observed.keys() == expected.keys()
    changed = [key for key in expected if observed[key] != expected[key]]
    assert not changed, f"{len(changed)} documents changed, first: {changed[:3]}"


if __name__ == "__main__":
    json.dump(desk_digests(), sys.stdout, indent=1)
    print()
