"""``min_distance`` documents, node counts included, pinned by digest.

A faster ``min_distance`` search must make every cut decision the slower one
made, so it explores the same nodes and returns the same document. The
digests in ``min_distance_digests.json`` are the sha256 of each canonical
solution document without ``wall_time`` only (``nodes_explored`` is kept), for
three off-target training rows of a 15-tree seed-1 forest and of the same
forest with unequal tree weights, under l1/l2/linf, with unit weights and with
feature weights that include a zero.

To re-record after an intended change of the search:
``PYTHONPATH=src python tests/test_min_distance_digests.py > tests/min_distance_digests.json``.
"""
import hashlib
import json
import sys
from pathlib import Path

from treeshift import (MIN_DISTANCE, ProblemInstance, SolverConfig, TrainConfig,
                       forest_from_dict, forest_to_dict, solve, split, synth_generate, train)

DIGESTS = Path(__file__).with_name("min_distance_digests.json")
FEATURE_WEIGHTS = {"unit": None, "weighted": (0.0, 1.0, 0.5, 2.0, 1.0, 0.25, 3.0, 1.0)}


def document_digest(solution) -> str:
    doc = solution.to_dict()
    del doc["wall_time"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def min_distance_digests() -> dict:
    tr, _ = split(synth_generate(300, 8, seed=1), 2 / 3, seed=1)
    forest = train(tr, TrainConfig(num_trees=15, max_depth=4, seed=1))
    doc = forest_to_dict(forest)
    for i, tree in enumerate(doc["trees"]):
        tree["weight"] = 1.0 + (i % 3) * 0.5
    forests = {"equal trees": forest, "weighted trees": forest_from_dict(doc)}
    rows = [i for i in range(tr.num_rows) if forest.predict(tr.X[i])[0] != 0][:3]
    out = {}
    for name, f in forests.items():
        for row in rows:
            instance = ProblemInstance(x0=tuple(tr.X[row]), target_class=0, eta=1, E=1)
            for distance in ("l1", "l2", "linf"):
                for weights_name, weights in FEATURE_WEIGHTS.items():
                    config = SolverConfig(objective=MIN_DISTANCE, distance=distance,
                                          distance_weights=weights)
                    out[f"{name} row {row} {distance} {weights_name}"] = document_digest(
                        solve(f, instance, config=config))
    return out


def test_min_distance_documents_and_node_counts_are_unchanged():
    expected = json.loads(DIGESTS.read_text())
    observed = min_distance_digests()
    assert len(observed) == 36
    assert observed.keys() == expected.keys()
    changed = [key for key in expected if observed[key] != expected[key]]
    assert not changed, f"{len(changed)} documents changed, first: {changed[:3]}"


if __name__ == "__main__":
    json.dump(min_distance_digests(), sys.stdout, indent=1)
    print()
