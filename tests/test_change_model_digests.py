"""Outputs of the change model on the desk configuration, pinned by digest.

The change model decides, per feature, whether it moves and whether it takes
effort. The branch-probability tables, the cohort simulation and the feasible
baseline all follow from that decision, so a refactor of it must leave them
unchanged. ``change_model_digests.json`` holds the sha256 of:

- the table document of each of the first 40 off-target training rows of the
  seed-0 desk forest, at E=2
- the per-individual percentages of ``simulate_cohort`` on the off-target
  test rows, for four effort-feature sets
- the per-individual percentages of ``feasible_baseline`` on the same rows

To re-record after an intended change of the change model:
``PYTHONPATH=src python tests/test_change_model_digests.py > tests/change_model_digests.json``.
"""
import hashlib
import json
import sys
from pathlib import Path

from treeshift import (PerturbationSpec, TrainConfig, estimate_node_probabilities,
                       feasible_baseline, simulate_cohort, split, synth_generate, train)

DIGESTS = Path(__file__).with_name("change_model_digests.json")
# no effort; one continuous feature; a continuous and a binary one; every mutable feature
EFFORT_SETS = {"none": (), "habit2": (2,), "habit3+flag4": (3, 4), "mutable": (2, 3, 4, 5, 6, 7)}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def change_model_digests() -> dict:
    ds = synth_generate(600, 8, seed=0)
    tr, te = split(ds, 2 / 3, seed=0)
    forest = train(tr, TrainConfig(num_trees=9, max_depth=4, seed=0))
    spec = PerturbationSpec.from_dataset(tr, num_samples=1000, seed=0)
    out = {}
    rows = [i for i in range(tr.num_rows) if forest.predict(tr.X[i])[0] != 0][:40]
    for row in rows:
        table = estimate_node_probabilities(forest, tr.X[row], spec, E=2, individual=row)
        out[f"table row {row}"] = _digest(table.to_dict())
    cohort = [te.X[i] for i in range(te.num_rows) if forest.predict(te.X[i])[0] != 0]
    for name, features in EFFORT_SETS.items():
        result = simulate_cohort(forest, cohort, 0, features, spec, n_reps=50, seed=0)
        out[f"simulate {name}"] = _digest(result.per_individual)
    base = feasible_baseline(forest, cohort, 0, spec, n_reps=50, seed=0)
    out["feasible baseline"] = _digest(base.per_individual)
    return out


def test_change_model_outputs_are_unchanged():
    expected = json.loads(DIGESTS.read_text())
    observed = change_model_digests()
    assert len(observed) == 45
    assert observed.keys() == expected.keys()
    changed = [key for key in expected if observed[key] != expected[key]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:3]}"


if __name__ == "__main__":
    json.dump(change_model_digests(), sys.stdout, indent=1)
    print()
