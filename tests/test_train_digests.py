"""Trained forests pinned by digest.

Every later stage reads the trained forest: probability tables, solves,
documents and the benchmark references. A faster split search must choose
every split the slower one chose, so it must grow the same forests byte for
byte. The digests in ``train_digests.json`` are the sha256 of each forest's
canonical ``forest_to_dict`` JSON: the desk forest, the solver ladder's r25 and
r51 rungs and the 101-tree rung as ``bench/workloads.py`` and CI build them,
and desk-data variants without bootstrap, with every feature tried at each
split and with a larger ``min_samples_split``.

To re-record after an intended change of training:
``PYTHONPATH=src python tests/test_train_digests.py > tests/train_digests.json``.
"""
import hashlib
import json
import sys
from pathlib import Path

from treeshift import TrainConfig, forest_to_dict, split, synth_generate, train

DIGESTS = Path(__file__).with_name("train_digests.json")


def forest_digest(forest) -> str:
    return hashlib.sha256(json.dumps(forest_to_dict(forest), sort_keys=True).encode()).hexdigest()


def train_digests() -> dict:
    desk, _ = split(synth_generate(600, 8, seed=0), 2 / 3, seed=0)
    ladder, _ = split(synth_generate(800, 14, seed=0), 2 / 3, seed=0)
    wide, _ = split(synth_generate(800, 20, seed=0), 2 / 3, seed=0)
    cases = {
        "desk 9x4": (desk, TrainConfig(num_trees=9, max_depth=4, seed=0)),
        "desk 9x6 no bootstrap": (desk, TrainConfig(num_trees=9, max_depth=6, bootstrap=False,
                                                    seed=0)),
        "desk 9x6 all features": (desk, TrainConfig(num_trees=9, max_depth=6,
                                                    features_per_split=8, seed=0)),
        "desk 9x6 min_samples_split 5": (desk, TrainConfig(num_trees=9, max_depth=6,
                                                           min_samples_split=5, seed=0)),
        "ladder r25": (ladder, TrainConfig(num_trees=25, max_depth=5, seed=0)),
        "ladder r51": (ladder, TrainConfig(num_trees=51, max_depth=6, seed=0)),
        "r101": (wide, TrainConfig(num_trees=101, max_depth=6, seed=0)),
    }
    return {name: forest_digest(train(ds, config)) for name, (ds, config) in cases.items()}


def test_trained_forests_are_unchanged():
    expected = json.loads(DIGESTS.read_text())
    observed = train_digests()
    assert observed.keys() == expected.keys()
    changed = [key for key in expected if observed[key] != expected[key]]
    assert not changed, f"forests changed: {changed}"


if __name__ == "__main__":
    json.dump(train_digests(), sys.stdout, indent=1)
    print()
