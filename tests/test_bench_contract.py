"""The parts of the treeshift API that the benchmark under ``bench/`` relies on.

The benchmark imports the package and reads fields of the shift document;
a change that drops one of them should fail here, not only in a benchmark run.
"""
import sys
from pathlib import Path

from treeshift import Solution
from treeshift.fixtures import firefighter_forest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# every key bench/workloads.py reads from a shift solution document
SHIFT_KEYS = {"status", "objective", "log_objective", "effort", "chosen_leaves",
              "essential_trees", "x", "nodes_explored", "wall_time"}


def test_bench_modules_import_and_gate_self_test_passes(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as checked in
    monkeypatch.syspath_prepend(str(BENCH))
    import gate
    import workloads  # noqa: F401  (imports every treeshift name the workloads call)

    assert gate.self_test() == []


def test_bench_counts_the_forest_it_reads(monkeypatch):
    # the workloads count nodes and used features through Tree.nodes, Tree.leaves and
    # Node.feature; the firefighter forest has 3 nodes and 4 leaves over 2 features
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    forest = firefighter_forest()
    assert (workloads.forest_size(forest), workloads.used_features(forest)) == (7, 2)


def test_solution_document_has_the_keys_bench_reads():
    assert SHIFT_KEYS <= set(Solution(status="optimal").to_dict())
