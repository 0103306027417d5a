"""Record the reference values the correctness gate compares against.

    python3 bench/make_reference.py [workload ...]

Run once at the commit that defines the benchmark: it runs one pass of each
workload per reference seed and writes the outputs the gate checks (status
and objective per solve, cohort percentages for every feature set a ranking
can name) to bench/reference/<workload>.json.
"""
from __future__ import annotations

import json
import shutil
import sys
from collections import Counter

from run import WORK_DIR, import_program
from tracing import OFF


def main(names) -> int:
    import_program()
    from workloads import REF_SEEDS, REFERENCE_DIR, WORKLOADS

    for name in names or sorted(WORKLOADS):
        cls = WORKLOADS[name]
        seeds = [None] if name == "solve_ladder" else range(REF_SEEDS)
        doc = {"seeds": {}}
        work_dir = WORK_DIR / f"reference-{name}"
        for seed in seeds:
            workload = cls(seed or 0, work_dir)
            workload.setup()
            _, observed, _ = workload.run_pass(OFF, Counter())
            if seed is None:
                doc = workload.record(observed)
            else:
                doc["seeds"][str(seed)] = workload.record(observed)
            print(f"{name} seed {seed}: recorded", flush=True)
        shutil.rmtree(work_dir, ignore_errors=True)
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
