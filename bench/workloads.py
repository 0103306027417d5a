"""The three benchmark workloads.

Each workload has ``setup()``, ``run_pass(tracer, counts)`` and
``check(observed, counts, gate)``. ``setup()`` prepares the inputs and returns
the seconds it spent in calls into treeshift; the benchmark's own work there
(writing CSV files) is not counted, and reference values are loaded in the
constructor, outside any timed region. A pass is one closed-loop run of every
stage, one call at a time; ``run_pass`` returns the per-solve latencies, the
outputs that ``check`` compares with the reference values recorded at the
seed commit (see make_reference.py), and the pass time when it is not the
pass's wall time. Checking happens after the pass is timed. ``counts``
collects per-layer work counts in every pass, traced or not.

Inputs: the data and forests are fixed (the acceptance test's seed-0
configuration), so that the cost of a pass does not depend on the seed. The
workload seed drives every Monte-Carlo stream of the desk and CLI workloads,
which have reference values for ``REF_SEEDS`` input sets (seed ``s`` selects
set ``s % REF_SEEDS``), and the order of the ladder's solves.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

from treeshift import (BINARY, KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH,
                       PerturbationSpec, ProblemInstance, Solution, SolverConfig,
                       TrainConfig, effort_ranking, enumerate_effort_allocations,
                       estimate_node_probabilities, feasible_baseline, load_csv,
                       load_forest, load_ranking_csv, load_table, rsr_ranking,
                       simulate_cohort, solve, solve_kappa_path, split,
                       synth_generate, train)
from treeshift.cli import main as cli_main
from treeshift.data import DatasetSchema

from gate import observe_solve, percent_problems, solve_problems
from tracing import OFF

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REF_SEEDS = 16

DATA_SEED = 0
TARGET = 0
E = 1
N_SAMPLES = 1000
REPS = 100
ETAS = (1, 2)
RSR_DRAWS = 3
DESK_CONFIG = SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5, mu=1e-6)

# counts that must repeat exactly across passes and runs of the same code and seed
DETERMINISTIC_COUNTS = ("solver.nodes", "solver.allocations", "solver.optimal",
                        "solver.infeasible", "probability.samples", "cohort.rows",
                        "cli.bytes_written")


def load_reference(workload: str, seed=None):
    """The recorded reference of a workload (and seed), or None if there is none."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc if seed is None else doc["seeds"].get(str(seed))


def subset_key(features) -> str:
    return ",".join(str(j) for j in sorted(features))


def simulate_references(forest, cohort, spec, seed) -> dict:
    """Cohort percentage for every feature set a ranking's top-eta can name."""
    mutable = [m.index for m in forest.feature_metas if m.mutable]
    return {
        subset_key(features): simulate_cohort(forest, cohort, TARGET, features, spec,
                                              n_reps=REPS, seed=seed).percent
        for k in ETAS for features in itertools.combinations(mutable, k)
    }


def forest_size(forest) -> int:
    return sum(len(t.nodes) + len(t.leaves) for t in forest.trees)


def used_features(forest) -> int:
    return len({n.feature for t in forest.trees for n in t.nodes.values()})


def allocation_count(forest, eta: int) -> int:
    mask = [m.mutable for m in forest.feature_metas]
    return sum(1 for _ in enumerate_effort_allocations(forest.num_features, E, eta, mask))


def count_solve(counts, objective: str, status: str, nodes: int, allocations: int) -> None:
    counts["solver.nodes"] += nodes
    counts[f"solver.{objective}.nodes"] += nodes
    counts["solver.allocations"] += allocations
    counts[f"solver.{status}"] += 1


def off_target_rows(tracer, forest, X) -> list[int]:
    rows = []
    for i in range(len(X)):
        with tracer.span("forest.predict"):
            predicted = forest.predict(X[i])[0]
        if predicted != TARGET:
            rows.append(i)
    return rows


def check_simulations(gate, observed, reference, n_individuals) -> None:
    for label, key, percent in observed:
        gate.record(f"simulate {label} on features {key}",
                    percent_problems(percent, reference["simulate"].get(key),
                                     n_individuals, REPS))


class CohortDesk:
    """Desk-scale paper experiment through the public API."""

    name = "cohort_desk"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed % REF_SEEDS
        self.ref = load_reference(self.name, self.seed)
        self.last = None

    def setup(self) -> float:
        return 0.0  # every stage, data generation included, runs in the pass

    def run_pass(self, tracer, counts):
        latencies, solves, sims = [], [], []
        with tracer.span("data.synth_generate"):
            ds = synth_generate(600, 8, seed=DATA_SEED)
        with tracer.span("data.split"):
            train_ds, test_ds = split(ds, 2 / 3, seed=DATA_SEED)
        counts["data.rows"] += ds.num_rows
        with tracer.span("train.train"):
            forest = train(train_ds, TrainConfig(num_trees=9, max_depth=4, seed=DATA_SEED))
        counts["train.nodes"] += forest_size(forest)
        with tracer.span("probability.from_dataset"):
            spec = PerturbationSpec.from_dataset(train_ds, num_samples=N_SAMPLES, seed=self.seed)
        train_off = off_target_rows(tracer, forest, train_ds.X)
        cohort = [test_ds.X[i] for i in off_target_rows(tracer, forest, test_ds.X)]
        counts["forest.predict.calls"] += train_ds.num_rows + test_ds.num_rows
        allocations = {eta: allocation_count(forest, eta) for eta in ETAS}
        samples = used_features(forest) * (E + 1) * N_SAMPLES
        by_eta = {eta: [] for eta in ETAS}
        for i in train_off:
            x0 = tuple(train_ds.X[i])
            with tracer.span("request", request=i):
                with tracer.span("probability.estimate_node_probabilities", request=i):
                    table = estimate_node_probabilities(forest, train_ds.X[i], spec, E=E,
                                                        individual=i)
                counts["probability.tables"] += 1
                counts["probability.samples"] += samples
                for eta in ETAS:
                    instance = ProblemInstance(x0=x0, target_class=TARGET, eta=eta, E=E)
                    started = time.perf_counter()
                    with tracer.span("solver.kappa_path", request=i):
                        sol = solve_kappa_path(forest, instance, table, DESK_CONFIG)
                    latencies.append(time.perf_counter() - started)
                    count_solve(counts, KAPPA_PATH, sol.status, sol.nodes_explored,
                                allocations[eta])
                    with tracer.span("solver.verify", request=i):
                        solves.append((f"{i}/{eta}",
                                       observe_solve(forest, instance, table, DESK_CONFIG, sol)))
                    by_eta[eta].append(sol)
        for eta in ETAS:
            with tracer.span("ranking.effort_ranking"):
                rankings = [("effort", effort_ranking(by_eta[eta], ds.feature_metas, eta=eta))]
            for k in range(RSR_DRAWS):
                with tracer.span("ranking.rsr_ranking"):
                    rankings.append((f"rsr{k}", rsr_ranking(ds.feature_metas, eta,
                                                            seed=self.seed * 10 + k)))
            for label, ranking in rankings:
                features = ranking.top(eta)
                with tracer.span("cohort.simulate_cohort"):
                    result = simulate_cohort(forest, cohort, TARGET, features, spec,
                                             n_reps=REPS, seed=self.seed)
                counts["cohort.calls"] += 1
                counts["cohort.rows"] += len(cohort) * REPS
                sims.append((f"{label} eta={eta}", subset_key(features), result.percent))
        with tracer.span("cohort.feasible_baseline"):
            base = feasible_baseline(forest, cohort, TARGET, spec, n_reps=REPS, seed=self.seed)
        counts["cohort.calls"] += 1
        counts["cohort.rows"] += len(cohort) * REPS
        self.last = (forest, cohort, spec)
        observed = {"train_off": train_off, "cohort": len(cohort), "solves": solves,
                    "simulate": sims, "baseline": base.percent}
        return latencies, observed, None

    def check(self, observed, counts, gate) -> None:
        ref = self.ref
        if ref is None:
            gate.record("reference", ["no reference values for this seed"])
            return
        same_rows = (observed["train_off"] == ref["train_off"]
                     and observed["cohort"] == ref["cohort"])
        gate.record("off-target selection",
                    [] if same_rows else ["off-target rows or cohort size differ from reference"])
        for key, obs in observed["solves"]:
            gate.record(f"kappa_path solve {key} (individual/eta)",
                        solve_problems(obs, ref["solves"].get(key)))
        check_simulations(gate, observed["simulate"], ref, observed["cohort"])
        gate.record("feasible_baseline", percent_problems(
            observed["baseline"], ref["baseline"], observed["cohort"], REPS))

    def record(self, observed) -> dict:
        forest, cohort, spec = self.last
        return {
            "train_off": observed["train_off"],
            "cohort": observed["cohort"],
            "solves": {key: [o["status"], o["objective"]] for key, o in observed["solves"]},
            "simulate": simulate_references(forest, cohort, spec, self.seed),
            "baseline": observed["baseline"],
        }


LADDER_DATA = (800, 14)
LADDER_ETA = 4
LADDER_RUNGS = {
    # rung: (trees, depth, ((objective, repeats), ...)); the r25 solves of about
    # 0.4 s repeat so that a slow second of the host does not decide their
    # time, and the median of the repeats is used
    "r25": (25, 5, ((MAX_PATH, 3), (MIN_PATH, 3), (KAPPA_PATH, 3), (MIN_DISTANCE, 1))),
    "r51": (51, 6, ((MAX_PATH, 1), (KAPPA_PATH, 1))),
}
LADDER_CONFIGS = {
    MAX_PATH: SolverConfig(objective=MAX_PATH),
    MIN_PATH: SolverConfig(objective=MIN_PATH),
    # the default 50%-path setting returns the 1.0 cap on these forests
    KAPPA_PATH: SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5,
                             positive_leaves_only=True),
    MIN_DISTANCE: SolverConfig(objective=MIN_DISTANCE),
}


class SolveLadder:
    """A few large exact solves on trained forests; tables are built in setup.

    Each rung's instance is the first training row its forest classifies
    off-target. The instances do not depend on the seed, because solve times
    differ up to twentyfold between individuals; the seed sets the order of
    the solves within a pass. Short solves repeat a fixed number of times
    (LADDER_RUNGS), so that a slow second on the machine does not decide
    their time.
    """

    name = "solve_ladder"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.ref = load_reference(self.name)
        self.jobs = []

    def setup(self) -> float:
        started = time.perf_counter()
        n, d = LADDER_DATA
        train_ds, _ = split(synth_generate(n, d, seed=DATA_SEED), 2 / 3, seed=DATA_SEED)
        spec = PerturbationSpec.from_dataset(train_ds, num_samples=N_SAMPLES, seed=DATA_SEED)
        jobs = []
        for rung, (trees, depth, objectives) in LADDER_RUNGS.items():
            forest = train(train_ds, TrainConfig(num_trees=trees, max_depth=depth,
                                                 seed=DATA_SEED))
            row = next(i for i in range(train_ds.num_rows)
                       if forest.predict(train_ds.X[i])[0] != TARGET)
            table = estimate_node_probabilities(forest, train_ds.X[row], spec, E=E,
                                                individual=row)
            instance = ProblemInstance(x0=tuple(train_ds.X[row]), target_class=TARGET,
                                       eta=LADDER_ETA, E=E)
            allocations = allocation_count(forest, LADDER_ETA)
            for objective, repeats in objectives:
                jobs.append((f"{rung}/{objective}", f"{rung}/{row}", objective, repeats, forest,
                             instance, table, allocations if objective != MIN_DISTANCE else 0))
        random.Random(self.seed).shuffle(jobs)
        self.jobs = jobs
        return time.perf_counter() - started

    def run_pass(self, tracer, counts):
        """Every ladder solve; the pass time is the sum of their median times."""
        latencies, solves, repeat_nodes = [], [], {}
        for key, request, objective, repeats, forest, instance, table, allocations in self.jobs:
            config = LADDER_CONFIGS[objective]
            times, repeat_nodes[key] = [], set()
            for _ in range(repeats):
                with tracer.span("request", request=request):
                    started = time.perf_counter()
                    with tracer.span(f"solver.{objective}", request=request):
                        sol = solve(forest, instance, table, config)
                    times.append(time.perf_counter() - started)
                    count_solve(counts, objective, sol.status, sol.nodes_explored, allocations)
                    repeat_nodes[key].add(sol.nodes_explored)
                    with tracer.span("solver.verify", request=request):
                        solves.append((key, observe_solve(forest, instance, table, config, sol)))
            latencies.append(statistics.median(times))
        rows = sorted({request for _, request, *_ in self.jobs})
        observed = {"rows": rows, "solves": solves, "repeat_nodes": repeat_nodes}
        return latencies, observed, math.fsum(latencies)

    def check(self, observed, counts, gate) -> None:
        if self.ref is None:
            gate.record("reference", ["no reference values for this workload"])
            return
        gate.record("ladder instances", [] if observed["rows"] == self.ref["rows"]
                    else [f"instances {observed['rows']} != reference {self.ref['rows']}"])
        for key, obs in observed["solves"]:
            gate.record(f"solve {key}", solve_problems(obs, self.ref["solves"].get(key)))
        gate.record("node counts of repeated solves", [
            f"{key} explored {sorted(nodes)} nodes in its repeats"
            for key, nodes in observed["repeat_nodes"].items() if len(nodes) > 1])

    def record(self, observed) -> dict:
        return {"rows": observed["rows"],
                "solves": {key: [o["status"], o["objective"]] for key, o in observed["solves"]}}


EXIT_INFEASIBLE = 2


class CliPipeline:
    """The desk configuration driven through ``treeshift.cli.main`` in-process.

    Setup writes the training and test splits as CSV files plus a schema;
    every pass runs train, probs, one shift per off-target individual, rank
    and simulate into a fresh output directory, which check() removes.
    """

    name = "cli_pipeline"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed % REF_SEEDS
        self.dir = work_dir / self.name
        self.ref = load_reference(self.name, self.seed)

    def setup(self) -> float:
        """Writes the inputs; times generating them and the program reading them back."""
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        started = time.perf_counter()
        ds = synth_generate(600, 8, seed=DATA_SEED)
        train_ds, test_ds = split(ds, 2 / 3, seed=DATA_SEED)
        program_s = time.perf_counter() - started
        names = [m.name for m in ds.feature_metas]
        for path, part in ((self.dir / "train.csv", train_ds), (self.dir / "test.csv", test_ds)):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(names + ["label"])
                for x, y in zip(part.X, part.y):
                    writer.writerow([str(int(v)) if m.kind == BINARY else repr(float(v))
                                     for v, m in zip(x, ds.feature_metas)] + [str(int(y))])
        schema = {"columns": [
            {"name": m.name, "kind": m.kind, "mutable": m.mutable, "beneficial": m.beneficial}
            for m in ds.feature_metas
        ] + [{"name": "label", "role": "target", "positive_labels": ["1"]}]}
        with open(self.dir / "schema.json", "w", encoding="utf-8") as fh:
            json.dump(schema, fh, indent=2)
        p = self._paths()
        started = time.perf_counter()
        schema = DatasetSchema.from_json(p["schema"])
        for part in ("train", "test"):
            load_csv(p[part], schema)
        return program_s + time.perf_counter() - started

    def _paths(self):
        out = self.dir / "pass"
        return {"train": str(self.dir / "train.csv"), "test": str(self.dir / "test.csv"),
                "schema": str(self.dir / "schema.json"), "out": out,
                "forest": str(out / "forest.json"), "tables": out / "tables",
                "shifts": out / "shifts", "ranking": str(out / "ranking.csv"),
                "simulate": str(out / "simulate.csv")}

    def run_pass(self, tracer, counts):
        p = self._paths()
        p["shifts"].mkdir(parents=True)
        data = ["--data", p["train"], "--schema", p["schema"]]
        calls, latencies = [], []

        def cli(sub, args, request=None):
            sink = io.StringIO()
            started = time.perf_counter()
            with tracer.span(f"cli.{sub}", request=request), \
                    contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli_main([sub, *args])
            elapsed = time.perf_counter() - started
            counts[f"cli.{sub}.calls"] += 1
            counts["cli.exit_nonzero"] += code != 0
            calls.append((sub, request, code, sink.getvalue() if code else ""))
            return elapsed

        cli("train", data + ["--trees", "9", "--depth", "4", "--seed", str(DATA_SEED),
                             "-o", p["forest"]])
        cli("probs", ["--forest", p["forest"], *data, "--individual", "all-off-target",
                      "--E", str(E), "--n-samples", str(N_SAMPLES), "--seed", str(self.seed),
                      "--threads", "1", "-o", str(p["tables"])])
        rows = sorted(int(name[len("individual_"):-len(".json")])
                      for name in os.listdir(p["tables"]) if name.startswith("individual_"))
        for row in rows:
            latencies.append(cli("shift", [
                "--forest", p["forest"], "--probs", str(p["tables"] / f"individual_{row}.json"),
                *data, "--individual", str(row), "--objective", "kappa",
                "--kappa-fraction", "0.5", "--eta", "2", "--E", str(E),
                "-o", str(p["shifts"] / f"individual_{row}.json")], request=row))
        cli("rank", ["--forest", p["forest"], "--solutions", str(p["shifts"]), "--eta", "2",
                     "-o", p["ranking"]])
        cli("simulate", ["--forest", p["forest"], "--data", p["test"], "--schema", p["schema"],
                         "--ranking", p["ranking"], "--baseline", "--etas", "1,2",
                         "--reps", str(REPS), "--seed", str(self.seed), "-o", p["simulate"]])
        return latencies, {"rows": rows, "calls": calls}, None

    def _read_outputs(self, observed, counts) -> dict:
        """Parse and re-verify the pass's files; fills the output-derived counts."""
        p = self._paths()
        forest = load_forest(p["forest"])
        schema = DatasetSchema.from_json(p["schema"])
        train_ds, test_ds = load_csv(p["train"], schema), load_csv(p["test"], schema)
        config = SolverConfig(objective=KAPPA_PATH, kappa_fraction=0.5)
        allocations = allocation_count(forest, 2)
        shifts = {}
        for row in observed["rows"]:
            path = p["shifts"] / f"individual_{row}.json"
            if not path.exists():
                continue
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            sol = Solution(
                status=doc["status"], objective=doc["objective"],
                log_objective=doc["log_objective"],
                effort=None if doc["effort"] is None else tuple(doc["effort"]),
                chosen_leaves=None if doc["chosen_leaves"] is None
                else {int(t): leaf for t, leaf in doc["chosen_leaves"].items()},
                essential_trees=None if doc["essential_trees"] is None
                else tuple(doc["essential_trees"]),
                x=None if doc["x"] is None else tuple(doc["x"]))
            instance = ProblemInstance(x0=tuple(train_ds.X[row]), target_class=TARGET,
                                       eta=2, E=E)
            table = load_table(p["tables"] / f"individual_{row}.json", forest)
            shifts[row] = observe_solve(forest, instance, table, config, sol)
            count_solve(counts, KAPPA_PATH, doc["status"], doc["nodes_explored"], allocations)
        cohort = len(off_target_rows(OFF, forest, test_ds.X))
        counts["probability.tables"] += len(observed["rows"])
        counts["probability.samples"] += (len(observed["rows"]) * used_features(forest)
                                          * (E + 1) * N_SAMPLES)
        counts["cohort.calls"] += len(ETAS) + 1
        counts["cohort.rows"] += (len(ETAS) + 1) * cohort * REPS
        counts["cli.bytes_written"] += bytes_written(p["out"])
        percents = {}
        with open(p["simulate"], encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                percents = {key: float(value) for key, value in rec.items() if key != "method"}
        ranking = load_ranking_csv(p["ranking"], forest.feature_metas, max(ETAS))
        sims = [(f"ranking eta={eta}", subset_key(ranking.top(eta)), percents[f"eta={eta}"])
                for eta in ETAS]
        return {"shifts": shifts, "cohort": cohort, "simulate": sims,
                "baseline": percents["baseline"]}

    def check(self, observed, counts, gate) -> None:
        ref = self.ref
        try:
            outputs = self._read_outputs(observed, counts)
        except (OSError, KeyError, ValueError) as exc:
            outputs = None
            gate.record("cli outputs", [f"unreadable: {exc!r}"])
        finally:
            shutil.rmtree(self._paths()["out"], ignore_errors=True)
        if ref is None:
            gate.record("reference", ["no reference values for this seed"])
            return
        for sub, request, code, text in observed["calls"]:
            problems, expected = [], 0
            if sub == "shift":
                row_ref = ref["shifts"].get(str(request))
                if row_ref is not None and row_ref[0] == "infeasible":
                    expected = EXIT_INFEASIBLE
                obs = outputs["shifts"].get(request) if outputs else None
                problems = (["no solution file"] if obs is None
                            else solve_problems(obs, row_ref))
            if sub == "probs" and observed["rows"] != ref["train_off"]:
                problems.append("off-target individuals differ from reference")
            if code != expected:
                problems.insert(0, f"exit code {code}, expected {expected} {text.strip()[-200:]}")
            label = f"cli {sub}" if request is None else f"cli {sub} individual {request}"
            gate.record(label, problems)
        if outputs is None:
            return
        gate.record("simulate cohort", [] if outputs["cohort"] == ref["cohort"]
                    else [f"cohort {outputs['cohort']} != reference {ref['cohort']}"])
        check_simulations(gate, outputs["simulate"], ref, outputs["cohort"])
        gate.record("simulate baseline", percent_problems(
            outputs["baseline"], ref["baseline"], outputs["cohort"], REPS))

    def record(self, observed) -> dict:
        outputs = self._read_outputs(observed, Counter())
        p = self._paths()
        forest = load_forest(p["forest"])
        schema = DatasetSchema.from_json(p["schema"])
        test_ds = load_csv(p["test"], schema)
        spec = PerturbationSpec.from_dataset(test_ds, seed=self.seed)
        cohort = [test_ds.X[i] for i in off_target_rows(OFF, forest, test_ds.X)]
        return {
            "train_off": observed["rows"],
            "cohort": outputs["cohort"],
            "shifts": {str(row): [o["status"], o["objective"]]
                       for row, o in outputs["shifts"].items()},
            "simulate": simulate_references(forest, cohort, spec, self.seed),
            "baseline": outputs["baseline"],
        }


def bytes_written(out_dir: Path) -> int:
    """Bytes of the pass's outputs, without the parts that hold wall-clock times.

    Manifest sidecars record the run time, and a solution document records
    ``wall_time``; both vary between identical runs, so they are left out.
    """
    total = 0
    for path in out_dir.rglob("*"):
        if not path.is_file() or path.name.endswith(".manifest.json"):
            continue
        total += path.stat().st_size
        if path.parent.name == "shifts":
            with open(path, encoding="utf-8") as fh:
                total -= len(json.dumps(json.load(fh)["wall_time"]))
    return total


WORKLOADS = {w.name: w for w in (CohortDesk, SolveLadder, CliPipeline)}
