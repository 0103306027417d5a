"""Command-line pipeline: train -> probs -> shift -> rank -> simulate.

Every subcommand writes a ``<output>.manifest.json`` sidecar recording the
exact argv, seeds, input digests and tool version; ``treeshift replay`` re-runs
a manifest and reproduces the primary outputs byte for byte, except the
``wall_time`` timing in a ``shift`` solution.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .cohort import feasible_baseline, simulate_cohort
from .data import DatasetSchema, load_csv
from .forest import load_forest, save_forest
from .probability import (PerturbationSpec, estimate_node_probabilities,
                          load_table, save_table)
from .ranking import effort_ranking, load_ranking_csv, rfr_ranking, rsr_ranking
from .solver import (KAPPA_PATH, MAX_PATH, MIN_DISTANCE, MIN_PATH,
                     ProblemInstance, Solution, SolverConfig, solve,
                     verify_solution)
from .train import TrainConfig, accuracy, impurity_importances, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3

_OBJECTIVES = {"max": MAX_PATH, "min": MIN_PATH, "kappa": KAPPA_PATH, "distance": MIN_DISTANCE}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(primary_output, argv, inputs, seeds, started) -> None:
    manifest = {
        "command": "treeshift " + " ".join(argv),
        "argv": list(argv),
        "inputs": {str(p): _sha256(p) for p in inputs if p and os.path.isfile(p)},
        "seeds": seeds,
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    with open(f"{primary_output}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_pipeline_inputs(args):
    forest = load_forest(args.forest)
    schema = DatasetSchema.from_json(args.schema)
    dataset = load_csv(args.data, schema)
    if dataset.num_features != forest.num_features:
        raise ValueError("data and forest disagree on the feature count")
    return forest, dataset


def _off_target_rows(forest, dataset, target):
    return np.flatnonzero(forest.predict_batch(dataset.X) != target).tolist()


def _cmd_train(args, argv, started) -> int:
    schema = DatasetSchema.from_json(args.schema)
    dataset = load_csv(args.data, schema)
    config = TrainConfig(num_trees=args.trees, max_depth=args.depth,
                         min_samples_split=args.min_samples_split,
                         bootstrap=not args.no_bootstrap, seed=args.seed)
    forest = train(dataset, config)
    save_forest(forest, args.output)
    importances = impurity_importances(forest, dataset)
    imp_path = os.path.splitext(args.output)[0] + ".importances.csv"
    with open(imp_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "importance"])
        for meta, value in zip(forest.feature_metas, importances):
            writer.writerow([meta.name, f"{value:.10g}"])
    print(f"trained {config.num_trees} trees (depth <= {config.max_depth}), "
          f"training accuracy {accuracy(forest, dataset):.3f}")
    print(f"wrote {args.output} and {imp_path}")
    _write_manifest(args.output, argv, [args.data, args.schema], {"seed": args.seed}, started)
    return EXIT_OK


def _estimate_row(forest, spec, E, x0, row):
    return estimate_node_probabilities(forest, x0, spec, E, individual=row)


def _cmd_probs(args, argv, started) -> int:
    forest, dataset = _load_pipeline_inputs(args)
    spec = PerturbationSpec.from_dataset(dataset, num_samples=args.n_samples, seed=args.seed)
    if args.individual == "all-off-target":
        rows = _off_target_rows(forest, dataset, args.target_class)
    else:
        rows = [int(args.individual)]
    os.makedirs(args.output, exist_ok=True)
    estimate = functools.partial(_estimate_row, forest, spec, args.E)
    x0s = [dataset.X[row] for row in rows]
    if args.threads > 1 and len(rows) > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            tables = list(pool.map(estimate, x0s, rows))
    else:
        tables = list(map(estimate, x0s, rows))
    for row, table in zip(rows, tables):
        save_table(table, os.path.join(args.output, f"individual_{row}.json"))
    print(f"estimated tables for {len(rows)} individual(s) in {args.output}")
    _write_manifest(args.output.rstrip("/"), argv, [args.forest, args.data, args.schema],
                    {"seed": args.seed}, started)
    return EXIT_OK


def _cmd_shift(args, argv, started) -> int:
    forest, dataset = _load_pipeline_inputs(args)
    row = int(args.individual)
    instance = ProblemInstance(
        x0=tuple(dataset.X[row]),
        target_class=args.target_class,
        eta=args.eta,
        E=args.E,
        epsilon=args.epsilon,
    )
    config = SolverConfig(
        objective=_OBJECTIVES[args.objective],
        kappa=args.kappa,
        kappa_fraction=args.kappa_fraction,
        mu=args.mu,
        distance=args.distance,
        time_limit=args.time_limit,
    )
    table = None
    if config.objective != MIN_DISTANCE:
        if not args.probs:
            raise ValueError("probabilistic objectives need --probs")
        table = load_table(args.probs, forest)
    solution = solve(forest, instance, table, config)
    verdict = verify_solution(forest, instance, table, solution, config) \
        if solution.found else None
    doc = solution.to_dict()
    doc["verified"] = None if verdict is None else verdict.passed
    doc["verification_failures"] = [] if verdict is None else verdict.failures
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"status={solution.status} objective={solution.objective} "
          f"effort={solution.effort} -> {args.output}")
    _write_manifest(args.output, argv,
                    [args.forest, args.data, args.schema, args.probs],
                    {}, started)
    if solution.status == "infeasible":
        return EXIT_INFEASIBLE
    if solution.status == "timeout":
        return EXIT_TIMEOUT
    return EXIT_OK


def _cmd_rank(args, argv, started) -> int:
    forest = load_forest(args.forest)
    metas = forest.feature_metas
    if args.solutions:
        solutions = []
        for name in sorted(os.listdir(args.solutions)):
            if not name.endswith(".json") or name.endswith(".manifest.json"):
                continue
            with open(os.path.join(args.solutions, name), encoding="utf-8") as fh:
                doc = json.load(fh)
            solutions.append(Solution(
                status=doc["status"],
                effort=tuple(doc["effort"]) if doc.get("effort") else None,
            ))
        ranking = effort_ranking(solutions, metas, args.eta, weighted=args.weighted)
    elif args.importances:
        by_name = {}
        with open(args.importances, encoding="utf-8", newline="") as fh:
            for rec in csv.DictReader(fh):
                by_name[rec["feature"]] = float(rec["importance"])
        importances = [by_name.get(m.name, 0.0) for m in metas]
        ranking = rfr_ranking(importances, metas, args.eta)
    elif args.random:
        ranking = rsr_ranking(metas, args.eta, args.seed)
    else:
        raise ValueError("one of --solutions, --importances, --random is required")
    ranking.to_csv(args.output)
    if args.svg:
        ranking.to_svg(args.svg)
    print(f"{ranking.method} ranking (eta={args.eta}): "
          + ", ".join(name for _, name, _ in ranking.entries[: args.eta]))
    _write_manifest(args.output, argv, [args.forest, args.solutions, args.importances],
                    {"seed": args.seed}, started)
    return EXIT_OK


def _cmd_simulate(args, argv, started) -> int:
    forest, dataset = _load_pipeline_inputs(args)
    spec = PerturbationSpec.from_dataset(dataset, seed=args.seed)
    rows = _off_target_rows(forest, dataset, args.target_class)
    if not rows:
        raise ValueError("no off-target individuals in the data")
    cohort = [dataset.X[i] for i in rows]
    etas = [int(e) for e in args.etas.split(",")]
    raw: dict[tuple[str, int], float] = {}
    method = "baseline"
    if args.ranking:
        ranking = load_ranking_csv(args.ranking, forest.feature_metas, max(etas))
        method = args.method or "ranking"
        for eta in etas:
            result = simulate_cohort(forest, cohort, args.target_class, ranking.top(eta),
                                     spec, n_reps=args.reps, seed=args.seed)
            raw[(method, eta)] = result.percent
    base = None
    if args.baseline or not args.ranking:
        base = feasible_baseline(forest, cohort, args.target_class, spec,
                                 n_reps=args.reps, seed=args.seed)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["method"] + [f"eta={e}" for e in sorted(etas, reverse=True)]
        writer.writerow(header + (["baseline"] if base else []))
        if raw:
            row = [method] + [f"{raw[(method, e)]:.2f}" for e in sorted(etas, reverse=True)]
            writer.writerow(row + ([f"{base.percent:.2f}"] if base else []))
        else:
            writer.writerow(["baseline"] + [""] * len(etas) + [f"{base.percent:.2f}"])
    for key in sorted(raw):
        print(f"{key[0]} eta={key[1]}: {raw[key]:.2f}% reclassified")
    if base:
        print(f"feasible baseline: {base.percent:.2f}%")
    _write_manifest(args.output, argv,
                    [args.forest, args.data, args.schema, args.ranking],
                    {"seed": args.seed}, started)
    return EXIT_OK


def _cmd_demo(args, argv, started) -> int:
    if args.fixture != "firefighter":
        raise ValueError(f"unknown demo fixture {args.fixture!r}")
    from .fixtures import firefighter_forest, firefighter_table

    forest = firefighter_forest()
    table = firefighter_table()
    instance = ProblemInstance(x0=(0.5, 0.5), target_class=1, eta=1, E=1)
    from .solver import evaluate_allocation, solve_max_path, solve_min_path

    best_max = solve_max_path(forest, instance, table)
    best_min = solve_min_path(forest, instance, table)
    alt_max = evaluate_allocation(forest, instance, table, SolverConfig(objective=MAX_PATH), (1, 0))
    alt_min = evaluate_allocation(forest, instance, table, SolverConfig(objective=MIN_PATH), (1, 0))
    names = {0: "S", 1: "A"}
    print("firefighter fixture (effort budget 1):")
    print(f"  max-path optimum {best_max.objective:.2f} "
          f"(effort on {names[best_max.effort.index(1)]})")
    print(f"  min-path optimum {best_min.objective:.2f} "
          f"(effort on {names[best_min.effort.index(1)]})")
    print(f"  effort-on-S alternatives: max-path {alt_max.objective:.2f}, "
          f"min-path {alt_min.objective:.2f}")
    return EXIT_OK


def _cmd_replay(args, argv, started) -> int:
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(f"replaying: treeshift {' '.join(manifest['argv'])}")
    return main(manifest["argv"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description="Effort-allocation feature shifts for tree ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a forest and write it as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--trees", type=int, default=25)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--min-samples-split", type=int, default=2)
    p.add_argument("--no-bootstrap", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("probs", help="estimate per-individual branch probabilities")
    p.add_argument("--forest", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--individual", required=True, help="row index or all-off-target")
    p.add_argument("--target-class", type=int, default=0)
    p.add_argument("--E", type=int, default=1)
    p.add_argument("--n-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_probs)

    p = sub.add_parser("shift", help="solve for an optimal feature shift")
    p.add_argument("--forest", required=True)
    p.add_argument("--probs")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--individual", required=True)
    p.add_argument("--objective", choices=sorted(_OBJECTIVES), default="max")
    p.add_argument("--target-class", type=int, default=0)
    p.add_argument("--eta", type=int, default=1)
    p.add_argument("--E", type=int, default=1)
    p.add_argument("--kappa", type=int, default=1)
    p.add_argument("--kappa-fraction", type=float, default=None)
    p.add_argument("--mu", type=float, default=1e-6)
    p.add_argument("--distance", choices=["l1", "l2", "linf"], default="l1")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("rank", help="build a feature ranking")
    p.add_argument("--forest", required=True)
    p.add_argument("--solutions", help="directory of solution JSON files")
    p.add_argument("--importances", help="importances CSV from train")
    p.add_argument("--random", action="store_true")
    p.add_argument("--weighted", action="store_true", help="sum effort units instead of counts")
    p.add_argument("--eta", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", help="also write an SVG bar chart")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("simulate", help="evaluate a ranking on a cohort")
    p.add_argument("--forest", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--ranking", help="ranking CSV; omit for a baseline-only run")
    p.add_argument("--method", help="method label for the report")
    p.add_argument("--etas", default="1,2,3,4")
    p.add_argument("--target-class", type=int, default=0)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", action="store_true",
                   help="also compute the feasible-to-change baseline")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demo", help="run a built-in fixture end to end")
    p.add_argument("fixture", nargs="?", default="firefighter")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("replay", help="re-run a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.monotonic()
    try:
        return args.func(args, argv, started)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
