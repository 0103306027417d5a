"""treeshift benchmark: one workload, one seed, closed loop, checked outputs.

    python3 bench/run.py --workload cohort_desk --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. Passes
of the workload run one after another, one call at a time, until
``--seconds`` have passed (at least one pass). With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate (at least one of each), and the last line holds the
per-layer metrics. Every pass is checked by the correctness gate.
A report with the environment record, the gate's findings and, when traced,
every span is written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import OFF, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 3
# a percentile is reported only with at least this many samples beyond it
TAIL_BEYOND = 10
TAIL_PERMILLE = (999, 995, 990, 975, 950, 900, 750, 500)
OBJECTIVES = ("max_path", "min_path", "kappa_path", "min_distance")
CLI_SUBCOMMANDS = ("train", "probs", "shift", "rank", "simulate")


def import_program():
    """Import treeshift from this checkout's src/ and nowhere else."""
    if not (SRC / "treeshift" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'treeshift'} not found; run from a treeshift checkout")
    sys.path.insert(0, str(SRC))
    import treeshift
    if Path(treeshift.__file__).resolve().parent != SRC / "treeshift":
        sys.exit(f"error: imported treeshift from {treeshift.__file__}, not from {SRC}")
    return treeshift


def fresh_import_seconds() -> float:
    """Time to import treeshift (and numpy, which it imports) in a new interpreter.

    This is what each CLI invocation pays before it does any work. The time
    is taken inside the new interpreter, so its start-up is not included.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
            "import treeshift.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    return float(out.stdout.split()[-1])


def calibrate() -> float:
    """A fixed interpreter-bound loop; informational, never used to rescale."""
    started = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def _git_commit():
    if not (ROOT / ".git").exists():  # a plain export: do not pick up an enclosing repo
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """Digest of the program and the benchmark, keying the determinism record."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    return {
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in SRC.rglob("*.py")),
    }


def tail(values) -> tuple[float, float]:
    """The highest listed percentile with TAIL_BEYOND samples beyond it.

    Returns (percentile, value); with too few samples for any, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)  # nearest rank, ceil(p * n)
        if n - rank >= TAIL_BEYOND:
            return permille / 10, ordered[rank - 1]
    return 100.0, ordered[-1]


def latency_stats(latencies) -> dict:
    percentile, tail_value = tail(latencies)
    return {
        "p50": statistics.median(latencies),
        "tail": tail_value,
        "tail_percentile": percentile,
        "geomean": math.exp(math.fsum(math.log(v) for v in latencies) / len(latencies)),
        "samples": len(latencies),
    }


def run_passes(workload, seconds: float, gate, modes=(False,)) -> list[dict]:
    """Closed loop: whole passes, one after another, for about `seconds`.

    Passes cycle through `modes` (traced or not), so that traced and
    untraced passes of a traced run see the same machine conditions. Another
    pass starts only if it is expected to end nearer to `seconds` than
    stopping now would; there is always at least one pass of each mode.
    """
    passes = []
    started = time.perf_counter()
    while (len(passes) < len(modes)
           or (time.perf_counter() - started) * (1 + 0.5 / len(passes)) < seconds):
        traced = modes[len(passes) % len(modes)]
        tracer = Tracer() if traced else OFF
        counts = Counter()
        t0 = time.perf_counter()
        with tracer.span("pass"):
            latencies, observed, pass_s = workload.run_pass(tracer, counts)
        if pass_s is None:
            pass_s = time.perf_counter() - t0
        workload.check(observed, counts, gate)
        passes.append({"pass_s": pass_s, "latency": latency_stats(latencies),
                       "counts": counts, "tracer": tracer if traced else None,
                       "origin": t0})
    return passes


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    busy, counts = p["tracer"].busy(), p["counts"]

    def prefix(name):
        return math.fsum(v for k, v in busy.items() if k.startswith(name + "."))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    solver_busy = math.fsum(busy.get(f"solver.{o}", 0.0) for o in OBJECTIVES)
    out = {
        "solver.busy_s": solver_busy,
        "solver.nodes": counts["solver.nodes"],
        "solver.nodes_per_s": rate(counts["solver.nodes"], solver_busy),
        "solver.allocations": counts["solver.allocations"],
    }
    for o in OBJECTIVES:
        out[f"solver.{o}.busy_s"] = busy.get(f"solver.{o}", 0.0)
        out[f"solver.{o}.nodes"] = counts[f"solver.{o}.nodes"]
    for status in ("optimal", "infeasible", "timeout"):
        out[f"solver.{status}"] = counts[f"solver.{status}"]
    out["solver.verify.busy_s"] = busy.get("solver.verify", 0.0)
    out["probability.tables"] = counts["probability.tables"]
    out["probability.busy_s"] = prefix("probability")
    out["probability.samples"] = counts["probability.samples"]
    out["probability.tables_per_s"] = rate(counts["probability.tables"], out["probability.busy_s"])
    out["cohort.calls"] = counts["cohort.calls"]
    out["cohort.rows"] = counts["cohort.rows"]
    out["cohort.busy_s"] = prefix("cohort")
    out["cohort.rows_per_s"] = rate(counts["cohort.rows"], out["cohort.busy_s"])
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.calls"] = counts[f"cli.{sub}.calls"]
        out[f"cli.{sub}.busy_s"] = busy.get(f"cli.{sub}", 0.0)
    out["cli.bytes_written"] = counts["cli.bytes_written"]
    out["cli.exit_nonzero"] = counts["cli.exit_nonzero"]
    out["train.busy_s"] = prefix("train")
    out["train.nodes"] = counts["train.nodes"]
    out["forest.predict.calls"] = counts["forest.predict.calls"]
    out["forest.predict.busy_s"] = busy.get("forest.predict", 0.0)
    out["data.busy_s"] = prefix("data")
    out["data.rows"] = counts["data.rows"]
    out["ranking.busy_s"] = prefix("ranking")
    return out


def check_determinism(name: str, seed: int, digest: str, passes, gate,
                      deterministic_keys) -> dict:
    """Deterministic counts must agree between passes and with earlier runs."""
    snapshots = [{k: p["counts"][k] for k in deterministic_keys} for p in passes]
    problems = [f"pass {i} counts {s} differ from pass 0 {snapshots[0]}"
                for i, s in enumerate(snapshots[1:], start=1) if s != snapshots[0]]
    record_path = OUT_DIR / "counts" / f"{name}-seed{seed}.json"
    record = {}
    if record_path.is_file():
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    earlier = record.get(digest)
    if earlier is not None and earlier != snapshots[0]:
        problems.append(f"counts {snapshots[0]} differ from an earlier run {earlier}")
    record[digest] = snapshots[0]
    record_path.parent.mkdir(parents=True, exist_ok=True)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    gate.record("determinism of counts", problems)
    return snapshots[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    import gate as gate_module
    from workloads import DETERMINISTIC_COUNTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment()
    env["calibration_before_s"] = calibrate()
    gate = gate_module.Gate()
    gate.record("gate self-test", gate_module.self_test())

    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        setup_times, import_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(fresh_import_seconds())
            setup_times.append(import_times[-1] + workload.setup())
        if args.trace:
            both = run_passes(workload, args.seconds, gate, modes=(False, True))
            passes = [p for p in both if p["tracer"] is None]
            traced = [p for p in both if p["tracer"] is not None]
        else:
            passes, traced = run_passes(workload, args.seconds, gate), []
    finally:
        if work_dir.exists():
            shutil.rmtree(work_dir)
            if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
                WORK_DIR.rmdir()
    env["calibration_after_s"] = calibrate()
    env["loadavg_after"] = os.getloadavg()
    counts = check_determinism(args.workload, args.seed, env["source_digest"],
                               passes + traced, gate, DETERMINISTIC_COUNTS)

    def median_of(key):
        return statistics.median(p["latency"][key] for p in passes)

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "solve_p50_ms": (1e3 * median_of("p50"), "ms"),
        "solve_tail_ms": (1e3 * median_of("tail"), "ms"),
        "solve_geomean_ms": (1e3 * median_of("geomean"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "failed_frac": gate.failed_frac, "failures": gate.failures,
        "setup_times_s": setup_times, "fresh_import_s": import_times,
        "passes": [{"pass_s": p["pass_s"], **p["latency"]} for p in passes],
        "counts": counts,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                      - end_to_end["pipeline_s"][0])
        report["per_layer"] = layers
        report["traced_passes_s"] = [p["pass_s"] for p in traced]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump([p["tracer"].to_json(traced[0]["origin"]) for p in traced], fh)
    print("report: " + json.dumps({k: report[k] for k in (
        "workload", "seed", "failed_frac", "failures", "environment", "counts")}))
    print("latency: " + json.dumps(report["passes"]))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
