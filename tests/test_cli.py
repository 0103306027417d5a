import json
import subprocess
import sys

from treeshift import synth_generate
from treeshift.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_TIMEOUT, EXIT_USAGE, main
from treeshift.forest import save_forest
from treeshift.fixtures import firefighter_forest, firefighter_table


def _write_dataset_files(tmp_path, n=80, d=4, seed=0):
    ds = synth_generate(n, d, seed=seed)
    rows = []
    header = [m.name for m in ds.feature_metas] + ["label"]
    for i in range(ds.num_rows):
        cells = []
        for j, m in enumerate(ds.feature_metas):
            cells.append(str(int(ds.X[i, j])) if m.kind == "binary" else f"{ds.X[i, j]:.6f}")
        cells.append(str(int(ds.y[i])))
        rows.append(",".join(cells))
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n")
    schema = {
        "columns": [
            {
                "name": m.name,
                "role": "feature",
                "kind": m.kind,
                "mutable": m.mutable,
                "beneficial": m.beneficial,
                **({"recode": {"0": 0, "1": 1}} if m.kind == "binary" else {}),
            }
            for m in ds.feature_metas
        ]
        + [{"name": "label", "role": "target", "positive_labels": ["1"]}],
    }
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    return csv_path, schema_path


def test_demo_prints_paper_values(capsys):
    assert main(["demo", "firefighter"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.36" in out and "0.32" in out and "0.20" in out and "0.15" in out
    assert "effort on A" in out


def test_demo_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "treeshift.cli", "demo", "firefighter"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.36" in proc.stdout


def test_full_pipeline(tmp_path, capsys):
    csv_path, schema_path = _write_dataset_files(tmp_path)
    forest_path = tmp_path / "forest.json"
    rc = main(["train", "--data", str(csv_path), "--schema", str(schema_path),
               "--trees", "5", "--depth", "3", "--seed", "1", "-o", str(forest_path)])
    assert rc == EXIT_OK
    assert forest_path.exists()
    importances = tmp_path / "forest.importances.csv"
    assert importances.exists()
    assert (tmp_path / "forest.json.manifest.json").exists()

    probs_dir = tmp_path / "probs"
    rc = main(["probs", "--forest", str(forest_path), "--data", str(csv_path),
               "--schema", str(schema_path), "--individual", "all-off-target",
               "--target-class", "0", "--E", "1", "--seed", "2",
               "--n-samples", "200", "-o", str(probs_dir)])
    assert rc == EXIT_OK
    tables = sorted(probs_dir.glob("individual_*.json"))
    assert tables

    row = tables[0].stem.split("_")[1]
    sol_path = tmp_path / "solution.json"
    rc = main(["shift", "--forest", str(forest_path), "--probs", str(tables[0]),
               "--data", str(csv_path), "--schema", str(schema_path),
               "--individual", row, "--objective", "kappa", "--kappa-fraction", "0.5",
               "--target-class", "0", "--eta", "2", "--E", "1", "-o", str(sol_path)])
    assert rc in (EXIT_OK, EXIT_INFEASIBLE)
    doc = json.loads(sol_path.read_text())
    if rc == EXIT_OK:
        assert doc["status"] == "optimal"
        assert doc["verified"] is True
        solutions_dir = tmp_path / "solutions"
        solutions_dir.mkdir()
        (solutions_dir / "s0.json").write_text(json.dumps(doc))
        ranking_path = tmp_path / "ranking.csv"
        rc = main(["rank", "--forest", str(forest_path), "--solutions", str(solutions_dir),
                   "--eta", "2", "-o", str(ranking_path)])
        assert rc == EXIT_OK
    else:
        ranking_path = tmp_path / "ranking.csv"
        rc = main(["rank", "--forest", str(forest_path), "--random", "--eta", "2",
                   "--seed", "3", "-o", str(ranking_path)])
        assert rc == EXIT_OK

    report_path = tmp_path / "report.csv"
    rc = main(["simulate", "--forest", str(forest_path), "--data", str(csv_path),
               "--schema", str(schema_path), "--ranking", str(ranking_path),
               "--etas", "1,2", "--reps", "10", "--seed", "4", "--baseline",
               "--target-class", "0", "-o", str(report_path)])
    assert rc == EXIT_OK
    text = report_path.read_text()
    assert text.startswith("method,eta=2,eta=1,baseline")


def test_shift_distance_objective(tmp_path):
    csv_path, schema_path = _write_dataset_files(tmp_path, seed=5)
    forest_path = tmp_path / "forest.json"
    main(["train", "--data", str(csv_path), "--schema", str(schema_path),
          "--trees", "3", "--depth", "2", "--seed", "0", "-o", str(forest_path)])
    sol_path = tmp_path / "sol.json"
    rc = main(["shift", "--forest", str(forest_path), "--data", str(csv_path),
               "--schema", str(schema_path), "--individual", "0",
               "--objective", "distance", "--target-class", "0", "-o", str(sol_path)])
    assert rc in (EXIT_OK, EXIT_INFEASIBLE)
    assert sol_path.exists()


def test_shift_infeasible_exit_code(tmp_path):
    # every leaf predicts class 0: shifting to class 1 is impossible
    from treeshift import FeatureMeta, Forest, Leaf, Node, NodeProbabilityTable, Tree
    from treeshift.probability import save_table

    tree = Tree(0, [Node(0, 0, 0.5, 1, 2)], [Leaf(1, 0), Leaf(2, 0)])
    forest = Forest([tree], [FeatureMeta(0, "habit2", mutable=True, beneficial="increase")])
    forest_path = tmp_path / "f.json"
    save_forest(forest, forest_path)
    table_path = tmp_path / "t.json"
    save_table(NodeProbabilityTable(0, 1, {(0, 0): (0.4, 0.6)}), table_path)
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("habit2,label\n0.5,0\n0.6,1\n")
    schema_path = tmp_path / "s.json"
    schema_path.write_text(json.dumps({"columns": [
        {"name": "habit2", "role": "feature", "kind": "continuous",
         "mutable": True, "beneficial": "increase"},
        {"name": "label", "role": "target", "positive_labels": ["1"]},
    ]}))
    rc = main(["shift", "--forest", str(forest_path), "--probs", str(table_path),
               "--data", str(csv_path), "--schema", str(schema_path),
               "--individual", "0", "--objective", "max", "--target-class", "1",
               "--eta", "1", "--E", "1", "-o", str(tmp_path / "sol.json")])
    assert rc == EXIT_INFEASIBLE


def test_shift_timeout_exit_code(tmp_path):
    from treeshift.probability import save_table

    forest_path = tmp_path / "f.json"
    save_forest(firefighter_forest(), forest_path)
    table_path = tmp_path / "t.json"
    save_table(firefighter_table(), table_path)
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("S,A,label\n0.5,0.5,0\n")
    schema_path = tmp_path / "s.json"
    schema_path.write_text(json.dumps({"columns": [
        {"name": "S", "kind": "continuous", "mutable": True, "beneficial": "increase"},
        {"name": "A", "kind": "continuous", "mutable": True, "beneficial": "increase"},
        {"name": "label", "role": "target", "positive_labels": ["1"]},
    ]}))
    rc = main(["shift", "--forest", str(forest_path), "--probs", str(table_path),
               "--data", str(csv_path), "--schema", str(schema_path),
               "--individual", "0", "--objective", "max", "--target-class", "1",
               "--eta", "1", "--E", "1", "--time-limit", "0",
               "-o", str(tmp_path / "sol.json")])
    assert rc == EXIT_TIMEOUT


def test_probs_worker_fanout_matches_sequential(tmp_path):
    csv_path, schema_path = _write_dataset_files(tmp_path, n=40, seed=7)
    forest_path = tmp_path / "forest.json"
    main(["train", "--data", str(csv_path), "--schema", str(schema_path),
          "--trees", "3", "--depth", "2", "--seed", "0", "-o", str(forest_path)])
    outputs = []
    for threads, sub in (("1", "seq"), ("2", "par")):
        out_dir = tmp_path / sub
        rc = main(["probs", "--forest", str(forest_path), "--data", str(csv_path),
                   "--schema", str(schema_path), "--individual", "all-off-target",
                   "--target-class", "0", "--E", "1", "--n-samples", "100",
                   "--seed", "1", "--threads", threads, "-o", str(out_dir)])
        assert rc == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("*.json"))
                        if not p.name.endswith("manifest.json")})
    assert outputs[0] == outputs[1]


def test_usage_error_exit_code(tmp_path):
    assert main(["rank", "--forest", "missing.json", "--eta", "1",
                 "-o", str(tmp_path / "r.csv")]) == EXIT_USAGE


def _assert_replays(manifest, outputs, content=bytes):
    """Delete a command's outputs, replay its manifest and compare what it rewrites."""
    before = [content(p.read_bytes()) for p in outputs]
    for p in outputs:
        p.unlink()
    assert main(["replay", str(manifest)]) == EXIT_OK
    assert [content(p.read_bytes()) for p in outputs] == before


def _without_wall_time(raw):
    doc = json.loads(raw)
    doc.pop("wall_time")
    return doc


def test_manifest_replay_reproduces_output(tmp_path):
    csv_path, schema_path = _write_dataset_files(tmp_path, n=40, seed=3)
    data = ["--data", str(csv_path), "--schema", str(schema_path)]
    forest_path = tmp_path / "forest.json"
    assert main(["train", *data, "--trees", "3", "--depth", "2", "--seed", "1",
                 "-o", str(forest_path)]) == EXIT_OK
    _assert_replays(tmp_path / "forest.json.manifest.json",
                    [forest_path, tmp_path / "forest.importances.csv"])

    probs_dir = tmp_path / "probs"
    assert main(["probs", "--forest", str(forest_path), *data,
                 "--individual", "all-off-target", "--n-samples", "100", "--seed", "2",
                 "-o", str(probs_dir)]) == EXIT_OK
    tables = sorted(probs_dir.glob("individual_*.json"))
    assert tables
    _assert_replays(tmp_path / "probs.manifest.json", tables)

    # the solution's wall_time is a timing, so only the rest of it replays exactly
    sol_path = tmp_path / "sol.json"
    assert main(["shift", "--forest", str(forest_path), "--probs", str(tables[0]), *data,
                 "--individual", tables[0].stem.split("_")[1], "--eta", "2",
                 "-o", str(sol_path)]) == EXIT_OK
    _assert_replays(tmp_path / "sol.json.manifest.json", [sol_path], _without_wall_time)

    ranking_path = tmp_path / "ranking.csv"
    assert main(["rank", "--forest", str(forest_path), "--random", "--eta", "2",
                 "--seed", "9", "-o", str(ranking_path)]) == EXIT_OK
    _assert_replays(tmp_path / "ranking.csv.manifest.json", [ranking_path])

    report_path = tmp_path / "report.csv"
    assert main(["simulate", "--forest", str(forest_path), *data,
                 "--ranking", str(ranking_path), "--etas", "1,2", "--reps", "10",
                 "--seed", "4", "--baseline", "-o", str(report_path)]) == EXIT_OK
    _assert_replays(tmp_path / "report.csv.manifest.json", [report_path])
