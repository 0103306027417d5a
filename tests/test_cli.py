import json
import subprocess
import sys

import pytest

from treeshift import synth_generate
from treeshift.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_TIMEOUT, EXIT_USAGE, main
from treeshift.forest import save_forest
from treeshift.fixtures import firefighter_forest, firefighter_table

from helpers import firefighter_forest_json


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


def _firefighter_files(tmp_path):
    """The firefighter forest and individual 0's table, and a two-row dataset, as files."""
    from treeshift.probability import save_table

    forest_path = tmp_path / "f.json"
    save_forest(firefighter_forest(), forest_path)
    table_path = tmp_path / "t.json"
    save_table(firefighter_table(), table_path)
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("S,A,label\n0.5,0.5,0\n0.4,0.6,0\n")
    schema_path = tmp_path / "s.json"
    schema_path.write_text(json.dumps({"columns": [
        {"name": "S", "kind": "continuous", "mutable": True, "beneficial": "increase"},
        {"name": "A", "kind": "continuous", "mutable": True, "beneficial": "increase"},
        {"name": "label", "role": "target", "positive_labels": ["1"]},
    ]}))
    return forest_path, table_path, csv_path, schema_path


def _firefighter_shift(tmp_path, *extra, individual="0"):
    forest_path, table_path, csv_path, schema_path = _firefighter_files(tmp_path)
    return main(["shift", "--forest", str(forest_path), "--probs", str(table_path),
                 "--data", str(csv_path), "--schema", str(schema_path),
                 "--individual", individual, "--objective", "max", "--target-class", "1",
                 "--eta", "1", "--E", "1", *extra, "-o", str(tmp_path / "sol.json")])


def test_shift_timeout_exit_code(tmp_path):
    assert _firefighter_shift(tmp_path, "--time-limit", "1e-9") == EXIT_TIMEOUT


@pytest.mark.parametrize("limit", ["nan", "0", "-1"])
def test_shift_time_limit_that_is_not_positive_is_a_usage_error(tmp_path, capsys, limit):
    assert _firefighter_shift(tmp_path, "--time-limit", limit) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "sol.json").exists()


def test_shift_nan_epsilon_is_a_usage_error(tmp_path):
    assert _firefighter_shift(tmp_path, "--epsilon", "nan") == EXIT_USAGE
    assert not (tmp_path / "sol.json").exists()


def test_shift_rejects_the_table_of_another_individual(tmp_path):
    # the table on file is individual 0's; row 1 of the data is someone else
    assert _firefighter_shift(tmp_path, individual="1") == EXIT_USAGE
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("individual", ["-1", "2", "5"])
def test_shift_individual_outside_the_data_is_a_usage_error(tmp_path, individual):
    assert _firefighter_shift(tmp_path, individual=individual) == EXIT_USAGE
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("individual", ["-1", "2", "5"])
def test_probs_individual_outside_the_data_is_a_usage_error(tmp_path, individual):
    forest_path, _, csv_path, schema_path = _firefighter_files(tmp_path)
    rc = main(["probs", "--forest", str(forest_path), "--data", str(csv_path),
               "--schema", str(schema_path), "--individual", individual, "--target-class", "1",
               "--E", "1", "--n-samples", "10", "-o", str(tmp_path / "probs")])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "probs").exists()


def test_probs_schema_that_disagrees_with_the_forest_is_a_usage_error(tmp_path, capsys):
    # the forest lets S take effort; a schema that calls S immutable must not be used with it
    forest_path, _, csv_path, schema_path = _firefighter_files(tmp_path)
    doc = json.loads(schema_path.read_text())
    doc["columns"][0]["mutable"] = False
    schema_path.write_text(json.dumps(doc))
    rc = main(["probs", "--forest", str(forest_path), "--data", str(csv_path),
               "--schema", str(schema_path), "--individual", "0", "--target-class", "1",
               "--E", "1", "--n-samples", "10", "-o", str(tmp_path / "probs")])
    assert rc == EXIT_USAGE
    assert "differ from the forest's" in capsys.readouterr().err
    assert not (tmp_path / "probs").exists()


@pytest.mark.parametrize("etas", ["-1", "1,-1"])
def test_simulate_negative_eta_is_a_usage_error(tmp_path, etas):
    forest_path, _, csv_path, schema_path = _firefighter_files(tmp_path)
    ranking = tmp_path / "r.csv"
    ranking.write_text("feature,score,rank\nA,1,1\nS,0.5,2\n")
    rc = main(["simulate", "--forest", str(forest_path), "--data", str(csv_path),
               "--schema", str(schema_path), "--ranking", str(ranking), "--etas", etas,
               "--target-class", "1", "--reps", "5", "-o", str(tmp_path / "sim.csv")])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize("etas", ["-1", "-1,-5", "2,-1"])
def test_simulate_baseline_negative_eta_is_a_usage_error(tmp_path, capsys, etas):
    # without --ranking the etas used to reach only the CSV header
    forest_path, _, csv_path, schema_path = _firefighter_files(tmp_path)
    rc = main(["simulate", "--forest", str(forest_path), "--data", str(csv_path),
               "--schema", str(schema_path), f"--etas={etas}", "--target-class", "1",
               "--reps", "5", "-o", str(tmp_path / "sim.csv")])
    assert rc == EXIT_USAGE
    assert "--etas must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()
    assert not (tmp_path / "sim.csv.manifest.json").exists()


@pytest.mark.parametrize("target_class", ["7", "3", "-1"])
@pytest.mark.parametrize("command", ["probs", "simulate"])
def test_target_class_other_than_0_or_1_is_a_usage_error(tmp_path, capsys, command,
                                                         target_class):
    # both used to run, on every row as off-target, and exit 0
    forest_path, _, csv_path, schema_path = _firefighter_files(tmp_path)
    out = tmp_path / "out"
    extra = (["--individual", "all-off-target", "--n-samples", "10"] if command == "probs"
             else ["--reps", "5", "--baseline"])
    rc = main([command, "--forest", str(forest_path), "--data", str(csv_path),
               "--schema", str(schema_path), "--target-class", target_class, *extra,
               "-o", str(out)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --target-class must be 0 or 1, got {target_class}\n"
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_rank_negative_eta_is_a_usage_error(tmp_path):
    forest_path, *_ = _firefighter_files(tmp_path)
    assert main(["rank", "--forest", str(forest_path), "--random", "--eta", "-1",
                 "-o", str(tmp_path / "r.csv")]) == EXIT_USAGE
    assert not (tmp_path / "r.csv").exists()


def test_probs_negative_effort_level_count_is_a_usage_error(tmp_path):
    forest_path, _, csv_path, schema_path = _firefighter_files(tmp_path)
    rc = main(["probs", "--forest", str(forest_path), "--data", str(csv_path),
               "--schema", str(schema_path), "--individual", "0", "--target-class", "1",
               "--E", "-1", "-o", str(tmp_path / "probs")])
    assert rc == EXIT_USAGE
    assert not list((tmp_path / "probs").glob("individual_*.json"))


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

    rfr_path, svg_path = tmp_path / "rfr.csv", tmp_path / "rfr.svg"
    assert main(["rank", "--forest", str(forest_path), "--importances",
                 str(tmp_path / "forest.importances.csv"), "--eta", "2", "--svg", str(svg_path),
                 "-o", str(rfr_path)]) == EXIT_OK
    _assert_replays(tmp_path / "rfr.csv.manifest.json", [rfr_path, svg_path])

    report_path = tmp_path / "report.csv"
    assert main(["simulate", "--forest", str(forest_path), *data,
                 "--ranking", str(ranking_path), "--etas", "1,2", "--reps", "10",
                 "--seed", "4", "--baseline", "-o", str(report_path)]) == EXIT_OK
    _assert_replays(tmp_path / "report.csv.manifest.json", [report_path])


def _table_json(entry_0=(), **fields) -> str:
    """The firefighter table's JSON text with ``fields`` set, and ``entry_0`` in its first entry."""
    doc = firefighter_table().to_dict() | fields
    doc["entries"][0].update(entry_0)
    return json.dumps(doc)


_SHIFT = ("shift --forest {forest} --probs {bad} --data {data} --schema {schema} "
          "--individual 0 --target-class 1 -o {out}")
_SIMULATE = ("simulate --forest {forest} --data {data} --schema {schema} --ranking {bad} "
             "--etas 1,2 --target-class 1 --reps 5 -o {out}")

# a file the pipeline reads, its text, and the command that reads it; {bad} is that file
_BAD_FILES = {
    "schema without columns": (
        "schema.json", "{}", "train --data {data} --schema {bad} -o {out}"),
    "schema column without a name": (
        "schema.json", '{"columns": [{"role": "target"}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "schema that is not an object": (
        "schema.json", "[]", "train --data {data} --schema {bad} -o {out}"),
    "schema that is not JSON": (
        "schema.json", '{"columns": [', "train --data {data} --schema {bad} -o {out}"),
    "manifest without argv": ("m.json", '{"seeds": {}}', "replay {bad}"),
    "manifest that is not an object": ("m.json", '["demo"]', "replay {bad}"),
    "manifest argv that is not a list of strings": (
        "m.json", '{"argv": ["demo", 1]}', "replay {bad}"),
    "manifest argv that is a string": ("m.json", '{"argv": "demo"}', "replay {bad}"),
    "manifest that is not JSON": ("m.json", '{"argv": ', "replay {bad}"),
    "solution doc without status": (
        "sols/s.json", '{"effort": [1, 0]}',
        "rank --forest {forest} --solutions {dir}/sols --eta 1 -o {out}"),
    "solution doc that is not JSON": (
        "sols/s.json", '{"status": ',
        "rank --forest {forest} --solutions {dir}/sols --eta 1 -o {out}"),
    "importances CSV without its header": (
        "imp.csv", "S,0.5\nA,0.25\n",
        "rank --forest {forest} --importances {bad} --eta 1 -o {out}"),
    "importances CSV with a short row": (
        "imp.csv", "feature,importance\nS,0.5\nA\n",
        "rank --forest {forest} --importances {bad} --eta 1 -o {out}"),
    "ranking CSV without its header": (
        "r.csv", "A,1,1\nS,0.5,2\n",
        "simulate --forest {forest} --data {data} --schema {schema} --ranking {bad} "
        "--target-class 1 --reps 5 -o {out}"),
    "ranking CSV with a short row": (
        "r.csv", "feature,score,rank\nA,1,1\nS\n",
        "simulate --forest {forest} --data {data} --schema {schema} --ranking {bad} "
        "--target-class 1 --reps 5 -o {out}"),
    "data CSV without a schema column": (
        "data.csv", "S,label\n0.5,0\n", "train --data {bad} --schema {schema} -o {out}"),
    "data CSV that repeats a column": (
        "data.csv", "S,A,label,A\n0.5,0.5,0,0.5\n",
        "train --data {bad} --schema {schema} -o {out}"),
    "importances cell that is not a number": (
        "imp.csv", "feature,importance\nS,abc\n",
        "rank --forest {forest} --importances {bad} --eta 1 -o {out}"),
    "ranking score that is not a number": (
        "r.csv", "feature,score,rank\nA,abc,1\n",
        "simulate --forest {forest} --data {data} --schema {schema} --ranking {bad} "
        "--target-class 1 --reps 5 -o {out}"),
    "schema that is not UTF-8": (
        "schema.json", b'{"columns": [{"name": "\xff"}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "schema feature without a direction": (
        "schema.json", '{"columns": [{"name": "S"}, {"name": "A", "beneficial": "increase"}, '
        '{"name": "label", "role": "target", "positive_labels": ["1"]}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "schema column with an unknown field": (
        "schema.json", '{"columns": [{"name": "S", "mutible": false, "beneficial": "increase"}, '
        '{"name": "A", "beneficial": "increase"}, '
        '{"name": "label", "role": "target", "positive_labels": ["1"]}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "schema binary recode outside {0, 1} that no row holds": (
        "schema.json", '{"columns": [{"name": "S", "kind": "binary", "beneficial": "to_one", '
        '"recode": {"0.5": 0, "0.4": 1, "y": 2}}, {"name": "A", "beneficial": "increase"}, '
        '{"name": "label", "role": "target", "positive_labels": ["1"]}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "schema column whose mutable is a string": (
        "schema.json", '{"columns": [{"name": "S", "mutable": "no", "beneficial": "increase"}, '
        '{"name": "A", "beneficial": "increase"}, '
        '{"name": "label", "role": "target", "positive_labels": ["1"]}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "schema recode that is a list": (
        "schema.json", '{"columns": [{"name": "S", "beneficial": "increase", "recode": ["a"]}, '
        '{"name": "A", "beneficial": "increase"}, '
        '{"name": "label", "role": "target", "positive_labels": ["1"]}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "forest feature whose mutable is a string": (
        "forest.json",
        firefighter_forest_json(feature_0={"mutable": "no"}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "schema target without positive_labels": (
        "schema.json", '{"columns": [{"name": "S", "beneficial": "increase"}, '
        '{"name": "A", "beneficial": "increase"}, {"name": "label", "role": "target"}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "schema that names a column twice": (
        "schema.json", '{"columns": [{"name": "S", "mutable": false}, '
        '{"name": "S", "role": "target"}]}', "train --data {data} --schema {bad} -o {out}"),
    "forest leaf whose class is true": (
        "forest.json",
        firefighter_forest_json(leaf_0={"class": True}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest threshold that is a string": (
        "forest.json",
        firefighter_forest_json(node_0={"threshold": "0.5"}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest tree weight that is a string": (
        "forest.json",
        firefighter_forest_json(tree={"weight": "2"}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest tree weight that is true": (
        "forest.json",
        firefighter_forest_json(tree={"weight": True}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest node feature that is true": (
        "forest.json",
        firefighter_forest_json(node_0={"feature": True}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest tree root that is 0.0": (
        "forest.json",
        firefighter_forest_json(tree={"root": 0.0}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest leaf id that is a float": (
        "forest.json",
        firefighter_forest_json(leaf_1={"id": 4.0}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest that repeats a leaf id": (
        "forest.json",
        firefighter_forest_json(leaf_1={"id": 3}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest feature of kind ordinal": (
        "forest.json",
        firefighter_forest_json(feature_0={"kind": "ordinal"}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest feature whose name is a number": (
        "forest.json",
        firefighter_forest_json(feature_0={"name": 5}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "forest feature whose domain is false to true": (
        "forest.json",
        firefighter_forest_json(feature_0={"lo": False, "hi": True}),
        "rank --forest {bad} --random --eta 1 -o {out}"),
    "schema positive_labels that is a string": (
        "schema.json", '{"columns": [{"name": "S", "beneficial": "increase"}, '
        '{"name": "A", "beneficial": "increase"}, '
        '{"name": "label", "role": "target", "positive_labels": "10"}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "schema drop_values that is a string": (
        "schema.json", '{"columns": [{"name": "S", "beneficial": "increase", "drop_values": "0.5"}, '
        '{"name": "A", "beneficial": "increase"}, '
        '{"name": "label", "role": "target", "positive_labels": ["1"]}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "schema drop_labels that is a string": (
        "schema.json", '{"columns": [{"name": "S", "beneficial": "increase"}, '
        '{"name": "A", "beneficial": "increase"}, '
        '{"name": "label", "role": "target", "positive_labels": ["1"], "drop_labels": "2"}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "table probability of 1.5": (
        "table.json",
        json.dumps(firefighter_table().to_dict()
                   | {"entries": [{"tree": 0, "node": 0, "right": [0.4, 1.5]}]}),
        "shift --forest {forest} --probs {bad} --data {data} --schema {schema} "
        "--individual 0 --target-class 1 -o {out}"),
    "solution effort that is not a list of integers": (
        "sols/s.json", '{"status": "optimal", "effort": "ab"}',
        "rank --forest {forest} --solutions {dir}/sols --eta 1 -o {out}"),
    "table probability that is a string": (
        "table.json", _table_json(entry_0={"right": ["0.4", 0.5]}), _SHIFT),
    "table probability that is true": ("table.json", _table_json(entry_0={"right": [0.4, True]}), _SHIFT),
    "table individual that is false": ("table.json", _table_json(individual=False), _SHIFT),
    "table E that is true": ("table.json", _table_json(E=True), _SHIFT),
    "table node that is false": ("table.json", _table_json(entry_0={"node": False}), _SHIFT),
    "schema column of an unknown role": (
        "schema.json", '{"columns": [{"name": "S", "role": "feture", "beneficial": "increase"}, '
        '{"name": "A", "beneficial": "increase"}, '
        '{"name": "label", "role": "target", "positive_labels": ["1"]}]}',
        "train --data {data} --schema {bad} -o {out}"),
    "ranking CSV that names a feature twice": ("r.csv", "feature,score,rank\nA,1,1\nA,0.5,2\n", _SIMULATE),
    "ranking CSV shorter than the largest eta": ("r.csv", "feature,score,rank\nA,1,1\n", _SIMULATE),
    "importances CSV that names a feature twice": (
        "imp.csv", "feature,importance\nS,0.5\nS,0.25\n",
        "rank --forest {forest} --importances {bad} --eta 1 -o {out}"),
}


@pytest.mark.parametrize("case", sorted(_BAD_FILES))
def test_a_bad_input_file_is_a_usage_error_that_names_it(tmp_path, capsys, case):
    name, text, command = _BAD_FILES[case]
    forest_path, _, csv_path, schema_path = _firefighter_files(tmp_path)
    bad = tmp_path / name
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    paths = {"bad": bad, "forest": forest_path, "data": csv_path, "schema": schema_path,
             "dir": tmp_path, "out": tmp_path / "out"}
    assert main([word.format(**paths) for word in command.split()]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_rejected_data_cell_is_a_usage_error_that_names_the_csv(tmp_path, capsys):
    forest_path, _, _, schema_path = _firefighter_files(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("S,A,label\n0.5,abc,0\n")
    assert main(["train", "--data", str(bad), "--schema", str(schema_path),
                 "-o", str(tmp_path / "out")]) == EXIT_USAGE
    # the error's first line names the file, and each further line one rejected cell
    assert capsys.readouterr().err == (
        f"error: {bad}: CSV rejected:\nrow 0: A value 'abc' is not numeric\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, message", [
    ("shift --forest {forest} --data {data} --schema {schema} --individual 0 "
     "--objective kappa -o {out}", "probabilistic objectives need --probs"),
    ("simulate --forest {forest} --data {data} --schema {schema} --target-class 0 "
     "--reps 5 -o {out}", "no off-target individuals in the data"),
], ids=["kappa without --probs", "simulate without off-target rows"])
def test_a_command_its_inputs_cannot_serve_is_a_usage_error(tmp_path, capsys, command, message):
    forest_path, _, csv_path, schema_path = _firefighter_files(tmp_path)
    csv_path.write_text("S,A,label\n0.5,0.5,0\n0.5,0.5,0\n")   # each row predicts class 0
    paths = {"forest": forest_path, "data": csv_path, "schema": schema_path,
             "out": tmp_path / "out"}
    assert main([word.format(**paths) for word in command.split()]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_every_json_file_the_pipeline_writes_has_one_format(tmp_path):
    csv_path, schema_path = _write_dataset_files(tmp_path, n=40, seed=3)
    data = ["--data", str(csv_path), "--schema", str(schema_path)]
    forest_path = tmp_path / "forest.json"
    assert main(["train", *data, "--trees", "3", "--depth", "2", "--seed", "1",
                 "-o", str(forest_path)]) == EXIT_OK
    probs_dir = tmp_path / "probs"
    assert main(["probs", "--forest", str(forest_path), *data, "--individual", "all-off-target",
                 "--n-samples", "100", "--seed", "2", "-o", str(probs_dir)]) == EXIT_OK
    table = sorted(probs_dir.glob("individual_*.json"))[0]
    assert main(["shift", "--forest", str(forest_path), "--probs", str(table), *data,
                 "--individual", table.stem.split("_")[1], "--eta", "2",
                 "-o", str(tmp_path / "sol.json")]) in (EXIT_OK, EXIT_INFEASIBLE)
    ranking_path = tmp_path / "ranking.csv"
    assert main(["rank", "--forest", str(forest_path), "--random", "--eta", "2",
                 "-o", str(ranking_path)]) == EXIT_OK
    assert main(["simulate", "--forest", str(forest_path), *data, "--ranking",
                 str(ranking_path), "--etas", "1,2", "--reps", "5",
                 "-o", str(tmp_path / "report.csv")]) == EXIT_OK
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.json")
                     if p != schema_path)
    assert {"forest.json", "forest.json.manifest.json", "probs.manifest.json", "sol.json",
            "sol.json.manifest.json", "ranking.csv.manifest.json",
            "report.csv.manifest.json", table.relative_to(tmp_path).as_posix()} <= set(written)
    for name in written:
        raw = (tmp_path / name).read_bytes()
        assert raw == (json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n").encode(), name
