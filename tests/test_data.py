import numpy as np
import pytest

from treeshift import ColumnSpec, DatasetSchema, load_csv, split, synth_generate

from helpers import reference_load_csv


def _write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA = DatasetSchema([
    ColumnSpec("age", kind="continuous", mutable=False, beneficial="none"),
    ColumnSpec("water", kind="continuous", mutable=True, beneficial="increase"),
    ColumnSpec("smoker", kind="binary", mutable=True, beneficial="to_zero",
               recode={"yes": 1.0, "no": 0.0}),
    ColumnSpec("note", role="drop"),
    ColumnSpec("status", role="target", positive_labels=("obese",)),
])


def test_load_csv_drops_and_recodes(tmp_path):
    csv = _write_csv(tmp_path / "d.csv", (
        "age,water,smoker,note,status\n"
        "10,1.0,yes,a,obese\n"
        "20,2.0,no,b,healthy\n"
        "30,3.0,no,c,obese\n"
    ))
    ds = load_csv(csv, SCHEMA)
    assert ds.num_features == 3          # note dropped
    assert list(ds.y) == [1, 0, 1]
    assert [m.name for m in ds.feature_metas] == ["age", "water", "smoker"]


def test_load_csv_min_max_normalizes(tmp_path):
    csv = _write_csv(tmp_path / "d.csv", (
        "age,water,smoker,note,status\n"
        "10,10,no,x,obese\n"
        "20,20,no,x,healthy\n"
        "30,30,yes,x,obese\n"
    ))
    ds = load_csv(csv, SCHEMA)
    assert np.allclose(ds.X[:, 1], [0.0, 0.5, 1.0])


def test_load_csv_binary_majority_frequency(tmp_path):
    rows = "".join(
        f"1,1,{'yes' if i < 9 else 'no'},x,obese\n" for i in range(10)
    )
    csv = _write_csv(tmp_path / "d.csv", "age,water,smoker,note,status\n" + rows)
    ds = load_csv(csv, SCHEMA)
    assert ds.binary_majority_freq(2) == pytest.approx(0.9)


def test_load_csv_rejects_unknown_categorical(tmp_path):
    csv = _write_csv(tmp_path / "d.csv", (
        "age,water,smoker,note,status\n"
        "10,1.0,maybe,a,obese\n"
    ))
    with pytest.raises(ValueError) as err:
        load_csv(csv, SCHEMA)
    assert "row 0" in str(err.value)


def test_load_csv_rejects_missing_value(tmp_path):
    csv = _write_csv(tmp_path / "d.csv", (
        "age,water,smoker,note,status\n"
        "10,,yes,a,obese\n"
    ))
    with pytest.raises(ValueError):
        load_csv(csv, SCHEMA)


def test_load_csv_reports_every_bad_cell_in_order(tmp_path):
    csv = _write_csv(tmp_path / "d.csv", (
        "age,water,smoker,note,status\n"
        "10,1.0,no,a,obese\n"
        "x,,maybe,b,obese\n"
        "30,3.0,no,c,obese\n"
        ",abc,yes,d,healthy\n"
    ))
    with pytest.raises(ValueError) as err:
        load_csv(csv, SCHEMA)
    assert str(err.value) == (
        f"{csv}: CSV rejected:\n"
        "row 1: age value 'x' is not numeric\n"
        "row 1: missing value in water\n"
        "row 1: smoker value 'maybe' has no recode\n"
        "row 3: missing value in age\n"
        "row 3: water value 'abc' is not numeric"
    )


def test_load_csv_rejects_missing_and_empty_labels(tmp_path):
    # a missing label once read as class 0
    schema = DatasetSchema([
        ColumnSpec("a", beneficial="increase"),
        ColumnSpec("label", role="target", positive_labels=("1",), drop_labels=("x",)),
    ])
    csv = _write_csv(tmp_path / "d.csv", "a,label\n0.1,1\n0.5\n0.9,\n0.2,x\n,\n")
    with pytest.raises(ValueError) as err:
        load_csv(csv, schema)
    assert str(err.value) == (
        f"{csv}: CSV rejected:\n"
        "row 1: missing value in label\n"
        "row 2: missing value in label\n"
        "row 3: missing value in a\n"
        "row 3: missing value in label"
    )
    # a dropped label drops its row first
    csv = _write_csv(tmp_path / "e.csv", "a,label\n0.1,1\n0.2,x\n0.9,0\n")
    assert load_csv(csv, schema).y.tolist() == [1, 0]


def test_load_csv_rejects_a_repeated_schema_column(tmp_path):
    schema = DatasetSchema([
        ColumnSpec("a", beneficial="increase"),
        ColumnSpec("label", role="target", positive_labels=("1",)),
    ])
    csv = _write_csv(tmp_path / "d.csv", "a,label,a\n0.1,1,0.9\n0.5,0,0.2\n")
    with pytest.raises(ValueError) as err:
        load_csv(csv, schema)
    assert str(err.value) == f"{csv}: header repeats column 'a'"
    # a repeated column the schema does not name is ignored
    csv = _write_csv(tmp_path / "e.csv", "a,x,label,x\n0.1,,1,\n0.5,,0,\n")
    assert load_csv(csv, schema).y.tolist() == [1, 0]


_DIFF_SCHEMA = DatasetSchema([
    ColumnSpec("num", beneficial="increase"),
    ColumnSpec("ord", beneficial="decrease", recode={"lo": 0, "mid": 1.5, "hi": 3, "": 9},
               drop_values=("skip",)),
    ColumnSpec("flag", kind="binary", beneficial="to_one"),
    ColumnSpec("smoker", kind="binary", mutable=False, recode={"yes": 1.0, "no": 0.0}),
    ColumnSpec("age", mutable=False, drop_values=("-1",)),
    ColumnSpec("note", role="drop"),
    ColumnSpec("status", role="target", positive_labels=("bad", "1"), drop_labels=("?",)),
])
_CELLS = {
    "num": ["0.5", "1e3", "-2", " 1.25 ", "7", "3.0", "nan", "inf", "-Infinity", "", "abc",
            "1,5", "1_0", "+4"],
    "ord": ["lo", "mid", "hi", "lo", "mid", "", "skip", "high"],
    "flag": ["0", "1", "0", "1", "0.0", "", "2"],
    "smoker": ["yes", "no", "yes", "no", "Yes", ""],
    "age": ["30", "41.5", "18", "-1", "65", "  22", "", "NaN"],
    "note": ["a", "b,c", "", "x y"],
    "status": ["bad", "good", "1", "0", "?", "", "bad", "good"],
}


def _random_csv(rng):
    """A CSV text over _DIFF_SCHEMA's columns, valid or not, from one generator."""
    names = list(_CELLS) + ["extra"] * int(rng.integers(0, 2))
    names = [names[i] for i in rng.permutation(len(names))]
    if rng.random() < 0.03:
        names.append(str(rng.choice(list(_CELLS))))   # a repeated column
    if rng.random() < 0.03:
        names.remove(str(rng.choice(list(_CELLS))))   # a missing column
    bad = rng.random() < 0.4    # else only cells every column accepts
    constant = {name: rng.random() < 0.15 for name in _CELLS}
    lines = [",".join(names)]
    for _ in range(int(rng.integers(0, 25))):
        if rng.random() < 0.05:
            lines.append("")
            continue
        cells = []
        for name in names:
            pool = _CELLS.get(name, ["e", ""])
            if not bad:
                pool = pool[:4] if name not in ("ord", "age", "status") else pool[:3]
            cell = pool[0] if constant.get(name) else str(rng.choice(pool))
            cells.append(f'"{cell}"' if "," in cell or rng.random() < 0.1 else cell)
        if bad and rng.random() < 0.05:
            cells = cells[:int(rng.integers(0, len(cells)))]   # a short row
        if rng.random() < 0.05:
            cells.append("surplus")   # a long row
        lines.append(",".join(cells))
    return "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")


def _load_or_error(load, path):
    try:
        ds = load(path, _DIFF_SCHEMA)
    except ValueError as exc:
        return "error", str(exc)
    return "data", (ds.X.dtype, ds.X.shape, ds.X.tobytes(), ds.y.dtype, ds.y.tobytes(),
                    ds.feature_metas)


def test_load_csv_matches_the_per_cell_reference(tmp_path):
    rng = np.random.default_rng(20261019)
    kinds = {}
    for case in range(600):
        path = _write_csv(tmp_path / f"c{case}.csv", _random_csv(rng))
        got, want = _load_or_error(load_csv, path), _load_or_error(reference_load_csv, path)
        assert got == want, path.read_text()
        kind = want[1].split("\n")[0].split(": ", 1)[1] if want[0] == "error" else "data"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("data", 0) >= 150 and kinds.get("CSV rejected:", 0) >= 150, kinds
    assert len(kinds) >= 5, kinds


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell):
    # one NaN would turn the whole normalized column into NaN
    csv = _write_csv(tmp_path / "d.csv", (
        "age,water,smoker,note,status\n"
        "10,1.0,no,a,obese\n"
        f"20,{cell},no,b,obese\n"
    ))
    with pytest.raises(ValueError) as err:
        load_csv(csv, SCHEMA)
    assert str(err.value) == f"{csv}: CSV rejected:\nrow 1: water value {cell!r} is not finite"


def test_split_sizes_and_partition():
    ds = synth_generate(30, 3, seed=1)
    small = ds.subset(np.arange(9))
    train, test = split(small, 2 / 3, seed=0)
    assert train.num_rows == 6 and test.num_rows == 3
    merged = sorted(map(tuple, np.vstack([train.X, test.X])))
    assert merged == sorted(map(tuple, small.X))


def test_split_deterministic():
    ds = synth_generate(40, 4, seed=2)
    a1, b1 = split(ds, 0.5, seed=7)
    a2, b2 = split(ds, 0.5, seed=7)
    assert np.array_equal(a1.X, a2.X) and np.array_equal(b1.X, b2.X)


def test_synth_same_seed_identical():
    d1 = synth_generate(50, 5, seed=3)
    d2 = synth_generate(50, 5, seed=3)
    assert np.array_equal(d1.X, d2.X) and np.array_equal(d1.y, d2.y)


def test_synth_class_balance():
    ds = synth_generate(600, 8, seed=4)
    rate = ds.y.mean()
    assert 0.3 <= rate <= 0.7


def test_synth_two_immutables():
    ds = synth_generate(60, 6, seed=5)
    immutable = [m.index for m in ds.feature_metas if not m.mutable]
    assert immutable == [0, 1]


def test_shipped_obesity_schema_recipe(tmp_path):
    from importlib import resources

    schema_text = (resources.files("treeshift") / "schemas" / "obesity.json").read_text()
    schema_path = tmp_path / "obesity.json"
    schema_path.write_text(schema_text)
    schema = DatasetSchema.from_json(schema_path)
    names = [c.name for c in schema.feature_columns]
    assert "Height" not in names and "Weight" not in names
    assert "CALC" in names and "MTRANS" in names

    header = ("Gender,Age,Height,Weight,family_history_with_overweight,FAVC,FCVC,NCP,"
              "CAEC,SMOKE,CH2O,SCC,FAF,TUE,CALC,MTRANS,NObeyesdad")
    rows = [
        "Female,21,1.62,64,yes,no,2,3,Sometimes,no,2,no,0,1,no,Public_Transportation,Normal_Weight",
        "Male,30,1.80,120,yes,yes,3,3,Frequently,no,2,no,1,1,Sometimes,Automobile,Obesity_Type_II",
        "Male,25,1.75,40,no,no,2,3,no,no,2,no,2,0,no,Walking,Insufficient_Weight",
        "Female,40,1.60,90,yes,yes,2,1,Sometimes,no,1,no,0,2,Always,Automobile,Obesity_Type_I",
        "Male,22,1.70,75,no,no,3,3,Sometimes,no,2,yes,2,1,Frequently,Bike,Overweight_Level_I",
    ]
    csv_path = tmp_path / "obesity.csv"
    csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
    ds = load_csv(csv_path, schema)
    # underweight row and the lone Always-drinker are filtered out
    assert ds.num_rows == 3
    assert list(ds.y) == [0, 1, 0]
    calc = ds.feature_metas[[m.name for m in ds.feature_metas].index("CALC")]
    assert calc.kind == "continuous"        # ordinal treated as continuous
    pt = [m.name for m in ds.feature_metas].index("MTRANS")
    assert sorted(set(ds.X[:, pt])) == [0.0, 1.0]


def test_drop_values_filters_rows(tmp_path):
    schema = DatasetSchema([
        ColumnSpec("grade", kind="continuous", beneficial="increase",
                   recode={"low": 0, "mid": 1, "high": 2}, drop_values=("high",)),
        ColumnSpec("label", role="target", positive_labels=("1",)),
    ])
    csv = _write_csv(tmp_path / "d.csv", "grade,label\nlow,0\nmid,1\nhigh,0\nlow,1\n")
    ds = load_csv(csv, schema)
    assert ds.num_rows == 3
    assert list(ds.y) == [0, 1, 1]


_NOT_NUMBERS = "^column grade: recode must be an object of numbers, or null, got "


@pytest.mark.parametrize("value, message", [
    (None, _NOT_NUMBERS + r"\{'low': 0, 'mid': None\}$"),
    ("abc", _NOT_NUMBERS + r"\{'low': 0, 'mid': 'abc'\}$"),
    (float("nan"), "^column grade: recode value nan for 'mid' is not a finite number$"),
    (float("inf"), "^column grade: recode value inf for 'mid' is not a finite number$"),
], ids=["None", "abc", "nan", "inf"])
def test_schema_rejects_a_recode_value_that_is_not_a_finite_number(value, message):
    # a null recode value once loaded its column as NaN
    with pytest.raises(ValueError, match=message):
        DatasetSchema([
            ColumnSpec("grade", beneficial="increase", recode={"low": 0, "mid": value}),
            ColumnSpec("label", role="target", positive_labels=("1",)),
        ])


@pytest.mark.parametrize("role, message", [
    ("feture", "^column a: unknown role 'feture'$"),
    (3, "^column a: role must be a string, got 3$"),
    (None, "^column a: role must be a string, got None$"),
])
def test_schema_rejects_a_column_of_no_role(role, message):
    # each once loaded, and the column was dropped
    with pytest.raises(ValueError, match=message):
        ColumnSpec("a", role=role, beneficial="increase")


@pytest.mark.parametrize("field, value, message", [
    ("mutable", "no", "mutable must be true or false, got 'no'"),
    ("positive_labels", "10", "positive_labels must be a list of strings, got '10'"),
    ("drop_values", [1], r"drop_values must be a list of strings, got \[1\]"),
    ("recode", ["a"], r"recode must be an object of numbers, or null, got \['a'\]"),
    ("name", 5, "name must be a string, got 5"),
])
def test_column_spec_rejects_a_field_of_the_wrong_type(field, value, message):
    with pytest.raises(ValueError, match=message):
        ColumnSpec(**{"name": "a", "beneficial": "increase", field: value})


def test_column_spec_holds_label_lists_as_tuples():
    spec = ColumnSpec("a", role="target", positive_labels=["1"], drop_labels=["?", "x"])
    assert (spec.positive_labels, spec.drop_labels, spec.drop_values) == (("1",), ("?", "x"), ())


def test_schema_rejects_a_column_named_twice():
    # the target read as a feature too: rows 1,0 / 0,1 / 1,1 loaded as X = y = [1, 0, 1]
    with pytest.raises(ValueError, match="^schema names column 'a' twice$"):
        DatasetSchema([
            ColumnSpec("a", mutable=False),
            ColumnSpec("a", role="target", positive_labels=("1",)),
        ])


def test_binary_recode_outside_unit_rejected():
    # judged on the schema, whatever rows a data file holds
    with pytest.raises(ValueError, match=r"^binary column b recodes outside \{0, 1\}$"):
        DatasetSchema([
            ColumnSpec("b", kind="binary", beneficial="to_one", recode={"a": 0, "b": 2}),
            ColumnSpec("label", role="target", positive_labels=("1",)),
        ])


def test_sigma_on_split_only():
    ds = synth_generate(100, 4, seed=6)
    train, test = split(ds, 2 / 3, seed=1)
    # statistics differ between splits, so the change model must come from train alone
    assert not np.allclose(train.feature_sigmas(), test.feature_sigmas())
