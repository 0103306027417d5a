import numpy as np
import pytest

from treeshift import ColumnSpec, DatasetSchema, load_csv, split, synth_generate


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
        "CSV rejected:\n"
        "row 1: age value 'x' is not numeric\n"
        "row 1: missing value in water\n"
        "row 1: smoker value 'maybe' has no recode\n"
        "row 3: missing value in age\n"
        "row 3: water value 'abc' is not numeric"
    )


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
    assert str(err.value) == f"CSV rejected:\nrow 1: water value {cell!r} is not finite"


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


def test_binary_recode_outside_unit_rejected(tmp_path):
    schema = DatasetSchema([
        ColumnSpec("b", kind="binary", beneficial="to_one", recode={"a": 0, "b": 2}),
        ColumnSpec("label", role="target", positive_labels=("1",)),
    ])
    csv = _write_csv(tmp_path / "d.csv", "b,label\na,0\nb,1\n")
    with pytest.raises(ValueError):
        load_csv(csv, schema)


def test_sigma_on_split_only():
    ds = synth_generate(100, 4, seed=6)
    train, test = split(ds, 2 / 3, seed=1)
    # statistics differ between splits, so the change model must come from train alone
    assert not np.allclose(train.feature_sigmas(), test.feature_sigmas())
