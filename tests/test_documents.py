"""``typed_fields``: the JSON type of a record's fields, decided by their annotations."""
from dataclasses import dataclass

import pytest

from treeshift.documents import typed_fields


@dataclass
class _Record:
    count: int
    share: float
    name: str
    flag: bool
    labels: tuple[str, ...]
    row: tuple[float, ...]
    recode: dict[str, float] | None = None


_GOOD = {"count": 1, "share": 0.5, "name": "a", "flag": False, "labels": ["x"], "row": [0.5]}


def test_typed_fields_hold_each_value_as_its_annotation_says():
    fields = typed_fields(_Record, [_GOOD | {"share": 1, "row": [0, 0.5]}, _GOOD], "")
    assert fields == {"count": [1, 1], "share": [1.0, 0.5], "name": ["a", "a"],
                      "flag": [False, False], "labels": [("x",), ("x",)],
                      "row": [(0.0, 0.5), (0.5,)], "recode": [None, None]}
    assert type(fields["share"][0]) is float and type(fields["row"][0][0]) is float


@pytest.mark.parametrize("field, value, message", [
    ("count", True, "count must be an integer, got True"),
    ("count", 1.0, "count must be an integer, got 1.0"),
    ("share", "0.5", "share must be a number, got '0.5'"),
    ("share", False, "share must be a number, got False"),
    ("name", 5, "name must be a string, got 5"),
    ("flag", 0, "flag must be true or false, got 0"),
    ("labels", "10", "labels must be a list of strings, got '10'"),
    ("labels", ["1", 0], "labels must be a list of strings, got ['1', 0]"),
    ("row", [0.5, True], "row must be a list of numbers, got [0.5, True]"),
    ("row", None, "row must be a list of numbers, got None"),
    ("recode", {"a": "1"}, "recode must be an object of numbers, or null, got {'a': '1'}"),
    ("recode", ["a"], "recode must be an object of numbers, or null, got ['a']"),
])
def test_typed_fields_reject_a_value_of_the_wrong_json_type(field, value, message):
    with pytest.raises(ValueError) as err:
        typed_fields(_Record, [_GOOD | {field: value}], "")
    assert str(err.value) == message


def test_typed_fields_name_the_first_bad_record():
    records = [_GOOD, _GOOD | {"name": "b", "count": True}, _GOOD | {"name": "c", "count": 2.0}]
    with pytest.raises(ValueError) as err:
        typed_fields(_Record, records, "record {name}: ")
    assert str(err.value) == "record b: count must be an integer, got True"
    assert err.value.record is records[1]


def test_typed_fields_check_only_the_named_fields_and_need_those_without_a_default():
    assert typed_fields(_Record, [{"name": "a", "count": "x"}], "", ("name",)) == {"name": ["a"]}
    with pytest.raises(KeyError, match="'share'"):
        typed_fields(_Record, [{"count": 1}], "", ("count", "share"))
