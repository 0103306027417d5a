"""The file formats: every JSON and CSV document the pipeline reads or writes.

JSON is UTF-8, indented by two spaces, with sorted keys and a final newline, so
equal documents are equal bytes. A reader hands the decoded document to its
``parse`` step and names the file in every rejection: ``read_json`` raises its
``error`` for a ValueError, KeyError or TypeError from decoding or ``parse``
(a KeyError or TypeError being a missing or bad field), ``read_csv`` a
ValueError for a ValueError or ``csv.Error``; ``typed_fields`` types each field.
"""
from __future__ import annotations

import csv
import inspect
import json
from functools import cache
from itertools import chain
from operator import itemgetter, methodcaller


_KINDS = {   # annotation: what a rejection calls it, the types of a value and of its items (list
             # elements, object values), and what a value becomes (None: itself) without and with an int seen
    int: ("an integer", {int}, None, (None, None)),
    float: ("a number", {int, float}, None, (None, float)),
    str: ("a string", {str}, None, (None, None)),
    bool: ("true or false", {bool}, None, (None, None)),
    tuple[str, ...]: ("a list of strings", {list, tuple}, {str}, (tuple, tuple)),
    tuple[int, ...] | None: ("a list of integers, or null", {list, type(None)}, {int}, (None, None)),
    tuple[float, ...]: ("a list of numbers", {list, tuple}, {int, float},
                        (tuple, lambda value: tuple(map(float, value)))),
    dict[str, float] | None: ("an object of numbers, or null", {dict, type(None)}, {int, float}, (None, None)),
}


@cache
def _fields(cls, names) -> list[tuple]:
    """(name, getter from a record, *_KINDS entry) of each named parameter of ``cls``, all for None."""
    params = inspect.signature(cls, eval_str=True).parameters
    return [(n, itemgetter(n) if params[n].default is params[n].empty else methodcaller(
        "get", n, params[n].default), *_KINDS[params[n].annotation]) for n in names or params]


def typed_fields(cls, records, where: str, names=None) -> dict[str, list]:
    """{name: its value, or default, in each record} of the named parameters of ``cls`` (all for
    None), checked field by field against their annotations; the first bad record is the ``record``
    of ``ValueError("<where><name> must be <kind>, got <repr>")``, ``where`` formatted by it."""
    out = {}
    for name, get, kind, types, item_types, held in _fields(cls, names):
        values = list(map(get, records))
        seen = {*map(type, values)}
        if item_types and seen <= types:   # then the types of their items (a null has none)
            items = map(dict.values, filter(None, values)) if dict in types else filter(None, values)
            seen, types = {*map(type, chain.from_iterable(items))}, item_types
        if not seen <= types:
            for record in records if len(records) > 1 else ():   # name the first that fails alone
                typed_fields(cls, [record], where, (name,))
            error = ValueError(f"{where.format_map(records[0])}{name} must be {kind}, got {values[0]!r}")
            error.record = records[0]
            raise error
        out[name] = list(map(hold, values)) if (hold := held[int in seen]) else values
    return out


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, parse, error=ValueError):
    """``parse`` of the JSON document at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return parse(doc)
    except (ValueError, KeyError, TypeError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            reason = f"not valid JSON at line {exc.lineno}"
        elif isinstance(exc, (KeyError, TypeError)):
            reason = f"missing or bad field {exc}"
        else:
            reason = exc
        raise error(f"{path}: {reason}") from exc


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, columns, parse):
    """``parse`` of ``{column: its cells}`` for the named ``columns`` of the CSV at ``path``.

    Blank lines are skipped, a short row's missing cells read as None, and the
    header must name each of ``columns`` exactly once.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader if row]
        position = {}
        for column in columns:
            if column not in header:
                raise ValueError(f"header has no {column!r} column")
            if header.count(column) > 1:
                raise ValueError(f"header repeats column {column!r}")
            position[column] = header.index(column)
        width = max(position.values(), default=-1) + 1
        if min(map(len, rows), default=width) < width:
            rows = [row + [None] * (width - len(row)) for row in rows]
        cells = list(zip(*rows)) or [()] * width
        return parse({column: cells[at] for column, at in position.items()})
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from exc
