"""The file formats: every JSON and CSV document the pipeline reads or writes.

JSON is UTF-8, indented by two spaces, with sorted keys and a final newline, so
equal documents are equal bytes. A reader hands the decoded document to its
``parse`` step and names the file in every rejection: ``read_json`` raises its
``error`` for a ValueError, KeyError or TypeError from decoding or ``parse``
(a KeyError or TypeError being a missing or bad field), ``read_csv`` a
ValueError for a ValueError or ``csv.Error``.
"""
from __future__ import annotations

import csv
import json


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
