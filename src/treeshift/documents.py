"""The file formats: every JSON and CSV document the pipeline reads or writes.

JSON is UTF-8, indented by two spaces, with sorted keys and a final newline, so
equal documents are equal bytes. A reader names the file it rejects.
"""
from __future__ import annotations

import csv
import json


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, parse, error=ValueError):
    """``parse`` of the JSON document at ``path``; invalid JSON, or a KeyError or TypeError
    from ``parse`` (a missing or mistyped field), raises ``error`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: not valid JSON at line {exc.lineno}") from exc
    try:
        return parse(doc)
    except (KeyError, TypeError) as exc:
        raise error(f"{path}: missing or bad field {exc}") from exc


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, columns) -> list[tuple[str, ...]]:
    """The named ``columns``' cells in each row of the CSV at ``path``; a header without
    one of them, or a row shorter than the header, raises a ValueError naming the file."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for column in columns:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: header has no {column!r} column")
        rows = []
        for i, record in enumerate(reader):
            if None in record.values():
                raise ValueError(f"{path}: row {i} is shorter than the header")
            rows.append(tuple(record[column] for column in columns))
    return rows
