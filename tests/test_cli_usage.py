"""The CLI's help and usage-error output, pinned byte for byte.

``cli_usage.json`` holds, per argv, what ``treeshift.cli.main`` writes to
stdout and stderr and the code it returns, at a terminal width of 80
columns: the top-level and every subcommand's ``--help``, invalid choices
and missing or unknown arguments. The bytes are argparse's formatting on
Python 3.10 and 3.11, which the CI runs.

To re-record after an intended change of the CLI:
``PYTHONPATH=src python tests/test_cli_usage.py > tests/cli_usage.json``.
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from treeshift import cli
from treeshift.cli import main

EXPECTED = Path(__file__).with_name("cli_usage.json")
SUBCOMMANDS = ("train", "probs", "shift", "rank", "simulate", "demo", "replay")
SHIFT_ARGS = ["--forest", "f.json", "--data", "d.csv", "--schema", "s.json",
              "--individual", "0", "-o", "out.json"]
CASES = {
    "help": ["--help"],
    **{f"{name} help": [name, "--help"] for name in SUBCOMMANDS},
    "no command": [],
    "invalid command": ["bogus"],
    "invalid objective": ["shift", *SHIFT_ARGS, "--objective", "bogus"],
    "invalid distance": ["shift", *SHIFT_ARGS, "--distance", "l3"],
    "bad integer": ["shift", *SHIFT_ARGS, "--eta", "two"],
    "missing arguments": ["shift"],
    "missing eta": ["rank", "--forest", "f.json", "-o", "r.csv"],
    "unknown argument": ["shift", *SHIFT_ARGS, "--bogus"],
    "option before command": ["--trees", "3", "train"],
}


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def observed() -> dict:
    return {name: run(argv) for name, argv in CASES.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_usage_output_is_unchanged(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(EXPECTED.read_text())
    assert expected.keys() == CASES.keys()
    assert run(CASES[name]) == expected[name]
    # the parser that holds every subcommand's gives the same output as the chosen one's
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: build())
    assert run(CASES[name]) == expected[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    json.dump(observed(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
