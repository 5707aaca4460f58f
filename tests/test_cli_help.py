"""Pinned argparse output: the help of every command path, and the usage
errors of the parser (stderr and exit code, stdout empty).

The expected bytes are in ``cli_help_golden.json``; argparse's layout
differs between Python versions, so they hold for the version named
there. Rewrite them with ``python tests/test_cli_help.py`` (from the
repository root, ``src`` on ``PYTHONPATH``) only when the interface
changes on purpose.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from magfriction import cli

GOLDEN = Path(__file__).with_name("cli_help_golden.json")

HELP = [
    [],
    ["eigen"],
    ["free-energy"],
    ["fields"],
    ["friction"],
    ["friction", "pair"],
    ["friction", "plane"],
    ["friction", "slabs"],
    ["sweep"],
    ["verify"],
]
ERRORS = [
    [],                                              # no command
    ["bogus"],                                       # unknown command
    ["friction"],                                    # no geometry
    ["friction", "bogus"],
    ["eigen", "--D", "1"],                           # ambiguous abbreviation
    ["eigen", "--alpha", "1", "--d", "3"],           # an input eigen does not read
    ["sweep", "--target", "eigen", "--axis", "alpha:0:1:2", "--beta", "1"],
    ["friction", "pair", "--s", "1"],
    ["eigen", "--alpha", "1", "--bogus", "2"],       # unknown flag
    ["friction", "slabs", "--d", "1"],               # missing --temperature
    ["friction", "slabs", "--temperature", "warm"],  # bad choice
    ["sweep", "--target", "eigen"],                  # missing --axis
    ["verify", "--suite", "none"],
]
CASES = [path + ["--help"] for path in HELP] + ERRORS


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _python():
    return "%d.%d" % sys.version_info[:2]


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text())
    if doc["python"] != _python():
        pytest.skip("help layout recorded on Python %s" % doc["python"])
    return {tuple(case["argv"]): case for case in doc["cases"]}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_output_is_pinned(golden, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(argv) == golden[tuple(argv)]


def _record():
    os.environ["COLUMNS"] = "80"
    doc = {"python": _python(), "cases": [_run(argv) for argv in CASES]}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    _record()
