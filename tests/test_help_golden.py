"""Golden argparse output: the exit code, stdout and stderr of the help
screens and of the errors raised before any handler runs.

Each case writes ``exit <code>``, then ``--- stdout``, the captured
stdout, ``--- stderr`` and the captured stderr to
``tests/golden/help/<case>.out``. argparse wraps to the terminal width,
so every case renders at ``COLUMNS=80``. After an intended change of
this text, rewrite the files with

    PYTHONPATH=src python tests/test_help_golden.py

and say in CHANGES.md which files moved and why.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mapcomplete.cli import run_command

GOLDEN = Path(__file__).parent / "golden" / "help"
COMMANDS = ["validate", "dstar", "density", "complete-check", "theorem3", "lemma2",
            "complete-construct", "limit-demo"]

CASES = {
    "help": ["--help"],
    **{f"{command}-help": [command, "--help"] for command in COMMANDS},
    "no-arguments": [],
    "unknown-command": ["frobnicate"],
    "validate-no-instance": ["validate"],
    # --depth is declared by other subcommands, not by the suites.
    "theorem3-depth": ["theorem3", "--depth", "3"],
    # An unknown option before the subcommand: argparse still dispatches
    # to the subcommand after it.
    "unknown-option-first": ["--foo", "theorem3", "--count", "2"],
    # -h before the subcommand is the top-level help, which lists every
    # subcommand though the parser is built for the one named after it;
    # argparse takes --he as an abbreviation of --help.
    "help-before-command": ["-h", "dstar"],
    "abbreviated-help-before-command": ["--he", "validate"],
    # An unknown option first, then the subcommand's own help.
    "unknown-option-then-command-help": ["--foo", "dstar", "-h"],
}


def render(case: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(CASES[case])
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_argparse_output_is_golden(monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert render(case) == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


def test_every_help_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN / f"{name}.out").write_text(render(name), encoding="utf-8")
