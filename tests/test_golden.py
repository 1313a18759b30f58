"""Golden reports: the stdout and exit code of every subcommand over a
fixed corpus of instance documents in ``tests/golden``.

Each case writes ``exit <code>`` followed by the captured stdout to
``tests/golden/<case>.out``. After an intended change of report output,
rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which files moved and why.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mapcomplete.cli import run_command

GOLDEN = Path(__file__).parent / "golden"

# Arguments ending in .json name a document in GOLDEN.
CASES = {
    "validate-sierpinski": ["validate", "sierpinski.json"],
    "validate-interval": ["validate", "interval.json", "--depth", "16"],
    "validate-grid": ["validate", "grid.json"],
    "validate-rational-order": ["validate", "rational_order.json", "--depth", "12"],
    "validate-triangle": ["validate", "triangle.json"],
    "validate-malformed": ["validate", "malformed.json"],
    "validate-mixed": ["validate", "mixed_incomplete.json"],
    "validate-constant-fiber": ["validate", "constant_fiber.json"],
    "dstar-interval": ["dstar", "interval.json", "--point", "newton_sqrt(2)",
                       "--point", "const(3/2)", "--eps", "1/1000000"],
    "dstar-grid": ["dstar", "grid.json", "--point", "const(1/2 0)", "--point", "const(1 1)"],
    "dstar-rational-order": ["dstar", "rational_order.json", "--point", "const(1/2)",
                             "--point", "table(1/2;tail=1/3)"],
    "dstar-sierpinski": ["dstar", "sierpinski.json", "--point", "table(x_b;tail=x_a)",
                         "--point", "const(x_b)"],
    # Tie claims that hold at a target other than the default one.
    "dstar-sierpinski-tied": ["dstar", "sierpinski.json", "--point", "const(x_a)@b",
                              "--point", "const(x_b)"],
    "dstar-rational-order-tied": ["dstar", "rational_order.json", "--point", "const(1/2)@1/2",
                                  "--point", "table(1/2;tail=1/3)"],
    "dstar-one-point": ["dstar", "sierpinski.json", "--point", "const(x_a)"],
    "density-interval": ["density", "interval.json", "--point", "newton_sqrt(2)",
                         "--eps", "1/1000"],
    "density-sierpinski": ["density", "sierpinski.json", "--point", "const(x_b)"],
    "density-sierpinski-open": ["density", "sierpinski.json", "--point", "const(x_a)",
                                "--open", "b,a"],
    "density-mixed": ["density", "mixed_complete.json", "--point", "const(w2)"],
    "density-uncovered": ["density", "uncovered.json", "--point", "const(x_c)"],
    "density-rational-order": ["density", "rational_order.json", "--point", "const(1/2)"],
    "complete-check-sierpinski": ["complete-check", "sierpinski.json"],
    "complete-check-incomplete": ["complete-check", "incomplete.json"],
    "complete-check-mixed-complete": ["complete-check", "mixed_complete.json"],
    "complete-check-mixed-incomplete": ["complete-check", "mixed_incomplete.json"],
    "complete-check-triangle": ["complete-check", "triangle.json"],
    "complete-check-interval": ["complete-check", "interval.json", "--depth", "4"],
    "complete-check-constant-fiber": ["complete-check", "constant_fiber.json"],
    "complete-construct-sierpinski": ["complete-construct", "sierpinski.json"],
    "complete-construct-incomplete": ["complete-construct", "incomplete.json"],
    "complete-construct-mixed": ["complete-construct", "mixed_incomplete.json"],
    "complete-construct-triangle": ["complete-construct", "triangle.json"],
    "complete-construct-constant-fiber": ["complete-construct", "constant_fiber.json"],
    "theorem3": ["theorem3", "--seed", "0", "--count", "40"],
    "theorem3-wide": ["theorem3", "--seed", "500", "--count", "20", "--maxx", "8",
                      "--maxy", "4"],
    "lemma2": ["lemma2", "--seed", "100", "--count", "40"],
    "lemma2-wide": ["lemma2", "--seed", "700", "--count", "20", "--maxx", "8",
                    "--maxy", "4"],
    "limit-demo-interval": ["limit-demo", "interval.json", "--point", "newton_sqrt(2)",
                            "--depth", "4"],
    "limit-demo-sierpinski": ["limit-demo", "sierpinski.json", "--point", "const(x_a)"],
    "limit-demo-table": ["limit-demo", "mixed_complete.json", "--point",
                         "table(u1,u2;tail=u2)", "--depth", "3"],
}


def render(case: str) -> str:
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[case]]
    out = io.StringIO()
    with redirect_stdout(out):
        code = run_command(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case):
    assert render(case) == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report_lines_are_prop_or_summary_lines(case):
    # Each line break is a "\n", and every report line is one PROP or
    # SUMMARY line; complete-construct prints its document, JSON, first.
    # Read as bytes: text mode would turn a "\r" into a "\n".
    text = (GOLDEN / f"{case}.out").read_bytes().decode("utf-8")
    head, *lines = text.splitlines()
    assert text == "\n".join([head, *lines, ""])
    start = next((i for i, line in enumerate(lines) if line.startswith("PROP ")), len(lines))
    if start:
        json.loads("\n".join(lines[:start]))
    assert all(line.startswith(("PROP ", "SUMMARY ")) for line in lines[start:])


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)
    used = {a for argv in CASES.values() for a in argv if a.endswith(".json")}
    assert {p.name for p in GOLDEN.glob("*.json")} == used


if __name__ == "__main__":
    for name in sorted(CASES):
        (GOLDEN / f"{name}.out").write_text(render(name), encoding="utf-8")
