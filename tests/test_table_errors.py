"""One malformed finite document per table check.

Each document breaks exactly one rule of the fiber or distance table. The
CLI must refuse it with exit code 2 and a single ERROR line on stderr whose
JSON path points into the broken table and whose text names the offending
codes.
"""

from __future__ import annotations

import copy
import json

import pytest

from mapcomplete.cli import run_command

DOC = {
    "base": {"kind": "finite", "points": ["a", "b"], "basis": [["a"], ["a", "b"]]},
    "carrier": {"kind": "finite", "points": ["u", "v", "w"]},
    "fiber_map": {"kind": "table", "entries": {"u": "a", "v": "b", "w": "b"}},
    "distance": {
        "kind": "table",
        "entries": [["u", "v", "1"], ["u", "w", "1"], ["v", "w", "1"]],
    },
}


def _unknown_code(doc):
    doc["distance"]["entries"][1] = ["u", "zz", "1"]


def _negative_value(doc):
    doc["distance"]["entries"][0] = ["u", "v", "-1"]


def _nonzero_diagonal(doc):
    doc["distance"]["entries"].append(["u", "u", "1"])


def _asymmetric_pair(doc):
    doc["distance"]["entries"].append(["v", "u", "2"])


def _missing_pair(doc):
    del doc["distance"]["entries"][2]


def _unknown_fiber_target(doc):
    doc["fiber_map"]["entries"]["u"] = "zz"


def _missing_fiber_entry(doc):
    del doc["fiber_map"]["entries"]["w"]


# (break the document, path the ERROR line starts with, text it must contain)
CASES = {
    "unknown-code": (_unknown_code, "$.distance.entries[1]", ["'zz'"]),
    "negative-value": (_negative_value, "$.distance.entries[0]", []),
    "nonzero-diagonal": (_nonzero_diagonal, "$.distance.entries[3]", ["'u'"]),
    "asymmetric-pair": (_asymmetric_pair, "$.distance.entries[3]", ["'u'", "'v'"]),
    "missing-pair": (_missing_pair, "$.distance.entries", ["'v'", "'w'"]),
    "unknown-fiber-target": (_unknown_fiber_target, "$.fiber_map.entries.u", ["'u'", "'zz'"]),
    "missing-fiber-entry": (_missing_fiber_entry, "$.fiber_map.entries", ["'w'"]),
}


def test_the_unbroken_document_is_valid(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOC), encoding="utf-8")
    assert run_command(["validate", str(path)]) == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_table_exits_2_with_one_located_error(tmp_path, capsys, case):
    breaker, path_prefix, needles = CASES[case]
    doc = copy.deepcopy(DOC)
    breaker(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_command(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"ERROR {path_prefix}")
    for needle in needles:
        assert needle in lines[0]
