"""One malformed finite document per table check.

Each document breaks exactly one rule of the fiber or distance table. The
CLI must refuse it with exit code 2 and a single ERROR line on stderr whose
JSON path points into the broken table and whose text names the offending
codes. The same rules, broken at each position of an item list, raise the
same message from table_mapping and from a document, each at its own path.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction

import pytest

from mapcomplete.base_topology import FiniteBase
from mapcomplete.cli import run_command
from mapcomplete.cli_io import parse_instance
from mapcomplete.errors import InputError
from mapcomplete.metric_mapping import distance_matrix, table_mapping
from mapcomplete.rationals import format_rational

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


# The same rules in table_mapping's items and in a document's entries: an
# item list of three valid items with one broken item put in at position
# k, and the message each rule raises there.
ITEMS = [(("u", "v"), 1), (("u", "w"), Fraction(1, 2)), (("v", "w"), Fraction(1, 2))]
BASE = FiniteBase.of(["a", "b"], [["a"], ["a", "b"]])
FIBERS = DOC["fiber_map"]["entries"]
BROKEN = {
    "unknown-code": ((("u", "zz"), 1), "distance entry references unknown carrier point 'zz'"),
    "negative-value": ((("v", "u"), Fraction(-1, 3)), "negative distance -1/3 for ('v', 'u')"),
    "nonzero-diagonal": ((("w", "w"), 2), "nonzero diagonal distance 2 for 'w'"),
    # A duplicate of ITEMS[0], so it breaks the rule only after it.
    "asymmetric-pair": ((("v", "u"), Fraction(3, 2)),
                        "non-symmetric distance table at ('v', 'u'): 1 vs 3/2"),
}
SHARED = [(rule, k) for rule in sorted(BROKEN)
          for k in range(rule == "asymmetric-pair", len(ITEMS) + 1)]


def _document(items) -> str:
    doc = copy.deepcopy(DOC)
    doc["distance"]["entries"] = [[a, b, format_rational(Fraction(v))] for (a, b), v in items]
    return json.dumps(doc)


def _both_errors(items) -> tuple[InputError, InputError]:
    with pytest.raises(InputError) as direct:
        table_mapping(BASE, FIBERS, items)
    with pytest.raises(InputError) as parsed:
        parse_instance(_document(items))
    return direct.value, parsed.value


def test_the_unbroken_items_are_valid():
    direct = distance_matrix(table_mapping(BASE, FIBERS, ITEMS))
    parsed = distance_matrix(parse_instance(_document(ITEMS)))
    assert (direct.den, direct.num) == (parsed.den, parsed.num)
    assert (direct.den, direct.num) == (2, [[0, 2, 1], [2, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("rule, k", SHARED)
def test_table_mapping_and_documents_raise_at_the_same_item(rule, k):
    item, message = BROKEN[rule]
    direct, parsed = _both_errors([*ITEMS[:k], item, *ITEMS[k:]])
    assert (direct.path, direct.message) == (f"distance_table[{k}]", message)
    assert (parsed.path, parsed.message) == (f"$.distance.entries[{k}]", message)


@pytest.mark.parametrize("k", range(len(ITEMS)))
def test_table_mapping_and_documents_name_the_same_missing_pair(k):
    (a, b), _ = ITEMS[k]
    direct, parsed = _both_errors(ITEMS[:k] + ITEMS[k + 1:])
    message = f"missing distance entry for ({a!r}, {b!r})"
    assert (direct.path, direct.message) == ("distance_table", message)
    assert (parsed.path, parsed.message) == ("$.distance.entries", message)
