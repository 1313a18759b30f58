"""One malformed instance document per rule of parse_instance.

Each document starts from a valid one and breaks exactly one rule: an
unknown or missing field, an unknown kind, a bad point or basis list, bad
rational syntax, a bad ``lo``/``hi``/``step``, a bad fiber entry or target,
a kind pairing that does not apply, or a badly shaped distance entry. The
CLI must refuse it with exit code 2, print nothing on stdout and write one
``ERROR <path>: <message>`` line on stderr, pinned here in full.
"""

from __future__ import annotations

import copy
import json

import pytest

from mapcomplete.cli import run_command

FINITE = {
    "base": {"kind": "finite", "points": ["a", "b"], "basis": [["a"], ["a", "b"]]},
    "carrier": {"kind": "finite", "points": ["u", "v", "w"]},
    "fiber_map": {"kind": "table", "entries": {"u": "a", "v": "b", "w": "b"}},
    "distance": {
        "kind": "table",
        "entries": [["u", "v", "1"], ["u", "w", "1"], ["v", "w", "1"]],
    },
}
INTERVAL = {
    "base": {"kind": "one_point", "point": "o"},
    "carrier": {"kind": "rational_interval", "lo": "0", "hi": "3"},
    "fiber_map": {"kind": "constant", "to": "o"},
    "distance": {"kind": "abs_diff"},
}
IDENTITY = {
    "base": {"kind": "rational_order"},
    "carrier": {"kind": "rational_interval", "lo": "0", "hi": "1"},
    "fiber_map": {"kind": "identity"},
    "distance": {"kind": "abs_diff"},
}
GRID = {
    "base": {"kind": "one_point", "point": "o"},
    "carrier": {"kind": "rational_grid", "step": "1/2", "lo": "0", "hi": "1"},
    "fiber_map": {"kind": "constant", "to": "o"},
    "distance": {"kind": "max_metric"},
}
VALID = {"finite": FINITE, "interval": INTERVAL, "identity": IDENTITY, "grid": GRID}

DROP = object()
FINITE_ENTRIES = FINITE["distance"]["entries"]


def _edited(doc, edits: dict):
    """A copy of ``doc`` with each ``"section.field"`` (or ``"section"``)
    set to its value, or removed when the value is DROP."""
    doc = copy.deepcopy(doc)
    for key, value in edits.items():
        *head, last = key.split(".")
        parent = doc
        for part in head:
            parent = parent[part]
        if value is DROP:
            del parent[last]
        else:
            parent[last] = value
    return doc


# name: (valid document, edits, the whole ERROR line)
CASES = {
    # The document and its sections.
    "not-json": (FINITE, "{", "$: invalid JSON: Expecting property name enclosed in double quotes"),
    "document-not-object": (FINITE, [], "$: expected a JSON object"),
    "document-unknown-field": (FINITE, {"extra": {}}, "$.extra: unknown field 'extra'"),
    "document-missing-section": (FINITE, {"distance": DROP}, "$: missing field 'distance'"),
    "base-not-object": (FINITE, {"base": "finite"}, "$.base: expected a JSON object"),
    "carrier-not-object": (FINITE, {"carrier": []}, "$.carrier: expected a JSON object"),
    "fiber-not-object": (FINITE, {"fiber_map": None}, "$.fiber_map: expected a JSON object"),
    "distance-not-object": (FINITE, {"distance": 1}, "$.distance: expected a JSON object"),
    # Fields that no kind of the section takes, and a missing kind.
    "base-unknown-field": (FINITE, {"base.zzz": 1}, "$.base.zzz: unknown field 'zzz'"),
    "carrier-unknown-field": (FINITE, {"carrier.to": "a"}, "$.carrier.to: unknown field 'to'"),
    "fiber-unknown-field": (FINITE, {"fiber_map.lo": "0"}, "$.fiber_map.lo: unknown field 'lo'"),
    "distance-unknown-field": (FINITE, {"distance.to": "a"}, "$.distance.to: unknown field 'to'"),
    "base-missing-kind": (FINITE, {"base.kind": DROP}, "$.base: missing field 'kind'"),
    "carrier-missing-kind": (FINITE, {"carrier.kind": DROP}, "$.carrier: missing field 'kind'"),
    "fiber-missing-kind": (FINITE, {"fiber_map.kind": DROP}, "$.fiber_map: missing field 'kind'"),
    "distance-missing-kind": (FINITE, {"distance.kind": DROP}, "$.distance: missing field 'kind'"),
    # Unknown kinds, including kinds that are not strings.
    "base-unknown-kind": (FINITE, {"base.kind": "zzz"}, "$.base.kind: unknown base kind 'zzz'"),
    "base-list-kind": (FINITE, {"base.kind": []}, "$.base.kind: unknown base kind []"),
    "base-object-kind": (FINITE, {"base.kind": {}}, "$.base.kind: unknown base kind {}"),
    "base-null-kind": (FINITE, {"base.kind": None}, "$.base.kind: unknown base kind None"),
    "carrier-unknown-kind": (FINITE, {"carrier.kind": "zzz"},
                             "$.carrier.kind: unknown carrier kind 'zzz'"),
    "carrier-list-kind": (FINITE, {"carrier.kind": []}, "$.carrier.kind: unknown carrier kind []"),
    "carrier-object-kind": (FINITE, {"carrier.kind": {}}, "$.carrier.kind: unknown carrier kind {}"),
    "carrier-null-kind": (FINITE, {"carrier.kind": None},
                          "$.carrier.kind: unknown carrier kind None"),
    "fiber-unknown-kind": (FINITE, {"fiber_map.kind": "zzz"},
                           "$.fiber_map.kind: unknown fiber kind 'zzz'"),
    "fiber-list-kind": (FINITE, {"fiber_map.kind": []}, "$.fiber_map.kind: unknown fiber kind []"),
    "fiber-object-kind": (FINITE, {"fiber_map.kind": {}},
                          "$.fiber_map.kind: unknown fiber kind {}"),
    "fiber-null-kind": (FINITE, {"fiber_map.kind": None},
                        "$.fiber_map.kind: unknown fiber kind None"),
    "distance-unknown-kind": (FINITE, {"distance.kind": "zzz"},
                              "$.distance.kind: unknown distance kind 'zzz'"),
    "distance-list-kind": (FINITE, {"distance.kind": []},
                           "$.distance.kind: unknown distance kind []"),
    "distance-object-kind": (FINITE, {"distance.kind": {}},
                             "$.distance.kind: unknown distance kind {}"),
    "distance-null-kind": (FINITE, {"distance.kind": None},
                           "$.distance.kind: unknown distance kind None"),
    # Of two bad sections, the first in document order.
    "two-unknown-kinds": (FINITE, {"fiber_map.kind": "zzz", "distance.kind": "yyy"},
                          "$.fiber_map.kind: unknown fiber kind 'zzz'"),
    # Fields of another kind of the same section, and missing fields.
    "finite-base-with-point": (FINITE, {"base.point": "a"}, "$.base.point: unknown field 'point'"),
    "finite-base-missing-basis": (FINITE, {"base.basis": DROP}, "$.base: missing field 'basis'"),
    "one-point-base-with-points": (INTERVAL, {"base.points": ["o"]},
                                   "$.base.points: unknown field 'points'"),
    "one-point-base-missing-point": (INTERVAL, {"base.point": DROP},
                                     "$.base: missing field 'point'"),
    "rational-order-base-with-basis": (IDENTITY, {"base.basis": []},
                                       "$.base.basis: unknown field 'basis'"),
    "finite-carrier-with-lo": (FINITE, {"carrier.lo": "0"}, "$.carrier.lo: unknown field 'lo'"),
    "finite-carrier-missing-points": (FINITE, {"carrier.points": DROP},
                                      "$.carrier: missing field 'points'"),
    "interval-with-step": (INTERVAL, {"carrier.step": "1"}, "$.carrier.step: unknown field 'step'"),
    "interval-missing-hi": (INTERVAL, {"carrier.hi": DROP}, "$.carrier: missing field 'hi'"),
    "grid-with-points": (GRID, {"carrier.points": ["u"]}, "$.carrier.points: unknown field 'points'"),
    "grid-missing-step": (GRID, {"carrier.step": DROP}, "$.carrier: missing field 'step'"),
    # Two missing fields: the first in the kind's field order, whatever the
    # hash seed of the process.
    "grid-missing-step-and-lo": (GRID, {"carrier.step": DROP, "carrier.lo": DROP},
                                 "$.carrier: missing field 'step'"),
    "table-fiber-with-to": (FINITE, {"fiber_map.to": "a"}, "$.fiber_map.to: unknown field 'to'"),
    "table-fiber-missing-entries": (FINITE, {"fiber_map.entries": DROP},
                                    "$.fiber_map: missing field 'entries'"),
    "constant-fiber-with-entries": (INTERVAL, {"fiber_map.entries": {}},
                                    "$.fiber_map.entries: unknown field 'entries'"),
    "constant-fiber-missing-to": (INTERVAL, {"fiber_map.to": DROP},
                                  "$.fiber_map: missing field 'to'"),
    "identity-fiber-with-to": (IDENTITY, {"fiber_map.to": "0"}, "$.fiber_map.to: unknown field 'to'"),
    "table-distance-missing-entries": (FINITE, {"distance.entries": DROP},
                                       "$.distance: missing field 'entries'"),
    "abs-diff-with-entries": (INTERVAL, {"distance.entries": []},
                              "$.distance.entries: unknown field 'entries'"),
    "max-metric-with-entries": (GRID, {"distance.entries": FINITE_ENTRIES},
                                "$.distance.entries: unknown field 'entries'"),
    # Point and basis lists.
    "base-points-not-list": (FINITE, {"base.points": "a"},
                             "$.base.points: points must be a nonempty list of strings"),
    "base-points-empty": (FINITE, {"base.points": [], "base.basis": []},
                          "$.base.points: points must be a nonempty list of strings"),
    "base-points-not-strings": (FINITE, {"base.points": ["a", 1]},
                                "$.base.points: points must be a nonempty list of strings"),
    "base-points-duplicate": (FINITE, {"base.points": ["a", "b", "a"]},
                              "$.base: duplicate point ids in base space"),
    "basis-not-list": (FINITE, {"base.basis": {"a": 1}}, "$.base.basis: basis must be a list of lists"),
    "basis-set-not-list": (FINITE, {"base.basis": [["a"], "b"]},
                           "$.base.basis[1]: basis set must be a list of point ids"),
    "basis-set-not-strings": (FINITE, {"base.basis": [["a", 1]]},
                              "$.base.basis[0]: basis set must be a list of point ids"),
    "basis-unknown-point": (FINITE, {"base.basis": [["a"], ["zz"]]},
                            "$.base.basis[1]: unknown base point 'zz'"),
    "one-point-not-string": (INTERVAL, {"base.point": 1}, "$.base.point: point must be a string"),
    "carrier-points-not-list": (FINITE, {"carrier.points": {"u": 1}},
                                "$.carrier.points: points must be a nonempty list of strings"),
    "carrier-points-empty": (FINITE, {"carrier.points": []},
                             "$.carrier.points: points must be a nonempty list of strings"),
    "carrier-points-not-strings": (FINITE, {"carrier.points": ["u", None]},
                                   "$.carrier.points: points must be a nonempty list of strings"),
    "carrier-points-duplicate": (FINITE, {"carrier.points": ["u", "v", "u"]},
                                 "$.carrier: duplicate carrier point codes"),
    # Rational syntax, lo, hi and step.
    "interval-decimal-lo": (INTERVAL, {"carrier.lo": "0.5"},
                            "$.carrier.lo: expected an exact rational like '3' or '1/2', got '0.5'"),
    "interval-number-hi": (INTERVAL, {"carrier.hi": 3},
                           "$.carrier.hi: expected an exact rational like '3' or '1/2', got 3"),
    "interval-zero-denominator": (INTERVAL, {"carrier.hi": "3/0"}, "$.carrier.hi: zero denominator"),
    "interval-empty": (INTERVAL, {"carrier.lo": "3"}, "$.carrier: needs lo < hi"),
    "grid-bad-step": (GRID, {"carrier.step": "1//2"},
                      "$.carrier.step: expected an exact rational like '3' or '1/2', got '1//2'"),
    "grid-zero-step": (GRID, {"carrier.step": "0"}, "$.carrier.step: needs step > 0"),
    "grid-negative-step": (GRID, {"carrier.step": "-1/2"}, "$.carrier.step: needs step > 0"),
    "grid-bad-lo": (GRID, {"carrier.lo": "x"},
                    "$.carrier.lo: expected an exact rational like '3' or '1/2', got 'x'"),
    "grid-empty": (GRID, {"carrier.lo": "2"}, "$.carrier: needs lo <= hi"),
    # Fiber entries and targets.
    "fiber-entries-not-object": (FINITE, {"fiber_map.entries": [["u", "a"]]},
                                 "$.fiber_map.entries: entries must map carrier codes to base points"),
    "fiber-entry-unknown-point": (FINITE, {"fiber_map.entries.zz": "a"},
                                  "$.fiber_map.entries.zz: unknown carrier point 'zz'"),
    "fiber-entry-missing": (FINITE, {"fiber_map.entries.v": DROP},
                            "$.fiber_map.entries: missing fiber entry for 'v'"),
    # An unknown entry code before any missing one, and of two missing
    # codes the first in sorted order, not in carrier order.
    "fiber-entry-unknown-and-missing": (FINITE, {"fiber_map.entries.zz": "a",
                                                 "fiber_map.entries.v": DROP},
                                        "$.fiber_map.entries.zz: unknown carrier point 'zz'"),
    "fiber-entries-two-missing": (FINITE, {"carrier.points": ["w", "v", "u"],
                                           "fiber_map.entries.v": DROP,
                                           "fiber_map.entries.u": DROP},
                                  "$.fiber_map.entries: missing fiber entry for 'u'"),
    "fiber-entry-unknown-target": (FINITE, {"fiber_map.entries.w": "zz"},
                                   "$.fiber_map.entries.w: fiber of 'w' targets unknown base point 'zz'"),
    "fiber-entry-list-target": (FINITE, {"fiber_map.entries.w": ["b"]},
                                "$.fiber_map.entries.w: fiber of 'w' targets unknown base point "
                                "\"['b']\""),
    "finite-constant-object-target": (
        FINITE, {"fiber_map": {"kind": "constant", "to": {"x": 1}}},
        "$.fiber_map.to: unknown base point \"{'x': 1}\""),
    "finite-constant-unknown-target": (
        FINITE, {"fiber_map": {"kind": "constant", "to": "zz"}},
        "$.fiber_map.to: unknown base point 'zz'"),
    "interval-constant-unknown-target": (INTERVAL, {"fiber_map.to": "zz"},
                                         "$.fiber_map.to: unknown base point 'zz'"),
    "grid-constant-unknown-target": (GRID, {"fiber_map.to": "zz"},
                                     "$.fiber_map.to: unknown base point 'zz'"),
    "rational-order-constant-bad-target": (
        IDENTITY, {"fiber_map": {"kind": "constant", "to": "1/0"}},
        "$.fiber_map.to: unknown base point '1/0'; base points are exact rationals like '1/2'"),
    "identity-over-one-point-base": (INTERVAL, {"fiber_map": {"kind": "identity"}},
                                     "$.fiber_map.kind: identity fiber needs the rational_order base"),
    # Kind pairings.
    "table-distance-on-interval": (INTERVAL, {"distance": FINITE["distance"]},
                                   "$.distance.kind: table distance needs a finite carrier"),
    "abs-diff-on-finite": (FINITE, {"distance": {"kind": "abs_diff"}},
                           "$.distance.kind: abs_diff distance needs a rational_interval carrier"),
    "abs-diff-on-grid": (GRID, {"distance.kind": "abs_diff"},
                         "$.distance.kind: abs_diff distance needs a rational_interval carrier"),
    "max-metric-on-interval": (INTERVAL, {"distance.kind": "max_metric"},
                               "$.distance.kind: max_metric distance needs a rational_grid carrier"),
    "identity-fiber-on-finite": (FINITE, {"fiber_map": {"kind": "identity"}},
                                 "$.fiber_map.kind: fiber kind 'identity' does not apply to a "
                                 "finite carrier"),
    "table-fiber-on-interval": (INTERVAL, {"fiber_map": {"kind": "table", "entries": {}}},
                                "$.fiber_map.kind: fiber kind 'table' does not apply to a "
                                "rational_interval carrier"),
    "identity-fiber-on-grid": (GRID, {"fiber_map": {"kind": "identity"}},
                               "$.fiber_map.kind: fiber kind 'identity' does not apply to a "
                               "rational_grid carrier"),
    # The shapes of distance entries.
    "distance-entries-not-list": (FINITE, {"distance.entries": {"u": "v"}},
                                  "$.distance.entries: entries must be a list of [x, y, value] "
                                  "triples"),
    "distance-entry-not-list": (FINITE, {"distance.entries": ["u v 1"]},
                                "$.distance.entries[0]: expected [x, y, value] with x and y "
                                "carrier codes"),
    "distance-entry-too-short": (FINITE, {"distance.entries": [["u", "v"]]},
                                 "$.distance.entries[0]: expected [x, y, value] with x and y "
                                 "carrier codes"),
    "distance-entry-too-long": (FINITE, {"distance.entries": [*FINITE_ENTRIES[:2],
                                                              ["v", "w", "1", "1"]]},
                                "$.distance.entries[2]: expected [x, y, value] with x and y "
                                "carrier codes"),
    "distance-entry-code-not-string": (FINITE, {"distance.entries": [["u", 1, "1"]]},
                                       "$.distance.entries[0]: expected [x, y, value] with x and y "
                                       "carrier codes"),
    "distance-entry-decimal": (FINITE, {"distance.entries": [*FINITE_ENTRIES[:2], ["v", "w", "0.5"]]},
                               "$.distance.entries[2]: expected an exact rational like '3' or "
                               "'1/2', got '0.5'"),
    "distance-entry-number": (FINITE, {"distance.entries": [["u", "v", 1], *FINITE_ENTRIES[1:]]},
                              "$.distance.entries[0]: expected an exact rational like '3' or "
                              "'1/2', got 1"),
    # A value text that repeats is parsed once, and reported at its first entry.
    "distance-entry-decimal-twice": (FINITE, {"distance.entries": [FINITE_ENTRIES[0],
                                                                   ["u", "w", "0.5"],
                                                                   ["v", "w", "0.5"]]},
                                     "$.distance.entries[1]: expected an exact rational like "
                                     "'3' or '1/2', got '0.5'"),
    "distance-entry-list-value": (FINITE, {"distance.entries": [*FINITE_ENTRIES[:2],
                                                                ["v", "w", ["1"]]]},
                                  "$.distance.entries[2]: expected an exact rational like '3' or "
                                  "'1/2', got ['1']"),
    "distance-entry-unknown-code": (FINITE, {"distance.entries": [["u", "zz", "1"]]},
                                    "$.distance.entries[0]: distance entry references unknown "
                                    "carrier point 'zz'"),
    # Of a bad fiber target and a bad distance entry, the fiber section's
    # error, which comes first in the document; of two bad distance entries,
    # the first, whether a shape, a text or a table rule is at fault.
    "fiber-target-before-bad-text": (FINITE, {"fiber_map.entries.u": "zz",
                                              "distance.entries": [*FINITE_ENTRIES[:2],
                                                                   ["v", "w", "0.5"]]},
                                     "$.fiber_map.entries.u: fiber of 'u' targets unknown base "
                                     "point 'zz'"),
    "fiber-target-before-bad-shape": (FINITE, {"fiber_map.entries.u": "zz",
                                               "distance.entries": [*FINITE_ENTRIES[:2],
                                                                    ["v", "w"]]},
                                      "$.fiber_map.entries.u: fiber of 'u' targets unknown base "
                                      "point 'zz'"),
    "unknown-code-before-bad-text": (FINITE, {"distance.entries": [["u", "zz", "1"],
                                                                   FINITE_ENTRIES[1],
                                                                   ["v", "w", "0.5"]]},
                                     "$.distance.entries[0]: distance entry references unknown "
                                     "carrier point 'zz'"),
    # A lone surrogate, which json.dumps writes as an escape: refused at its
    # path, a key at its object's, before any field is read.
    "carrier-code-lone-surrogate": (FINITE, {"carrier.points": ["u", "\ud800", "w"]},
                                    "$.carrier.points[1]: string is not UTF-8 text: lone "
                                    "surrogate \\ud800 at character 0"),
    "base-point-lone-surrogate": (FINITE, {"base.points": ["a", "b\udfff"],
                                           "carrier.points": ["\ud800"]},
                                  "$.base.points[1]: string is not UTF-8 text: lone surrogate "
                                  "\\udfff at character 1"),
    "fiber-key-lone-surrogate": (FINITE, {"fiber_map.entries": {"u": "a", "\udc00": "b"}},
                                 "$.fiber_map.entries: key is not UTF-8 text: lone surrogate "
                                 "\\udc00 at character 0"),
}


def _write(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(VALID))
def test_the_unbroken_documents_are_valid(tmp_path, capsys, name):
    assert run_command(["validate", _write(tmp_path, VALID[name]), "--depth", "8"]) == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_document_exits_2_with_its_error_line(tmp_path, capsys, case):
    doc, edits, line = CASES[case]
    if isinstance(edits, dict):
        doc = _edited(doc, edits)
    else:  # the whole document: JSON text, or a value that is not an object
        doc = edits
    assert run_command(["validate", _write(tmp_path, doc), "--depth", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {line}\n"
