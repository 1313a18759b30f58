"""Instance documents, point specs, and machine-readable reports.

Instance files are JSON with four fields: base, carrier, fiber_map and
distance. Every number is an exact rational written as "p/q" or integer
text; decimals are rejected so documents round-trip bit-exactly. Reports
are plain text, one `PROP <name> PASS|FAIL <detail>` line per checked
property plus a trailing `SUMMARY <pass>/<total>`, deterministic for fixed
inputs and seeds.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .base_topology import BasePoint, FiniteBase, OnePointBase, RationalOrderBase
from .completion import CompletionPoint
from .errors import InputError
from .metric_mapping import (
    CarrierPoint,
    FiniteCarrier,
    MetricMapping,
    RationalGridCarrier,
    RationalIntervalCarrier,
    _fiber_points,
    _mapping_from_rows,
    _table_rows,
    abs_diff_mapping,
    distance_matrix,
    max_metric_mapping,
)
from .rationals import format_rational, parse_rational
from .tied_cauchy import check_tying, const_seq, newton_sqrt_seq, table_seq


@dataclass
class Report:
    """Accumulates PROP lines; renders them plus the summary."""

    entries: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.entries.append((name, ok, detail))

    @property
    def passed(self) -> int:
        return sum(1 for _, ok, _ in self.entries if ok)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed == len(self.entries) else 1

    def render(self) -> str:
        lines = []
        for name, ok, detail in self.entries:
            status = "PASS" if ok else "FAIL"
            lines.append(f"PROP {name} {status} {detail}".rstrip())
        lines.append(f"SUMMARY {self.passed}/{len(self.entries)}")
        return "\n".join(lines)


# Each section's kinds, and the fields each kind takes besides "kind".
_FIELDS = {
    "base": {"finite": ("points", "basis"), "one_point": ("point",), "rational_order": ()},
    "carrier": {
        "finite": ("points",),
        "rational_interval": ("lo", "hi"),
        "rational_grid": ("step", "lo", "hi"),
    },
    "fiber_map": {"table": ("entries",), "constant": ("to",), "identity": ()},
    "distance": {"table": ("entries",), "abs_diff": (), "max_metric": ()},
}
# Each distance kind: the carrier kind it needs, and the fiber kinds that
# carrier takes.
_PAIRINGS = {
    "table": ("finite", ("table", "constant")),
    "abs_diff": ("rational_interval", ("identity", "constant")),
    "max_metric": ("rational_grid", ("constant",)),
}


def _require_keys(obj, required, optional, path: str) -> None:
    if not isinstance(obj, dict):
        raise InputError("expected a JSON object", path=path)
    for key in obj:
        if key not in required and key not in optional:
            raise InputError(f"unknown field {key!r}", path=f"{path}.{key}")
    for key in required:
        if key not in obj:
            raise InputError(f"missing field {key!r}", path=path)


def _section(doc: dict, name: str) -> tuple[str, dict]:
    """The kind and object of section ``name``: its fields are checked first
    against every kind of the section, then against its own kind."""
    obj, path, kinds = doc[name], f"$.{name}", _FIELDS[name]
    _require_keys(obj, ("kind",), {f for fields in kinds.values() for f in fields}, path)
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise InputError(f"unknown {name.removesuffix('_map')} kind {kind!r}", path=f"{path}.kind")
    _require_keys(obj, ("kind", *kinds[kind]), (), path)
    return kind, obj


def _point_list(points, path: str) -> list:
    if not isinstance(points, list) or not points or not all(isinstance(p, str) for p in points):
        raise InputError("points must be a nonempty list of strings", path=f"{path}.points")
    return points


def _parse_base(kind: str, obj: dict):
    path = "$.base"
    if kind == "finite":
        points = _point_list(obj["points"], path)
        basis = obj["basis"]
        if not isinstance(basis, list):
            raise InputError("basis must be a list of lists", path=f"{path}.basis")
        for i, b in enumerate(basis):
            if not isinstance(b, list) or not all(isinstance(p, str) for p in b):
                raise InputError("basis set must be a list of point ids", path=f"{path}.basis[{i}]")
            for p in b:
                if p not in points:
                    raise InputError(f"unknown base point {p!r}", path=f"{path}.basis[{i}]")
        try:
            return FiniteBase.of(points, basis)
        except InputError as e:
            raise InputError(str(e), path=path) from None
    if kind == "one_point":
        if not isinstance(obj["point"], str):
            raise InputError("point must be a string", path=f"{path}.point")
        return OnePointBase(obj["point"])
    return RationalOrderBase()


def _parse_carrier(kind: str, obj: dict):
    path = "$.carrier"
    if kind == "finite":
        points = _point_list(obj["points"], path)
        try:
            return FiniteCarrier.of(points)
        except InputError as e:
            raise InputError(str(e), path=path) from None
    bounds = {key: parse_rational(obj[key], path=f"{path}.{key}") for key in _FIELDS["carrier"][kind]}
    if kind == "rational_interval":
        if not bounds["lo"] < bounds["hi"]:
            raise InputError("needs lo < hi", path=path)
        return RationalIntervalCarrier(bounds["lo"], bounds["hi"])
    if bounds["step"] <= 0:
        raise InputError("needs step > 0", path=f"{path}.step")
    if bounds["lo"] > bounds["hi"]:
        raise InputError("needs lo <= hi", path=path)
    return RationalGridCarrier(bounds["step"], bounds["lo"], bounds["hi"])


def _line_break_at(text: str) -> int:
    """The index of the first character of ``text`` at which
    ``str.splitlines`` splits; past the end of ``text`` if there is none."""
    # The appended character keeps a break at the end from being dropped.
    return len((text + ".").splitlines()[0])


def _refuse_unprintable(text: str, doc) -> None:
    """Raise at the path of the first key or string of ``doc``, in
    document order, that no report line could print: one that holds a
    lone surrogate, which cannot be written as UTF-8, or a line break,
    any character at which ``str.splitlines`` splits. JSON refuses a raw
    control character in a string, so only a text with a backslash
    escape, or not ASCII, can hold either; any other is passed at once.
    The walk keeps its own stack, so a document nested as deep as
    json.loads allows does not recurse."""
    if "\\" not in text and text.isascii():
        return
    stack = [("$", doc, False)]
    while stack:
        path, value, is_key = stack.pop()
        if isinstance(value, str):
            what = "key" if is_key else "string"
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as e:
                raise InputError(
                    f"{what} is not UTF-8 text: lone surrogate "
                    f"{ascii(value[e.start])[1:-1]} at character {e.start}", path=path) from None
            at = _line_break_at(value)
            if at < len(value):
                raise InputError(f"{what} is not one line: line break "
                                 f"{ascii(value[at])[1:-1]} at character {at}", path=path)
        elif isinstance(value, list):
            stack += reversed([(f"{path}[{i}]", item, False) for i, item in enumerate(value)])
        elif isinstance(value, dict):
            for key, item in reversed(value.items()):
                stack += [(f"{path}.{key}", item, False), (path, key, True)]


def parse_instance(text: str) -> MetricMapping:
    """Parse an instance document into a validated-shape metric mapping.

    This module checks the JSON shape, the rational syntax, the kind
    pairings of _PAIRINGS and that the fiber entries match the carrier
    list; a table is then built as table_mapping builds it, by
    _fiber_points, _table_rows (the table rules, fed one entry at a time)
    and _mapping_from_rows. An error raises InputError with the path of
    the offending field; of two bad sections or two bad distance entries,
    the first in document order is reported, whatever its fault. JSON nested
    past the recursion limit, or with an integer past the int-string
    limit, raises at ``$``; a key or string with a lone surrogate or a
    line break, which no report line could print, raises at its own path
    before any field is read. The metric axioms are left to the validators.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e.msg}", path="$") from None
    except RecursionError:
        raise InputError("invalid JSON: nested past Python's recursion limit", path="$") from None
    except ValueError:
        # The one other refusal of json.loads: an integer literal too long.
        raise InputError(
            f"JSON integer past Python's limit of {sys.get_int_max_str_digits()} digits "
            "for integer text", path="$") from None
    _refuse_unprintable(text, doc)
    _require_keys(doc, ("base", "carrier", "fiber_map", "distance"), (), "$")
    base = _parse_base(*_section(doc, "base"))
    carrier = _parse_carrier(*_section(doc, "carrier"))
    fiber_kind, fiber_obj = _section(doc, "fiber_map")
    dist_kind, dist_obj = _section(doc, "distance")

    carrier_kind, fiber_kinds = _PAIRINGS[dist_kind]
    if carrier.kind != carrier_kind:
        raise InputError(f"{dist_kind} distance needs a {carrier_kind} carrier", path="$.distance.kind")
    if fiber_kind not in fiber_kinds:
        raise InputError(
            f"fiber kind {fiber_kind!r} does not apply to a {carrier.kind} carrier",
            path="$.fiber_map.kind",
        )
    if fiber_kind == "constant":
        try:
            target = base.point(fiber_obj["to"])
        except InputError as e:
            raise InputError(e.message, path="$.fiber_map.to") from None
        fiber = lambda x: target
    elif fiber_kind == "identity":
        # The identity sends each rational to itself: the base needs them as points.
        if not base.contains_point(BasePoint(carrier.lo)):
            raise InputError("identity fiber needs the rational_order base", path="$.fiber_map.kind")
        fiber = lambda x: BasePoint(x.code)

    if dist_kind == "abs_diff":
        return abs_diff_mapping(carrier, base, fiber)
    if dist_kind == "max_metric":
        return max_metric_mapping(carrier, base, fiber)
    if fiber_kind == "table":
        fibers = _fiber_points(base, _fiber_entries(fiber_obj, carrier), "$.fiber_map.entries")
    else:
        fibers = dict.fromkeys((p.code for p in carrier.points), target)
    items = _distance_entries(dist_obj)
    return _mapping_from_rows(base, fibers, *_table_rows(fibers, items, "$.distance.entries"))


def _fiber_entries(obj, carrier) -> dict:
    """The fiber entries in carrier order, one per carrier point: an
    unknown entry code raises first, then the first missing code in
    sorted order."""
    entries = obj["entries"]
    if not isinstance(entries, dict):
        raise InputError("entries must map carrier codes to base points", path="$.fiber_map.entries")
    codes = dict.fromkeys(p.code for p in carrier.points)
    for code in entries:
        if code not in codes:
            raise InputError(f"unknown carrier point {code!r}", path=f"$.fiber_map.entries.{code}")
    if missing := codes.keys() - entries.keys():
        raise InputError(f"missing fiber entry for {min(missing)!r}", path="$.fiber_map.entries")
    return {code: entries[code] for code in codes}


def _distance_entries(obj):
    """The distance entries as ((x, y), value) items in document order, one
    at a time: a bad shape or text raises once every earlier entry passed.
    Each distinct value text is parsed once; only texts that parsed are
    kept, so a bad one raises at its first entry's path."""
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise InputError("entries must be a list of [x, y, value] triples", path="$.distance.entries")
    parsed: dict[str, Fraction] = {}
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise InputError("expected [x, y, value] with x and y carrier codes",
                             path=f"$.distance.entries[{i}]")
        a, b, raw = entry
        value = parsed.get(raw) if isinstance(raw, str) else None
        if value is None:
            value = parsed[raw] = parse_rational(raw, path=f"$.distance.entries[{i}]")
        yield (a, b), value


def instance_document(m: MetricMapping) -> dict:
    """Serialize a finite instance back into document form, reading its
    distances from the instance's DistanceMatrix. Inverse of
    parse_instance up to entry order; all rationals in lowest terms."""
    if not m.is_finite_instance() or m.carrier.kind != "finite":
        raise InputError("only finite table instances can be serialized")
    base = m.base
    doc_base = {
        "kind": "finite",
        "points": [str(p.id) for p in base.points],
        "basis": [[str(i) for i in o] for o in base.basis],
    }
    points = list(m.points())
    dm = distance_matrix(m)
    doc = {
        "base": doc_base,
        "carrier": {"kind": "finite", "points": [p.code for p in points]},
        "fiber_map": {
            "kind": "table",
            "entries": {p.code: str(m.fiber_of(p).id) for p in points},
        },
        "distance": {
            "kind": "table",
            "entries": [
                [a.code, b.code, format_rational(Fraction(d, dm.den))]
                for i, a in enumerate(points)
                for b, d in zip(points[i + 1 :], dm.num[i][i + 1 :])
            ],
        },
    }
    return doc


_SPEC_RE = re.compile(r"(?P<ctor>[a-z_]+)\((?P<args>.*)\)(?:@(?P<tie>.+))?\Z")


def _resolve_point(token: str, m: MetricMapping, what: str) -> CarrierPoint:
    token = token.strip()
    if m.carrier.kind == "finite":
        for p in m.carrier.points:
            if p.code == token:
                return p
        raise InputError(f"{what}: point {token!r} is not in the carrier")
    if m.carrier.kind == "rational_interval":
        x = CarrierPoint(parse_rational(token))
        if x not in m.carrier:
            raise InputError(f"{what}: point {token} is outside the carrier interval")
        return x
    parts = token.split()
    if len(parts) != 2:
        raise InputError(f"{what}: grid points are written as two rationals, like '1/2 0'")
    x = CarrierPoint((parse_rational(parts[0]), parse_rational(parts[1])))
    if x not in m.carrier:
        raise InputError(f"{what}: point {token!r} is not on the carrier grid")
    return x


def parse_point_spec(text: str, m: MetricMapping, depth: int) -> CompletionPoint:
    """Resolve a completion-point spec against a loaded instance.

    Grammar: `const(<point>)` | `newton_sqrt(<rational>)` |
    `table(<p1>,<p2>,...;tail=<point>)`, each with an optional
    `@<basepoint>` suffix naming the tying target when it is not the
    implied one. A named target is a claim: the sequence is run through
    check_tying at ``depth``, and the first violation refutes it.
    """
    match = _SPEC_RE.fullmatch(text.strip())
    if not match:
        raise InputError(f"cannot parse point spec {text!r}")
    ctor, args, tie = match.group("ctor"), match.group("args"), match.group("tie")
    y = m.base.point(tie.strip()) if tie else None

    if ctor == "const":
        seq = const_seq(m, _resolve_point(args, m, "const"), y)
    elif ctor == "newton_sqrt":
        seq = newton_sqrt_seq(m, parse_rational(args.strip()), y)
    elif ctor == "table":
        if ";" not in args:
            raise InputError("table spec needs ';tail=<point>'")
        head, tail_part = args.split(";", 1)
        tail_part = tail_part.strip()
        if not tail_part.startswith("tail="):
            raise InputError("table spec needs ';tail=<point>'")
        tail = _resolve_point(tail_part[len("tail="):], m, "table tail")
        prefix = [
            _resolve_point(tok, m, "table term")
            for tok in head.split(",")
            if tok.strip()
        ]
        seq = table_seq(m, prefix, tail, y)
    else:
        raise InputError(f"unknown point constructor {ctor!r}")
    if tie and (violations := check_tying(seq, depth)):
        raise InputError(f"tie claim {text!r} is false: {violations[0]}")
    return CompletionPoint(seq)
