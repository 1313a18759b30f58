"""Workload inputs and output checks for the benchmark.

A workload turns a seed into one pass of operations (``Op``): CLI argument
lists over instance files it writes itself, each with the check that
judges the outcome. The finite-instance generator and the reference
completeness verdict below are plain Python over the instance tables; they
never call the package, so they can judge its deciders.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import ceil
from pathlib import Path
from typing import Callable, NamedTuple

# Outcome of one op: OK, or WRONG for any failure.
OK, WRONG = "ok", "wrong"


class Invocation(NamedTuple):
    """What one ``run_command`` call did: exit code (None when an
    exception escaped), captured stdout and stderr, and the exception."""

    code: int | None
    out: str
    err: str
    exc: BaseException | None


@dataclass(frozen=True)
class Op:
    """One timed operation: one or more CLI invocations, the input size
    they run at, and the check that turns their results into an outcome."""

    argvs: tuple[tuple[str, ...], ...]
    size: str
    check: Callable[[list[Invocation]], str]


_PROP_RE = re.compile(r"PROP (\S+) (PASS|FAIL)(?: (.*))?\Z")


def _report(out: str) -> tuple[list[tuple[str, str, str]], str]:
    """Split a rendered report into (name, status, detail) rows and its
    SUMMARY line; a malformed line becomes a row that matches nothing."""
    lines = out.splitlines()
    rows = []
    for line in lines[:-1]:
        m = _PROP_RE.match(line)
        rows.append((m.group(1), m.group(2), m.group(3) or "") if m else (line, "?", ""))
    return rows, (lines[-1] if lines else "")


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


# --- finite instances, generator and reference verdict ---------------------


@dataclass(frozen=True)
class FiniteTables:
    """A finite instance as plain tables: base points, basic opens, the
    fiber of each carrier code, and the distance of each unordered pair."""

    ys: tuple[str, ...]
    basis: tuple[tuple[str, ...], ...]
    fibers: dict
    dist: dict

    def d(self, a: str, b: str) -> Fraction:
        if a == b:
            return Fraction(0)
        return self.dist[(a, b) if a <= b else (b, a)]

    def zero_classes(self) -> list[frozenset]:
        # d = 0 is an equivalence when the triangle inequality holds, so
        # comparing with one member of each class suffices.
        classes: list[set] = []
        for x in sorted(self.fibers):
            for c in classes:
                if self.d(x, next(iter(c))) == 0:
                    c.add(x)
                    break
            else:
                classes.append({x})
        return [frozenset(c) for c in classes]

    def tied_core(self, y: str) -> frozenset:
        """T_y: the points whose fiber lies in every basic open around y."""
        allowed = set(self.ys)
        for o in self.basis:
            if y in o:
                allowed &= set(o)
        return frozenset(x for x, fy in self.fibers.items() if fy in allowed)

    def document(self) -> dict:
        codes = sorted(self.fibers)
        return {
            "base": {"kind": "finite", "points": list(self.ys),
                     "basis": [list(o) for o in self.basis]},
            "carrier": {"kind": "finite", "points": codes},
            "fiber_map": {"kind": "table", "entries": {x: self.fibers[x] for x in codes}},
            "distance": {"kind": "table", "entries": [
                [a, b, _text(self.d(a, b))] for a, b in combinations(codes, 2)
            ]},
        }


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def reference_complete(t: FiniteTables) -> bool:
    """Complete iff, for every base point y, each zero class meeting T_y
    has a point over y.

    Needs a valid pseudometric and at most one point per zero class and
    fiber, which every instance generated here has. A point over y is in
    the closure of a set A inside C & T_y exactly when it lies in C: its
    small balls hold only points at distance 0, and A sits inside the
    preimage of every basic open around y.
    """
    classes = t.zero_classes()
    for y in t.ys:
        core = t.tied_core(y)
        for c in classes:
            if c & core and not any(t.fibers[x] == y for x in c):
                return False
    return True


def valid_certificate(t: FiniteTables, y: str, tied: frozenset) -> bool:
    """An INCOMPLETE certificate (y, A) is genuine when A is a nonempty
    subset of T_y inside one zero class that has no point over y."""
    if y not in t.ys or not tied or not tied <= set(t.fibers) or not tied <= t.tied_core(y):
        return False
    cls = next(c for c in t.zero_classes() if next(iter(tied)) in c)
    return tied <= cls and not any(t.fibers[x] == y for x in cls)


def _random_basis(rng: random.Random, ys: list[str]) -> list[tuple[str, ...]]:
    """Random basic opens, closed under nonempty pairwise intersection and
    covering every point, so the basis axioms hold."""
    sets = set()
    for _ in range(rng.randint(1, 2 * len(ys))):
        sets.add(tuple(sorted(rng.sample(ys, rng.randint(1, len(ys))))))
    changed = True
    while changed:
        changed = False
        for s1, s2 in combinations(sorted(sets), 2):
            meet = tuple(sorted(set(s1) & set(s2)))
            if meet and meet not in sets:
                sets.add(meet)
                changed = True
    covered = {y for s in sets for y in s}
    sets.update((y,) for y in ys if y not in covered)
    return sorted(sets)


def finite_tables(rng: random.Random, n: int, m: int) -> FiniteTables:
    """n carrier points over m base points.

    The points form ceil(n/2) zero classes of as equal a size as possible,
    with at most one point per class and fiber, so the fiberwise-metric
    axiom holds. Classes sit at the positions k^2/12 of a line, with
    distance |pos - pos'|, so the pseudometric axioms hold and the number
    of distinct distances, which sets the closure's ball count, depends on
    n alone. The seed draws the fibers, the class order and the basis.
    """
    ys = [f"y{i}" for i in range(m)]
    basis = _random_basis(rng, ys)
    n_classes = ceil(n / 2)
    slots = []
    for c in range(n_classes):
        size = n // n_classes + (c < n % n_classes)
        slots += [(c, y) for y in rng.sample(ys, size)]
    rng.shuffle(slots)
    pos = [Fraction(k * k, 12) for k in range(n_classes)]
    rng.shuffle(pos)
    codes = [f"x{i:02d}" for i in range(n)]
    fibers = {code: y for code, (_, y) in zip(codes, slots)}
    where = {code: pos[c] for code, (c, _) in zip(codes, slots)}
    dist = {(a, b): abs(where[a] - where[b]) for a, b in combinations(codes, 2)}
    return FiniteTables(tuple(ys), tuple(basis), fibers, dist)


def finite_tables_with_verdict(rng: random.Random, n: int, m: int, complete: bool) -> FiniteTables:
    """Draw instances until the reference verdict is the one asked for, so
    every corpus holds the same mix of complete and incomplete instances."""
    while True:
        t = finite_tables(rng, n, m)
        if reference_complete(t) == complete:
            return t


_CERT_RE = re.compile(r"INCOMPLETE certificate=\(([^,]+),\{([^}]*)\}\)\Z")


def check_complete_check(t: FiniteTables, complete: bool, results: list[Invocation]) -> str:
    (r,) = results
    if r.exc is not None or r.code != (0 if complete else 1):
        return WRONG
    rows, summary = _report(r.out)
    names = [(name, status) for name, status, _ in rows]
    validators = [("basis_axioms", "PASS"), ("pseudometric_axioms", "PASS"),
                  ("fiberwise_metric", "PASS")]
    if names != validators + [("complete_check", "PASS" if complete else "FAIL")]:
        return WRONG
    detail = rows[-1][2]
    if complete:
        return OK if detail == "COMPLETE" and summary == "SUMMARY 4/4" else WRONG
    m = _CERT_RE.match(detail)
    if not m or summary != "SUMMARY 3/4":
        return WRONG
    tied = frozenset(s for s in m.group(2).split(",") if s)
    return OK if valid_certificate(t, m.group(1), tied) else WRONG


# --- workloads --------------------------------------------------------------


class FiniteDecide:
    """complete-check over a corpus of finite table instances.

    Every pass holds the same mix: for each of 12..16 carrier points,
    three complete instances to one incomplete one, each with 3 and with
    4 base points. An incomplete instance stops the decider at its first
    witness, so its cost varies with the seed; a complete one runs the
    whole sweep, at a cost set by n. With complete instances in the
    majority, the median and tail fall among them and do not hinge on
    where a witness happens to lie. Sizes interleave so a run cut
    mid-pass keeps the mix, and the pass opens with the cheapest size,
    which set-up runs as its warm-up.
    """

    name = "finite-decide"
    SIZES = (12, 16, 13, 15, 14)
    SHAPES = ((3, True), (4, True), (3, False), (4, True),
              (3, True), (4, False), (3, True), (4, True))  # (base points, complete)

    def prepare(self, seed: int, directory: Path) -> list[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for m, complete in self.SHAPES:
            for n in self.SIZES:
                t = finite_tables_with_verdict(rng, n, m, complete)
                path = _write(directory / f"finite-{len(ops):02d}.json", t.document())
                ops.append(Op((("complete-check", path),), f"n={n}",
                              partial(check_complete_check, t, complete)))
        return ops


# Rationals in (0, 3) with |x - x'|, over a one-point base.
INTERVAL = {
    "base": {"kind": "one_point", "point": "o"},
    "carrier": {"kind": "rational_interval", "lo": "0", "hi": "3"},
    "fiber_map": {"kind": "constant", "to": "o"},
    "distance": {"kind": "abs_diff"},
}


def _check_validate(results: list[Invocation]) -> str:
    # Both carriers carry genuine metrics, so every validator must pass.
    (r,) = results
    if r.exc is not None or r.code != 0:
        return WRONG
    rows, summary = _report(r.out)
    names = [(name, status) for name, status, _ in rows]
    ok = names == [("pseudometric_axioms", "PASS"), ("fiberwise_metric", "PASS")]
    return OK if ok and summary == "SUMMARY 2/2" else WRONG


class ValidateCountable:
    """validate, alternating the interval instance at --depth 64 with an
    8x8 grid; both instances are fixed, and the seed picks which opens."""

    name = "validate-countable"

    def prepare(self, seed: int, directory: Path) -> list[Op]:
        interval = _write(directory / "interval.json", INTERVAL)
        grid = _write(directory / "grid.json", {
            **INTERVAL, "distance": {"kind": "max_metric"},
            "carrier": {"kind": "rational_grid", "step": "1/7", "lo": "0", "hi": "1"},
        })
        ops = [
            Op((("validate", interval, "--depth", "64"),), "budget=64", _check_validate),
            Op((("validate", grid, "--depth", "64"),), "grid=8x8", _check_validate),
        ]
        return ops if seed % 2 == 0 else ops[::-1]


def tables_of(m) -> FiniteTables:
    """Read a finite instance of the package into plain tables."""
    pts = list(m.points())
    return FiniteTables(
        tuple(str(p.id) for p in m.base.points),
        tuple(tuple(o) for o in m.base.basis),
        {x.code: str(m.fiber_of(x).id) for x in pts},
        {(a.code, b.code) if a.code <= b.code else (b.code, a.code): m.distance(a, b)
         for a, b in combinations(pts, 2)},
    )


def _check_suite(expected: tuple[list, list], results: list[Invocation]) -> str:
    for r, rows_expected in zip(results, expected):
        if r.exc is not None or r.code != 0:
            return WRONG
        rows, summary = _report(r.out)
        if rows != rows_expected or summary != f"SUMMARY {len(rows)}/{len(rows)}":
            return WRONG
    return OK


class SuiteSweep:
    """theorem3 then lemma2 over one 200-seed block, timed together as one
    op. A pass covers 8 consecutive blocks, starting at block 8 * seed,
    because block costs differ by some 15% and one block per run would
    make that difference a run-to-run spread.

    The CLI builds these instances from seeds with the package's own
    generator, so set-up rebuilds them with it and applies the reference
    verdict to each; the verdicts themselves never come from the package.
    """

    name = "suite-sweep"
    COUNT = 200
    BLOCKS = 8

    def prepare(self, seed: int, directory: Path) -> list[Op]:
        from mapcomplete.finite_oracle import random_instance

        ops = []
        for block in range(seed * self.BLOCKS, (seed + 1) * self.BLOCKS):
            start = block * self.COUNT
            theorem3, lemma2 = [], []
            for s in range(start, start + self.COUNT):
                complete = reference_complete(tables_of(random_instance(s, 6, 3)))
                verdict = "COMPLETE" if complete else "INCOMPLETE"
                theorem3.append((f"theorem3[seed={s}]", "PASS", f"filter={verdict} net={verdict}"))
                lemma2.append((f"lemma2[seed={s}]", "PASS", "holds"))
            argvs = tuple((cmd, "--seed", str(start), "--count", str(self.COUNT))
                          for cmd in ("theorem3", "lemma2"))
            ops.append(Op(argvs, f"block={start}", partial(_check_suite, (theorem3, lemma2))))
        return ops


def _fraction(text: str) -> Fraction:
    """Parse checker-side rationals of any length; the conversion limit is
    lifted only for this call, never while the program runs."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(old)


def dstar_value_ok(value: Fraction, eps: Fraction) -> bool:
    """|value - (3/2 - sqrt 2)| <= eps, decided exactly: with
    a = 3/2 - value, that is a - eps >= 0 and (a-eps)^2 <= 2 <= (a+eps)^2."""
    a = Fraction(3, 2) - value
    return a - eps >= 0 and (a - eps) ** 2 <= 2 <= (a + eps) ** 2


_DSTAR_RE = re.compile(r"value=(\d+(?:/\d+)?) \(~[0-9.]+\) radius=(\S+)\Z")


def _check_dstar(k: int, eps_text: str, results: list[Invocation]) -> str:
    (r,) = results
    if r.exc is not None or r.code != 0:
        return WRONG
    rows, summary = _report(r.out)
    if len(rows) != 1 or rows[0][:2] != ("dstar", "PASS") or summary != "SUMMARY 1/1":
        return WRONG
    m = _DSTAR_RE.match(rows[0][2])
    if not m or m.group(2) != eps_text:
        return WRONG
    return OK if dstar_value_ok(_fraction(m.group(1)), Fraction(1, 10**k)) else WRONG


# The CLI parses --eps with int(), which Python refuses past 4300 digits
# (sys.get_int_max_str_digits()), so eps = 1/10^k exits 2 for k >= 4300.
# The ladder stops below that limit; see NOTES.md.
TOP_RUNG = 4299


def ladder() -> list[int]:
    """Digits k of eps = 10^-k: 64 rungs, log-spaced from 9 to TOP_RUNG."""
    return sorted({round(9 * (TOP_RUNG / 9) ** (i / 63)) for i in range(64)})


def dstar_op(path: str, k: int) -> Op:
    """dstar between newton_sqrt(2) and const(3/2) at eps = 10^-k."""
    eps = "1/1" + "0" * k
    argv = ("dstar", path, "--point", "newton_sqrt(2)", "--point", "const(3/2)", "--eps", eps)
    return Op((argv,), f"k={k}", partial(_check_dstar, k, eps))


class DstarLadder:
    """dstar on the interval instance, one op per rung of the eps ladder.
    The ladder is fixed; the seed shuffles every rung but the first
    (k = 9), which opens the pass and serves as the set-up warm-up."""

    name = "dstar-ladder"

    def prepare(self, seed: int, directory: Path) -> list[Op]:
        path = _write(directory / "interval.json", INTERVAL)
        first, *rest = ladder()
        random.Random(f"{self.name}/{seed}").shuffle(rest)
        return [dstar_op(path, k) for k in [first] + rest]


WORKLOADS = {w.name: w for w in (FiniteDecide(), ValidateCountable(), SuiteSweep(), DstarLadder())}
