"""Exact brute-force oracles on finite instances.

Everything here is decidable by enumeration: completeness under the filter
criterion, completeness under the tied-sequence criterion, the agreement
check between the two, the cluster/limit identity for tied sets, and an
explicit finite completion. The two completeness deciders share plain
set helpers such as fiber_preimage but no decision logic: the filter side
decides through closures over the radius-palette balls of metric_mapping,
the net side through zero classes, tied cores and limit points over its
own per-point balls. The value of the agreement suite rests on the two
paths being independent.

On a finite carrier every filter is principal, every Cauchy sequence is
eventually inside one zero-distance class, and the small-diameter condition
forces that class structure, so all the quantifiers discharge exactly (not
heuristically) into finite enumerations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .base_topology import BasePoint, FiniteBase
from .errors import InputError
from .metric_mapping import (
    CarrierPoint,
    MetricMapping,
    closure_finite,
    fiber_preimage,
    table_mapping,
)


@dataclass(frozen=True)
class PrincipalFilter:
    """A filter on a finite carrier, represented by its minimal set: the
    filter of all supersets of ``min_set``. Every filter on a finite set
    has this form."""

    min_set: frozenset

    def __post_init__(self):
        if not self.min_set:
            raise InputError("a filter's minimal set must be nonempty")


@dataclass(frozen=True)
class OracleVerdict:
    """Decision plus certificate. For completeness checks the certificate
    is the witnessing (base point, tied set) on failure."""

    ok: bool
    certificate: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class TailSequence:
    """An eventually-cycling sequence: a finite prefix, then the ``tail``
    points repeated forever in order."""

    prefix: tuple[CarrierPoint, ...]
    tail: tuple[CarrierPoint, ...]

    def __post_init__(self):
        if not self.tail:
            raise InputError("tail must be nonempty")

    def at(self, n: int) -> CarrierPoint:
        if n < 1:
            raise InputError("sequence index starts at 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail[(n - len(self.prefix) - 1) % len(self.tail)]


def ensure_finite_instance(m: MetricMapping) -> None:
    if not m.is_finite_instance():
        raise InputError("this oracle needs a finite carrier and a finite base")


def _sorted_points(pts: Iterable[CarrierPoint]) -> list[CarrierPoint]:
    return sorted(pts, key=lambda p: str(p.code))


class _UnionFind:
    """Plain union-find with path compression; small inputs, no ranks."""

    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def zero_classes(m: MetricMapping) -> tuple[frozenset, ...]:
    """Zero-distance classes of the carrier, ordered by smallest code."""
    ensure_finite_instance(m)
    pts = m.points()
    uf = _UnionFind(pts)
    for x, x2 in combinations(pts, 2):
        if m.distance(x, x2) == 0:
            uf.union(x, x2)
    groups: dict[CarrierPoint, set] = {}
    for x in pts:
        groups.setdefault(uf.find(x), set()).add(x)
    classes = [frozenset(g) for g in groups.values()]
    classes.sort(key=lambda c: str(min(c, key=lambda p: str(p.code)).code))
    return tuple(classes)


def _tied_core(m: MetricMapping, y: BasePoint) -> frozenset:
    """T_y: the carrier points in the preimage of every basic open around y."""
    core = frozenset(m.points())
    for o in m.base.neighborhood_basis(y):
        core &= fiber_preimage(m, map(BasePoint, o))
    return core


def _balls_around(m: MetricMapping, x: CarrierPoint, pts) -> list[frozenset]:
    # Every distinct open ball around x arises as {v : d(x,v) <= t} for a
    # realized threshold t; derived per point, without the radius palette.
    thresholds = sorted({m.distance(x, v) for v in pts})
    return [frozenset(v for v in pts if m.distance(x, v) <= t) for t in thresholds]


def _is_limit(m: MetricMapping, x: CarrierPoint, region: frozenset, pts) -> bool:
    """Whether x is a limit point of the principal filter of ``region``,
    and so of every sequence that cycles through ``region``: each basic
    neighborhood of x, a ball around x intersected with the preimage of a
    basic open around its fiber, contains all of ``region``."""
    preimages = [
        fiber_preimage(m, map(BasePoint, o))
        for o in m.base.neighborhood_basis(m.fiber_of(x))
    ]
    return all(
        region <= (ball & pre)
        for ball in _balls_around(m, x, pts)
        for pre in preimages
    )


def _limit_set(m: MetricMapping, region: frozenset) -> frozenset:
    """Points whose every basic neighborhood contains ``region`` entirely."""
    pts = m.points()
    return frozenset(x for x in pts if _is_limit(m, x, region, pts))


def cluster_and_limit_sets(m: MetricMapping, region) -> tuple[frozenset, frozenset]:
    """Cluster and limit points of the principal filter of ``region``.

    Cluster points are exactly the closure of the minimal set; limit
    points are the points all of whose basic neighborhoods contain it.
    """
    ensure_finite_instance(m)
    a = frozenset(region)
    if not a:
        raise InputError("region must be nonempty")
    return closure_finite(m, a), _limit_set(m, a)


def _diam_zero(m: MetricMapping, subset) -> bool:
    return all(m.distance(x, x2) == 0 for x, x2 in combinations(subset, 2))


def _nonempty_subsets(pts: list[CarrierPoint]):
    for r in range(1, len(pts) + 1):
        for combo in combinations(pts, r):
            yield frozenset(combo)


def is_complete_filter(m: MetricMapping) -> OracleVerdict:
    """Completeness by the filter criterion, decided exactly.

    On a finite carrier every filter is the up-set of a minimal set A, and
    the arbitrarily-small-diameter condition forces diam(A) = 0; the
    neighborhood-filter containment is exactly A inside the preimage of
    every basic open around the target. The instance is complete iff every
    such (y, A) has closure(A) meeting the fiber of y. On failure the
    certificate is the witnessing (y, A).
    """
    ensure_finite_instance(m)
    pts = _sorted_points(m.points())
    tied_candidates = [a for a in _nonempty_subsets(pts) if _diam_zero(m, a)]
    closure_cache: dict[frozenset, frozenset] = {}
    for y in m.base.points:
        fiber_y = frozenset(x for x in pts if m.fiber_of(x) == y)
        constraints = [
            fiber_preimage(m, map(BasePoint, o))
            for o in m.base.basis
            if y.id in o
        ]
        for a in tied_candidates:
            if not all(a <= p for p in constraints):
                continue
            if a not in closure_cache:
                closure_cache[a] = closure_finite(m, a)
            if not closure_cache[a] & fiber_y:
                return OracleVerdict(False, (y, a))
    return OracleVerdict(True)


def is_complete_net(m: MetricMapping) -> OracleVerdict:
    """Completeness by the tied-sequence criterion, decided exactly.

    A Cauchy sequence tied to y is eventually inside C & T_y for a single
    zero-distance class C, where T_y is the intersection of the preimages
    of the basic opens around y. The hardest such sequence cycles through
    all of C & T_y, and a limit for it serves every easier one, so the
    instance is complete iff each nonempty C & T_y has a limit point in
    the fiber of y. Independent of is_complete_filter by construction.
    """
    ensure_finite_instance(m)
    pts = _sorted_points(m.points())
    classes = zero_classes(m)
    for y in m.base.points:
        tied_core = _tied_core(m, y)
        fiber_y = [x for x in pts if m.fiber_of(x) == y]
        for c in classes:
            tied_set = c & tied_core
            if tied_set and not any(_is_limit(m, x, tied_set, pts) for x in fiber_y):
                return OracleVerdict(False, (y, tied_set))
    return OracleVerdict(True)


def filter_of_net(seq: TailSequence) -> PrincipalFilter:
    """The filter of terminal sets of an eventually-cycling sequence: the
    up-set of the set of points visited infinitely often."""
    return PrincipalFilter(frozenset(seq.tail))


def net_of_filter(m: MetricMapping, flt: PrincipalFilter) -> TailSequence:
    """A sequence realizing a principal filter with zero-diameter minimal
    set: cycle through the minimal set forever. Rejects larger diameters,
    which no Cauchy sequence can realize."""
    ensure_finite_instance(m)
    if not _diam_zero(m, flt.min_set):
        raise InputError("minimal set has positive diameter; not realizable by a Cauchy sequence")
    return TailSequence((), tuple(_sorted_points(flt.min_set)))


def net_cluster_limit(m: MetricMapping, seq: TailSequence) -> tuple[frozenset, frozenset]:
    """Cluster and limit sets of an eventually-cycling sequence, computed
    from the terms themselves (one full cycle past the prefix)."""
    ensure_finite_instance(m)
    start = len(seq.prefix) + 1
    visited = frozenset(seq.at(n) for n in range(start, start + len(seq.tail)))
    return closure_finite(m, visited), _limit_set(m, visited)


def lemma2_check(m: MetricMapping) -> OracleVerdict:
    """For every realizable tied Cauchy sequence, cluster points and limit
    points agree inside the target fiber.

    Realizable tied sequences correspond exactly to the nonempty
    zero-diameter subsets of T_y (the set visited infinitely often), so
    the check enumerates those. Returns the witnessing (y, S) on failure.
    """
    ensure_finite_instance(m)
    pts = _sorted_points(m.points())
    for y in m.base.points:
        fiber_y = frozenset(x for x in pts if m.fiber_of(x) == y)
        for s in _nonempty_subsets(_sorted_points(_tied_core(m, y))):
            if not _diam_zero(m, s):
                continue
            clusters = closure_finite(m, s) & fiber_y
            limits = _limit_set(m, s) & fiber_y
            if clusters != limits:
                return OracleVerdict(False, (y, s))
    return OracleVerdict(True)


@dataclass
class FiniteCompletion:
    """The completed finite instance plus the embedding of the original
    carrier into it."""

    instance: MetricMapping
    embedding: dict[CarrierPoint, CarrierPoint]


def finite_completion(m: MetricMapping) -> FiniteCompletion:
    """The explicit completion of a finite instance.

    New carrier: one point per (zero class C, base point y) with C meeting
    T_y; its fiber is y, and distances are read off class representatives.
    Its code is ``<representative code>*<y>``, with backslash and ``*``
    escaped in both parts so that distinct pairs never share a code.
    The original carrier embeds as x -> (class of x, fiber of x), which is
    exact, injective up to the fiberwise metric, and has dense image; the
    result is complete under both oracle criteria.
    """
    ensure_finite_instance(m)
    classes = zero_classes(m)
    reps = {c: min(c, key=lambda p: str(p.code)) for c in classes}

    star: list[tuple[frozenset, BasePoint]] = []
    for y in m.base.points:
        core = _tied_core(m, y)
        for c in classes:
            if c & core:
                star.append((c, y))

    def escape(part) -> str:
        return str(part).replace("\\", "\\\\").replace("*", "\\*")

    def star_code(c: frozenset, y: BasePoint) -> str:
        return f"{escape(reps[c].code)}*{escape(y.id)}"

    fiber_table = {star_code(c, y): y.id for c, y in star}
    distance_table = {}
    for (c1, y1), (c2, y2) in combinations(star, 2):
        key = (star_code(c1, y1), star_code(c2, y2))
        distance_table[key] = m.distance(reps[c1], reps[c2])

    instance = table_mapping(m.base, fiber_table, distance_table)
    by_code = {p.code: p for p in instance.points()}

    embedding = {}
    class_lookup = {x: c for c in classes for x in c}
    for x in m.points():
        embedding[x] = by_code[star_code(class_lookup[x], m.fiber_of(x))]
    return FiniteCompletion(instance, embedding)


_DISTANCE_PALETTE = (
    Fraction(0),
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
)


def _shortest_path_closure(codes: list[str], dist: dict) -> dict:
    """Min-plus closure of a symmetric distance table: repairs the triangle
    inequality without ever increasing an entry."""
    d = dict(dist)

    def get(a: str, b: str) -> Fraction:
        if a == b:
            return Fraction(0)
        return d[(a, b) if a <= b else (b, a)]

    def put(a: str, b: str, v: Fraction) -> None:
        d[(a, b) if a <= b else (b, a)] = v

    for k in codes:
        for i in codes:
            for j in codes:
                if i == j:
                    continue
                via = get(i, k) + get(k, j)
                if via < get(i, j):
                    put(i, j, via)
    return d


def random_instance(seed: int, max_x: int = 6, max_y: int = 3) -> MetricMapping:
    """A deterministic pseudo-random finite instance that always passes the
    validators.

    Distances are drawn from a small rational palette and repaired by
    shortest-path closure; zero distances inside one fiber are repaired by
    dropping duplicate points (one survivor per class and fiber); the basis
    is repaired by closing under pairwise intersection and covering
    stragglers with singletons.
    """
    if max_x < 1 or max_y < 1:
        raise InputError("max_x and max_y must be at least 1")
    rng = random.Random(seed)

    n_y = rng.randint(1, max_y)
    y_ids = [f"y{i}" for i in range(n_y)]
    sets = set()
    for _ in range(rng.randint(1, 2 * n_y)):
        size = rng.randint(1, n_y)
        sets.add(tuple(sorted(rng.sample(y_ids, size))))
    changed = True
    while changed:
        changed = False
        for s1, s2 in combinations(sorted(sets), 2):
            meet = tuple(sorted(set(s1) & set(s2)))
            if meet and meet not in sets:
                sets.add(meet)
                changed = True
    covered = {pid for s in sets for pid in s}
    for pid in y_ids:
        if pid not in covered:
            sets.add((pid,))
    base = FiniteBase.of(y_ids, sorted(sets))

    n_x = rng.randint(1, max_x)
    x_ids = [f"x{i}" for i in range(n_x)]
    fiber_choice = {x: rng.choice(y_ids) for x in x_ids}
    dist: dict[tuple[str, str], Fraction] = {}
    for a, b in combinations(x_ids, 2):
        key = (a, b) if a <= b else (b, a)
        dist[key] = rng.choice(_DISTANCE_PALETTE)
    dist = _shortest_path_closure(x_ids, dist)

    # Fiberwise repair: inside each zero class keep one point per fiber.
    uf = _UnionFind(x_ids)
    for (a, b), v in dist.items():
        if v == 0:
            uf.union(a, b)
    keep = {}
    for x in x_ids:
        key = (uf.find(x), fiber_choice[x])
        if key not in keep or x < keep[key]:
            keep[key] = x
    survivors = [x for x in x_ids if x in set(keep.values())]

    fiber_table = {x: fiber_choice[x] for x in survivors}
    distance_table = {
        (a, b): dist[(a, b) if a <= b else (b, a)]
        for a, b in combinations(survivors, 2)
    }
    return table_mapping(base, fiber_table, distance_table)
