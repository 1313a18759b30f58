"""Metric mappings: a carrier set, a fiber map into a base space, and an
exact-rational distance evaluator.

The distance is a pseudometric on the whole carrier whose restriction to
each fiber is a genuine metric; validators check both, exhaustively on
finite carriers and over an enumeration prefix otherwise. For finite
instances the module also computes closures in the topology whose basic
opens are (metric ball) & (fiber preimage of a basic open of the base).

All distances are exact rationals. No floating point enters the core:
the certified error bounds downstream are only sound with exact base
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import floor, gcd, lcm
from typing import Callable, ClassVar, Iterable, Union
from weakref import WeakKeyDictionary

from .base_topology import Base, BasePoint, FiniteBase
from .errors import EvaluatorError, InputError, Violation
from .rationals import format_rational, nth_unit_rational

CarrierCode = Union[str, Fraction, tuple]


@dataclass(frozen=True)
class CarrierPoint:
    """A point of the carrier, identified by an opaque code.

    Codes are text for finite carriers, a Fraction for rational-interval
    carriers, and a pair of Fractions for grid carriers.
    """

    code: CarrierCode


@dataclass(frozen=True)
class FiniteCarrier:
    points: tuple[CarrierPoint, ...]

    kind: ClassVar[str] = "finite"

    @classmethod
    def of(cls, codes: Iterable[CarrierCode]) -> "FiniteCarrier":
        pts = tuple(CarrierPoint(c) for c in codes)
        if len({p.code for p in pts}) != len(pts):
            raise InputError("duplicate carrier point codes")
        return cls(pts)

    @property
    def size(self) -> int:
        return len(self.points)

    def __contains__(self, x: CarrierPoint) -> bool:
        return x in self.points

    def enumerate_point(self, n: int) -> CarrierPoint:
        if not 0 <= n < len(self.points):
            raise InputError(f"carrier has {len(self.points)} points, index {n} out of range")
        return self.points[n]


@dataclass(frozen=True)
class RationalIntervalCarrier:
    """All rationals strictly between ``lo`` and ``hi``."""

    lo: Fraction
    hi: Fraction

    kind: ClassVar[str] = "rational_interval"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InputError("rational_interval needs lo < hi")

    def __contains__(self, x: CarrierPoint) -> bool:
        return isinstance(x.code, Fraction) and self.lo < x.code < self.hi

    def enumerate_point(self, n: int) -> CarrierPoint:
        # Affine image of the unit-interval enumeration: total and injective.
        t = nth_unit_rational(n)
        return CarrierPoint(self.lo + (self.hi - self.lo) * t)


@dataclass(frozen=True)
class RationalGridCarrier:
    """The square grid of rational pairs with spacing ``step`` inside
    [lo, hi] x [lo, hi], endpoints included."""

    step: Fraction
    lo: Fraction
    hi: Fraction

    kind: ClassVar[str] = "rational_grid"

    def __post_init__(self):
        if self.step <= 0:
            raise InputError("rational_grid needs step > 0")
        if self.lo > self.hi:
            raise InputError("rational_grid needs lo <= hi")

    def axis_values(self) -> list[Fraction]:
        vals = []
        v = self.lo
        while v <= self.hi:
            vals.append(v)
            v += self.step
        return vals

    @property
    def size(self) -> int:
        """The number of grid points, counted without building them."""
        return (floor((self.hi - self.lo) / self.step) + 1) ** 2

    @cached_property
    def points(self) -> tuple[CarrierPoint, ...]:
        """Every grid point, row by row; built once per carrier."""
        axis = self.axis_values()
        return tuple(CarrierPoint((a, b)) for a in axis for b in axis)

    def __contains__(self, x: CarrierPoint) -> bool:
        if not (isinstance(x.code, tuple) and len(x.code) == 2):
            return False
        a, b = x.code
        for v in (a, b):
            if not isinstance(v, Fraction):
                return False
            if not self.lo <= v <= self.hi:
                return False
            if (v - self.lo) % self.step != 0:
                return False
        return True

    def enumerate_point(self, n: int) -> CarrierPoint:
        pts = self.points
        if not 0 <= n < len(pts):
            raise InputError(f"grid has {len(pts)} points, index {n} out of range")
        return pts[n]


Carrier = Union[FiniteCarrier, RationalIntervalCarrier, RationalGridCarrier]


def carrier_is_finite(c: Carrier) -> bool:
    return c.kind in ("finite", "rational_grid")


@dataclass(frozen=True, eq=False)
class MetricMapping:
    """Carrier, base, fiber map and distance evaluator, bundled.

    ``fiber`` and ``dist`` must be pure: same inputs, same outputs, no side
    effects. Values are immutable and safe to share across threads.
    Equality and hashing are by identity: each mapping is its own key in
    the per-mapping caches, found without hashing its carrier and base.

    ``dist_kind`` names the distance. ``abs_diff`` promises that every
    code is a Fraction and ``dist`` is |x - x'|; ``max_metric`` promises
    that every code is a pair of Fractions and ``dist`` is the larger
    coordinate difference. ``DistanceMatrix`` computes these two from the
    codes without calling ``dist``, so a mapping whose ``dist`` breaks the
    promise must use another kind (``custom``, the default, or ``table``).
    """

    carrier: Carrier
    base: Base
    fiber: Callable[[CarrierPoint], BasePoint]
    dist: Callable[[CarrierPoint, CarrierPoint], Fraction]
    dist_kind: str = "custom"

    def distance(self, x: CarrierPoint, x2: CarrierPoint) -> Fraction:
        value = self.dist(x, x2)
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise EvaluatorError(
                f"distance evaluator returned non-rational {value!r} "
                f"for ({x.code!r}, {x2.code!r})"
            )
        if value < 0:
            raise EvaluatorError(
                f"distance evaluator returned negative {value} "
                f"for ({x.code!r}, {x2.code!r})"
            )
        return value

    def fiber_of(self, x: CarrierPoint) -> BasePoint:
        return self.fiber(x)

    def points(self) -> tuple[CarrierPoint, ...]:
        if carrier_is_finite(self.carrier):
            return self.carrier.points
        raise InputError("operation needs a finite carrier")

    def sample_points(self, budget: int) -> tuple[CarrierPoint, ...]:
        """All points when finite, else the first ``budget`` enumerated ones."""
        if carrier_is_finite(self.carrier):
            return self.points()
        return tuple(self.carrier.enumerate_point(i) for i in range(budget))

    def is_finite_instance(self) -> bool:
        return carrier_is_finite(self.carrier) and isinstance(self.base, FiniteBase)


def table_mapping(
    base: Base,
    fiber_table: dict[str, object],
    distance_table,
    dist_kind: str = "table",
) -> MetricMapping:
    """Build a finite mapping from explicit tables, checking them.

    ``fiber_table`` fixes the carrier (insertion order is kept) and maps
    each code to a token naming its base point (see ``base.point``).
    ``distance_table`` is a dict from code pairs to values, or a sequence
    of ``((a, b), value)`` items, with an entry for every unordered pair of
    distinct codes. Values must be nonnegative, diagonal entries zero and
    symmetric duplicates equal. An error's path locates the offending
    entry: ``fiber_table.<code>``, ``distance_table[<i>]`` for the i-th
    item, or ``distance_table`` for a missing pair.
    """
    carrier = FiniteCarrier.of(list(fiber_table))
    fibers = {}
    for code, token in fiber_table.items():
        try:
            fibers[code] = base.point(token)
        except InputError as e:
            raise InputError(
                f"fiber of {code!r} targets {e.message}", path=f"fiber_table.{code}"
            ) from None

    items = distance_table.items() if isinstance(distance_table, dict) else distance_table
    table: dict[tuple[str, str], Fraction] = {}
    for i, ((a, b), value) in enumerate(items):
        for code in (a, b):
            if code not in fibers:
                raise InputError(
                    f"distance entry references unknown carrier point {code!r}",
                    path=f"distance_table[{i}]",
                )
        value = Fraction(value)
        if value < 0:
            raise InputError(
                f"negative distance {format_rational(value)} for ({a!r}, {b!r})",
                path=f"distance_table[{i}]",
            )
        if a == b:
            if value != 0:
                raise InputError(
                    f"nonzero diagonal distance {format_rational(value)} for {a!r}",
                    path=f"distance_table[{i}]",
                )
            continue
        key = (a, b) if a <= b else (b, a)
        if key in table and table[key] != value:
            raise InputError(
                f"non-symmetric distance table at ({a!r}, {b!r}): "
                f"{format_rational(table[key])} vs {format_rational(value)}",
                path=f"distance_table[{i}]",
            )
        table[key] = value
    for a, b in combinations(sorted(fibers), 2):
        if (a, b) not in table:
            raise InputError(f"missing distance entry for ({a!r}, {b!r})", path="distance_table")

    def fiber(x: CarrierPoint) -> BasePoint:
        try:
            return fibers[x.code]
        except KeyError:
            raise InputError(f"unknown carrier point {x.code!r}") from None

    def dist(x: CarrierPoint, x2: CarrierPoint) -> Fraction:
        if x.code == x2.code:
            return Fraction(0)
        key = (x.code, x2.code) if x.code <= x2.code else (x2.code, x.code)
        try:
            return table[key]
        except KeyError:
            raise InputError(f"unknown carrier pair ({x.code!r}, {x2.code!r})") from None

    return MetricMapping(carrier, base, fiber, dist, dist_kind)


def abs_diff_mapping(
    carrier: RationalIntervalCarrier, base: Base, fiber: Callable | None = None
) -> MetricMapping:
    """Rational interval carrier with distance |x - x'|.

    Default fiber: the base's own (constant onto the one-point base,
    identity onto the rational order base).
    """
    return MetricMapping(
        carrier,
        base,
        fiber or base.default_fiber(carrier),
        lambda x, x2: abs(x.code - x2.code),
        "abs_diff",
    )


def max_metric_mapping(carrier: RationalGridCarrier, base: Base, fiber=None) -> MetricMapping:
    """Grid carrier with the coordinatewise maximum distance. Default
    fiber: the base's own (constant onto the one-point base)."""

    def dist(x: CarrierPoint, x2: CarrierPoint) -> Fraction:
        (a, b), (c, d) = x.code, x2.code
        return max(abs(a - c), abs(b - d))

    return MetricMapping(carrier, base, fiber or base.default_fiber(carrier), dist, "max_metric")


# One distance matrix per live mapping and sample size; it depends only on
# the mapping, and goes when the mapping does.
_MATRICES: WeakKeyDictionary = WeakKeyDictionary()


@dataclass(frozen=True)
class DistanceMatrix:
    """Every distance among ``points``, each computed once.

    ``num[i][j] / den`` is d(points[i], points[j]) exactly: ``den`` is the
    least common multiple of the denominators of all realized values, and
    ``num`` holds the integer numerators over it.

    The ``abs_diff`` and ``max_metric`` kinds never call the evaluator:
    their distance is the Chebyshev distance of the point codes, computed
    on integer coordinates (``_chebyshev``) with the same ``den`` and
    ``num``, and ``failures`` is empty, since those evaluators cannot
    fail. Each ordered entry is still computed on its own, so the
    symmetry check compares two separate values.

    Every other kind goes through ``MetricMapping.distance``, in the order
    the validators report: the diagonal, then every pair i < j (forward)
    in ``combinations`` order, then d(points[j], points[i]) (back) for
    each forward pair that evaluated. An entry is None where its
    evaluation raised an ``EvaluatorError`` or was not made; ``failures``
    maps each failed (i, j) to the error's message, in evaluation order.

    Exactness: ``den`` is positive, and scaling by a positive constant
    keeps both order and sums, so for rationals a, b, c: a == b iff
    a*den == b*den, and a <= b + c iff a*den <= b*den + c*den. Every
    comparison and triangle sum made on numerators therefore decides as
    it would on the rationals themselves.
    """

    points: tuple[CarrierPoint, ...]
    index: dict[CarrierPoint, int]
    den: int
    num: list[list[int | None]]
    failures: dict[tuple[int, int], str]

    @classmethod
    def build(cls, m: MetricMapping, pts: tuple[CarrierPoint, ...]) -> DistanceMatrix:
        index = {x: i for i, x in enumerate(pts)}
        if m.dist_kind in ("abs_diff", "max_metric"):
            den, num = _chebyshev(pts, m.dist_kind == "abs_diff")
            return cls(pts, index, den, num, {})
        n = len(pts)
        values: list[list] = [[None] * n for _ in range(n)]
        failures: dict[tuple[int, int], str] = {}

        def evaluate(i: int, j: int) -> None:
            try:
                values[i][j] = m.distance(pts[i], pts[j])
            except EvaluatorError as e:
                failures[(i, j)] = str(e)

        for i in range(n):
            evaluate(i, i)
        pairs = list(combinations(range(n), 2))
        for i, j in pairs:
            evaluate(i, j)
        for i, j in pairs:
            if values[i][j] is not None:
                evaluate(j, i)
        den = lcm(*{v.denominator for row in values for v in row if v is not None})
        num = [
            [None if v is None else v.numerator * (den // v.denominator) for v in row]
            for row in values
        ]
        return cls(pts, index, den, num, failures)

    def value(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def row(self, x: CarrierPoint) -> list[int]:
        """Numerators of d(x, v) for every point v, in point order.

        Raises the recorded ``EvaluatorError`` of the row's first failed
        entry; a back entry left unevaluated raises its forward failure.
        """
        i = self.index.get(x)
        if i is None:
            raise InputError(f"point {x.code!r} is not in the carrier")
        r = self.num[i]
        if None in r:
            j = r.index(None)
            raise EvaluatorError(self.failures.get((i, j)) or self.failures[(j, i)])
        return r

    def evaluator_violation(self, i: int, j: int) -> Violation:
        return Violation(
            "evaluator", self.failures[(i, j)], (self.points[i].code, self.points[j].code)
        )


def _chebyshev(pts: tuple[CarrierPoint, ...], one_dim: bool) -> tuple[int, list[list[int]]]:
    """``den`` and ``num`` of the Chebyshev distance max_k |a_k - b_k| of
    the point codes, a Fraction each (``one_dim``) or a pair of them.

    Every coordinate is scaled once to an integer over the LCM ``L`` of
    their denominators, so each ordered entry is an integer max of
    differences, made on its own. Dividing ``L`` and every numerator by
    their gcd leaves ``den`` the LCM of the realized denominators: the
    value num/L reduces to denominator L / gcd(L, num), and the LCM of
    those is L / gcd(L, every num).
    """
    coords = [(x.code,) if one_dim else x.code for x in pts]
    scale = lcm(*(c.denominator for xs in coords for c in xs))
    ints = [[c.numerator * (scale // c.denominator) for c in xs] for xs in coords]
    if one_dim:
        num = [[abs(a - b) for [b] in ints] for [a] in ints]
    else:
        num = [[max(abs(a - c), abs(b - d)) for c, d in ints] for a, b in ints]
    g = gcd(scale, *(gcd(*row) for row in num))
    return scale // g, [[v // g for v in row] for row in num]


def distance_matrix(m: MetricMapping, budget: int | None = None) -> DistanceMatrix:
    """The distance matrix over ``m.sample_points(budget)``, built on the
    first call for that mapping and sample and reused by every later one.
    Finite carriers ignore ``budget``; countable ones need it."""
    key = None if carrier_is_finite(m.carrier) else budget
    by_sample = _MATRICES.setdefault(m, {})
    if key not in by_sample:
        pts = m.points() if key is None else m.sample_points(key)
        by_sample[key] = DistanceMatrix.build(m, pts)
    return by_sample[key]


def validate_pseudometric(m: MetricMapping, budget: int) -> list[Violation]:
    """Check zero diagonal, symmetry and the triangle inequality.

    Exhaustive on finite carriers; on countable carriers the check runs
    over the first ``budget`` enumerated points (deterministic, so reports
    are reproducible). Every check compares the integer numerators of the
    shared ``DistanceMatrix``, which is exact (see its docstring); values
    in messages print as the rationals they scale.

    Violations come in this order: identity and diagonal evaluator
    failures by point, forward evaluator failures by pair, back evaluator
    failures and symmetry breaks by pair, then triangle breaks by triple
    (i, j, k), each triple checked via j, then via i, then via k.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    dm = distance_matrix(m, budget)
    pts, num, failures = dm.points, dm.num, dm.failures
    n = len(pts)
    violations: list[Violation] = []

    for i, x in enumerate(pts):
        if (i, i) in failures:
            violations.append(dm.evaluator_violation(i, i))
        elif num[i][i] != 0:
            d = dm.value(i, i)
            violations.append(
                Violation(
                    "identity",
                    f"d({x.code!r},{x.code!r}) = {format_rational(d)}, expected 0",
                    (x.code, x.code, d),
                )
            )

    back: list[Violation] = []
    for i, j in combinations(range(n), 2):
        if (i, j) in failures:
            violations.append(dm.evaluator_violation(i, j))
        elif (j, i) in failures:
            back.append(dm.evaluator_violation(j, i))
        elif num[j][i] != num[i][j]:
            back.append(
                Violation(
                    "symmetry",
                    f"d({pts[i].code!r},{pts[j].code!r}) != d({pts[j].code!r},{pts[i].code!r})",
                    (pts[i].code, pts[j].code),
                )
            )
    violations += back

    def forward(a: int, b: int) -> str:
        return format_rational(dm.value(min(a, b), max(a, b)))

    def triangle(a: int, mid: int, b: int) -> Violation:
        return Violation(
            "triangle",
            f"d({pts[a].code!r},{pts[b].code!r}) = {forward(a, b)} "
            f"> {forward(a, mid)} + {forward(mid, b)} via {pts[mid].code!r}",
            (pts[a].code, pts[mid].code, pts[b].code),
        )

    # Forward entries only (row i past column i): a triple with a failed
    # pair is skipped.
    for i in range(n):
        ri = num[i]
        for j in range(i + 1, n):
            dij = ri[j]
            if dij is None:
                continue
            rj = num[j]
            for k in range(j + 1, n):
                dik, djk = ri[k], rj[k]
                if dik is None or djk is None:
                    continue
                if dik > dij + djk:
                    violations.append(triangle(i, j, k))
                if djk > dij + dik:
                    violations.append(triangle(j, i, k))
                if dij > dik + djk:
                    violations.append(triangle(i, k, j))
    return violations


def validate_fiberwise_metric(m: MetricMapping, budget: int) -> list[Violation]:
    """Report distinct points in one fiber at distance zero.

    Run after validate_pseudometric at the same budget; this check assumes
    the pseudometric axioms already hold, and reads the forward entries of
    the same ``DistanceMatrix``.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    dm = distance_matrix(m, budget)
    pts = dm.points
    violations: list[Violation] = []
    for i, j in combinations(range(len(pts)), 2):
        d = dm.num[i][j]
        if d is None:
            violations.append(dm.evaluator_violation(i, j))
            continue
        x, x2 = pts[i], pts[j]
        if d == 0 and m.fiber_of(x) == m.fiber_of(x2):
            violations.append(
                Violation(
                    "fiberwise",
                    f"distinct points {x.code!r} and {x2.code!r} share fiber "
                    f"{m.fiber_of(x).id!r} at distance 0",
                    (x.code, x2.code),
                )
            )
    return violations


# One fiber index per live mapping: its carrier points grouped by the id
# of their base point, in carrier order.
_FIBERS: WeakKeyDictionary = WeakKeyDictionary()


def fiber_preimage(m: MetricMapping, region: Iterable[BasePoint]) -> frozenset:
    """Carrier points whose fiber lies in ``region`` (finite carriers),
    read from the mapping's fiber index, built on the first call."""
    by_id = _FIBERS.get(m)
    if by_id is None:
        by_id = {}
        for x in m.points():
            by_id.setdefault(m.fiber_of(x).id, []).append(x)
        _FIBERS[m] = by_id
    return frozenset(x for i in {y.id for y in region} for x in by_id.get(i, ()))


def closure_radii(m: MetricMapping) -> list[Fraction]:
    """Ball radii that distinguish every ball on a finite carrier: the
    realized pairwise distances plus midpoints of consecutive values,
    positive ones only, in increasing order. Balls change only at
    realized distances; the midpoints capture the strict inequalities.

    Nothing in the package or its tests calls this any more; only
    ``benchmark/tracing.py`` still looks it up by name. The first radius
    is half the smallest positive distance (1 when every distance is
    zero), so its ball around x is x's zero class {v : d(x, v) = 0}, and
    that ball lies inside the ball of every other radius. Closures and
    limit points need no other ball, so both finite sides read the zero
    class straight from x's distance-matrix row (see _neighborhoods and
    finite_oracle._is_limit).
    """
    dm = distance_matrix(m)
    values = {0}
    for i, x in enumerate(dm.points):
        values.update(dm.row(x)[i + 1:])
    # Numerators, doubled so that midpoints stay integers.
    ordered = sorted(2 * v for v in values)
    radii = set(ordered)
    for a, b in zip(ordered, ordered[1:]):
        radii.add((a + b) // 2)
    positive = [Fraction(r, 2 * dm.den) for r in sorted(radii) if r > 0]
    # All distances zero: any positive radius realizes the one ball there is.
    return positive or [Fraction(1)]


# One neighborhood table per live mapping; it depends only on the mapping,
# and goes when the mapping does.
_NEIGHBORHOODS: WeakKeyDictionary = WeakKeyDictionary()


def _neighborhoods(m: MetricMapping) -> dict[CarrierPoint, frozenset]:
    """The minimal basic neighborhoods of every point of a finite
    instance: the point's zero class {v : d(x, v) = 0}, the zeros of its
    distance-matrix row, intersected with the preimage of each basis set
    holding its fiber. Built on the first call for ``m`` and reused by
    every later one.

    Only these decide a closure, with no assumption on the basis or the
    metric. Every ball of positive radius around x contains x's zero
    class, so each basic neighborhood ball & pre(o) contains
    zero(x) & pre(o). If the minimal ones all meet a set A, every basic
    neighborhood does; the converse is plain, since the zero class is
    itself a ball (of radius the smallest positive distance from x).
    """
    table = _NEIGHBORHOODS.get(m)
    if table is None:
        dm = distance_matrix(m)
        pts = dm.points
        preimages = {o: fiber_preimage(m, map(BasePoint, o)) for o in m.base.basis}
        table = {}
        for x in pts:
            fx = m.fiber_of(x).id
            zero = frozenset(v for v, dv in zip(pts, dm.row(x)) if dv == 0)
            table[x] = frozenset(zero & preimages[o] for o in m.base.basis if fx in o)
        _NEIGHBORHOODS[m] = table
    return table


def closure_finite(m: MetricMapping, region: Iterable[CarrierPoint]) -> frozenset:
    """Closure of a set of carrier points on a finite instance.

    A point belongs to the closure iff every basic neighborhood, a metric
    ball intersected with the preimage of a basis set containing the
    point's fiber, meets the region. The minimal basic neighborhoods of
    _neighborhoods decide this: every ball around x contains x's zero
    class, so each basic neighborhood ball & pre(o) contains the minimal
    zero(x) & pre(o), and all meet the region iff all minimal ones do.
    """
    if not m.is_finite_instance():
        raise InputError("closure_finite needs a finite carrier and a finite base")
    a = frozenset(region)
    table = _neighborhoods(m)
    for x in a:
        if x not in table:
            raise InputError(f"point {x.code!r} is not in the carrier")
    if not a:
        return frozenset()
    return frozenset(
        x for x, nbhds in table.items() if not any(n.isdisjoint(a) for n in nbhds)
    )
