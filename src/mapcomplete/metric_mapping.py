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
from fractions import Fraction
from itertools import combinations
from typing import Callable, ClassVar, Iterable, Union

from .base_topology import Base, BasePoint, EnumeratedBase, FiniteBase, PointId
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

    def points(self) -> tuple[CarrierPoint, ...]:
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
        pts = self.points()
        if not 0 <= n < len(pts):
            raise InputError(f"grid has {len(pts)} points, index {n} out of range")
        return pts[n]


Carrier = Union[FiniteCarrier, RationalIntervalCarrier, RationalGridCarrier]


def carrier_is_finite(c: Carrier) -> bool:
    return c.kind in ("finite", "rational_grid")


@dataclass(frozen=True)
class MetricMapping:
    """Carrier, base, fiber map and distance evaluator, bundled.

    ``fiber`` and ``dist`` must be pure: same inputs, same outputs, no side
    effects. Values are immutable and safe to share across threads.
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
        if self.carrier.kind == "finite":
            return self.carrier.points
        if self.carrier.kind == "rational_grid":
            return self.carrier.points()
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
    fiber_table: dict[str, PointId],
    distance_table: dict[tuple[str, str], Fraction],
    dist_kind: str = "table",
) -> MetricMapping:
    """Build a finite mapping from explicit tables.

    ``fiber_table`` fixes the carrier (insertion order is kept) and the
    fiber of each point; ``distance_table`` gives one entry per unordered
    pair of distinct codes. Symmetric duplicates must agree, diagonal
    entries must be zero.
    """
    carrier = FiniteCarrier.of(list(fiber_table))
    codes = [p.code for p in carrier.points]

    if isinstance(base, FiniteBase):
        base_ids = set(base.point_ids())
    else:
        base_ids = {base.point.id} if base.kind == "one_point" else None
    fibers = {}
    for code, target in fiber_table.items():
        if base_ids is not None and target not in base_ids:
            raise InputError(f"fiber of {code!r} targets unknown base point {target!r}")
        fibers[code] = BasePoint(target)

    table: dict[tuple[str, str], Fraction] = {}
    for (a, b), value in distance_table.items():
        if a not in fibers or b not in fibers:
            missing = a if a not in fibers else b
            raise InputError(f"distance entry references unknown carrier point {missing!r}")
        value = Fraction(value)
        if value < 0:
            raise InputError(f"negative distance {value} for ({a!r}, {b!r})")
        if a == b:
            if value != 0:
                raise InputError(f"nonzero diagonal distance for {a!r}")
            continue
        key = (a, b) if a <= b else (b, a)
        if key in table and table[key] != value:
            raise InputError(f"non-symmetric distance table at ({a!r}, {b!r})")
        table[key] = value
    for a, b in combinations(sorted(codes), 2):
        if (a, b) not in table:
            raise InputError(f"missing distance entry for ({a!r}, {b!r})")

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

    Default fiber: constant onto a one-point base, identity onto the
    rational order base.
    """
    if fiber is None:
        if isinstance(base, EnumeratedBase) and base.kind == "one_point":
            target = base.point
            fiber = lambda x: target
        elif isinstance(base, EnumeratedBase) and base.kind == "rational_order":
            fiber = lambda x: BasePoint(x.code)
        else:
            raise InputError("abs_diff_mapping needs an explicit fiber for this base")
    return MetricMapping(
        carrier, base, fiber, lambda x, x2: abs(x.code - x2.code), "abs_diff"
    )


def max_metric_mapping(carrier: RationalGridCarrier, base: Base, fiber=None) -> MetricMapping:
    """Grid carrier with the coordinatewise maximum distance."""
    if fiber is None:
        if not (isinstance(base, EnumeratedBase) and base.kind == "one_point"):
            raise InputError("max_metric_mapping needs an explicit fiber for this base")
        target = base.point
        fiber = lambda x: target

    def dist(x: CarrierPoint, x2: CarrierPoint) -> Fraction:
        (a, b), (c, d) = x.code, x2.code
        return max(abs(a - c), abs(b - d))

    return MetricMapping(carrier, base, fiber, dist, "max_metric")


def _pair_distances(m: MetricMapping, pts) -> tuple[dict, list[Violation]]:
    """Evaluate all pair distances once, catching evaluator failures."""
    dists: dict[tuple[int, int], Fraction] = {}
    violations: list[Violation] = []
    for i, j in combinations(range(len(pts)), 2):
        try:
            dists[(i, j)] = m.distance(pts[i], pts[j])
        except EvaluatorError as e:
            violations.append(
                Violation("evaluator", str(e), (pts[i].code, pts[j].code))
            )
    return dists, violations


def validate_pseudometric(m: MetricMapping, budget: int) -> list[Violation]:
    """Check zero diagonal, symmetry and the triangle inequality.

    Exhaustive on finite carriers; on countable carriers the check runs
    over the first ``budget`` enumerated points (deterministic, so reports
    are reproducible).
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    pts = m.sample_points(budget)
    violations: list[Violation] = []

    for x in pts:
        try:
            d = m.distance(x, x)
        except EvaluatorError as e:
            violations.append(Violation("evaluator", str(e), (x.code, x.code)))
            continue
        if d != 0:
            violations.append(
                Violation(
                    "identity",
                    f"d({x.code!r},{x.code!r}) = {format_rational(d)}, expected 0",
                    (x.code, x.code, d),
                )
            )

    dists, evaluator_violations = _pair_distances(m, pts)
    violations.extend(evaluator_violations)

    for i, j in combinations(range(len(pts)), 2):
        if (i, j) not in dists:
            continue
        try:
            back = m.distance(pts[j], pts[i])
        except EvaluatorError as e:
            violations.append(Violation("evaluator", str(e), (pts[j].code, pts[i].code)))
            continue
        if back != dists[(i, j)]:
            violations.append(
                Violation(
                    "symmetry",
                    f"d({pts[i].code!r},{pts[j].code!r}) != d({pts[j].code!r},{pts[i].code!r})",
                    (pts[i].code, pts[j].code),
                )
            )

    def dist_of(i: int, j: int):
        if i == j:
            return Fraction(0)
        key = (i, j) if i < j else (j, i)
        return dists.get(key)

    for i, j, k in combinations(range(len(pts)), 3):
        for a, mid, b in ((i, j, k), (j, i, k), (i, k, j)):
            d_ab, d_am, d_mb = dist_of(a, b), dist_of(a, mid), dist_of(mid, b)
            if None in (d_ab, d_am, d_mb):
                continue
            if d_ab > d_am + d_mb:
                violations.append(
                    Violation(
                        "triangle",
                        f"d({pts[a].code!r},{pts[b].code!r}) = {format_rational(d_ab)} "
                        f"> {format_rational(d_am)} + {format_rational(d_mb)} "
                        f"via {pts[mid].code!r}",
                        (pts[a].code, pts[mid].code, pts[b].code),
                    )
                )
    return violations


def validate_fiberwise_metric(m: MetricMapping, budget: int) -> list[Violation]:
    """Report distinct points in one fiber at distance zero.

    Run after validate_pseudometric at the same budget; this check assumes
    the pseudometric axioms already hold.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    pts = m.sample_points(budget)
    violations: list[Violation] = []
    for x, x2 in combinations(pts, 2):
        try:
            d = m.distance(x, x2)
        except EvaluatorError as e:
            violations.append(Violation("evaluator", str(e), (x.code, x2.code)))
            continue
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


def fiber_preimage(m: MetricMapping, region: Iterable[BasePoint]) -> frozenset:
    """Carrier points whose fiber lies in ``region`` (finite carriers)."""
    ids = {y.id for y in region}
    return frozenset(x for x in m.points() if m.fiber_of(x).id in ids)


def closure_radii(m: MetricMapping) -> list[Fraction]:
    """Ball radii that distinguish every ball on a finite carrier: the
    realized pairwise distances plus midpoints of consecutive values,
    positive ones only. Balls change only at realized distances; the
    midpoints capture the strict inequalities.

    The limit side (finite_oracle._balls_around) builds its balls per
    point instead, as {v : d(x, v) <= t} over the distances t realized
    from x. Both families hold the smallest ball around x, its zero class
    {v : d(x, v) = 0}, and only their largest balls can differ. "Every
    neighborhood meets A" and "every neighborhood contains A" both hold
    iff they hold for the smallest ball, so the two families give the
    same closures and the same limit points.
    """
    pts = m.points()
    values = {Fraction(0)}
    for x, x2 in combinations(pts, 2):
        values.add(m.distance(x, x2))
    ordered = sorted(values)
    radii = set(ordered)
    for a, b in zip(ordered, ordered[1:]):
        radii.add((a + b) / 2)
    positive = sorted(r for r in radii if r > 0)
    # All distances zero: any positive radius realizes the one ball there is.
    return positive or [Fraction(1)]


def _distinct_balls(m: MetricMapping, x: CarrierPoint, pts, radii) -> list[frozenset]:
    balls = {frozenset(v for v in pts if m.distance(x, v) < r) for r in radii}
    return sorted(balls, key=len)


def closure_finite(m: MetricMapping, region: Iterable[CarrierPoint]) -> frozenset:
    """Closure of a set of carrier points on a finite instance.

    A point belongs to the closure iff every basic neighborhood, a metric
    ball intersected with the preimage of a basis set containing the
    point's fiber, meets the region.
    """
    if not m.is_finite_instance():
        raise InputError("closure_finite needs a finite carrier and a finite base")
    a = frozenset(region)
    pts = m.points()
    for x in a:
        if x not in pts:
            raise InputError(f"point {x.code!r} is not in the carrier")
    if not a:
        return frozenset()
    radii = closure_radii(m)
    preimages = {o: fiber_preimage(m, map(BasePoint, o)) for o in m.base.basis}
    out = set()
    for x in pts:
        fx = m.fiber_of(x).id
        opens = [o for o in m.base.basis if fx in o]
        balls = _distinct_balls(m, x, pts, radii)
        if all(ball & preimages[o] & a for ball in balls for o in opens):
            out.add(x)
    return frozenset(out)
