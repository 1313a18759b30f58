"""Metric mappings: a carrier set, a fiber map into a base space, and an
exact-rational distance evaluator.

The distance is a pseudometric on the whole carrier whose restriction to
each fiber is a genuine metric; validators check both, exhaustively on
finite carriers and over an enumeration prefix otherwise. For finite
instances the module also computes closures in the topology whose basic
opens are (metric ball) & (fiber preimage of a basic open of the base),
on bitmasks over the point indices (point_masks).

All distances are exact rationals. No floating point enters the core:
the certified error bounds downstream are only sound with exact base
arithmetic.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import floor, gcd, lcm
from operator import getitem
from typing import Callable, ClassVar, Iterable, Iterator, Union

from .base_topology import Base, BasePoint, FiniteBase, PointId, format_id
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
        # lo + (hi - lo) t for lo = p/q, hi = u/v and t = a/c, as one
        # Fraction built from integers.
        t = nth_unit_rational(n)
        a, c = t.numerator, t.denominator
        p, q = self.lo.numerator, self.lo.denominator
        u, v = self.hi.numerator, self.hi.denominator
        return CarrierPoint(Fraction(p * v * c + (u * q - p * v) * a, q * v * c))


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


Carrier = Union[FiniteCarrier, RationalIntervalCarrier, RationalGridCarrier]


def carrier_is_finite(c: Carrier) -> bool:
    return c.kind in ("finite", "rational_grid")


@dataclass(frozen=True, eq=False)
class MetricMapping:
    """Carrier, base, fiber map and distance evaluator, bundled.

    ``fiber`` and ``dist`` must be pure: same inputs, same outputs, no side
    effects. Values are immutable and safe to share across threads; so are
    the sequences over them, whose terms are pure functions of their index.
    Equality and hashing are by identity (``eq=False``), a cheap hash for
    a dictionary key. Each mapping keeps the matrices and the masks that
    ``distance_matrix`` and ``point_masks`` build from it.

    ``dist_kind`` names the distance. ``abs_diff`` promises that every
    code is a Fraction and ``dist`` is |x - x'|; ``max_metric`` promises
    that every code is a pair of Fractions and ``dist`` is the larger
    coordinate difference. ``table`` promises that ``dist`` is the
    ``DistanceMatrix`` that only ``_mapping_from_rows`` builds.
    ``DistanceMatrix`` computes these three without calling ``dist``, so a
    mapping whose ``dist`` breaks the promise must use ``custom``, the
    default, whose matrix calls ``distance`` on every ordered pair. A value
    that ``distance`` rejects raises its ``EvaluatorError`` out of every
    caller: the validators, the deciders and the completion.
    """

    carrier: Carrier
    base: Base
    fiber: Callable[[CarrierPoint], BasePoint]
    dist: Callable[[CarrierPoint, CarrierPoint], Fraction]
    dist_kind: str = "custom"
    _matrices: dict = field(default_factory=dict, init=False, repr=False)
    _masks: PointMasks | None = field(default=None, init=False, repr=False)

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
) -> MetricMapping:
    """Build a finite mapping from explicit tables, checking them.

    ``fiber_table`` fixes the carrier (insertion order is kept) and maps
    each code to a token naming its base point (see ``base.point``).
    ``distance_table`` is a dict from code pairs to values, or a sequence
    of ``((a, b), value)`` items, checked by the table rules of
    ``_table_rows``. An error's path is ``fiber_table.<code>``,
    ``distance_table[<i>]`` for the i-th item, or ``distance_table`` for a
    missing pair; ``parse_instance`` gives the same checks document paths.
    """
    fibers = _fiber_points(base, fiber_table, "fiber_table")
    items = distance_table.items() if isinstance(distance_table, dict) else distance_table
    return _mapping_from_rows(base, fibers, *_table_rows(fibers, items, "distance_table"))


def _table_rows(codes: Iterable[str], items, path: str) -> tuple[int, list[list[int]]]:
    """The table rules, checked once: ``(den, rows)`` with ``rows[i][j] / den``
    the distance ``items`` give the i-th and j-th of ``codes``, over the LCM
    of the reduced denominators.

    Each ``((a, b), value)`` item, in order, has known codes and an int or
    Fraction value whose reduced numerator is nonnegative, zero on the
    diagonal and equal, with the denominator, at a symmetric duplicate; then
    no pair of distinct codes is missing. An error raises at ``<path>[<k>]``
    for the k-th item, or at ``path`` for the first missing pair in sorted
    order; the path is built only then.
    """
    index = {code: i for i, code in enumerate(codes)}
    n = len(index)
    # nums[i][j] / dens[i][j] is the entry of (i, j); a zero den marks an
    # unset pair, and the diagonal stays unset.
    nums = [[0] * n for _ in range(n)]
    dens = [[0] * n for _ in range(n)]
    for k, ((a, b), value) in enumerate(items):
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            raise InputError("distance entry references unknown carrier point "
                             f"{a if i is None else b!r}", path=f"{path}[{k}]")
        if not isinstance(value, (int, Fraction)):
            raise InputError(f"distance {value!r} for ({a!r}, {b!r}) is not an int or "
                             "Fraction", path=f"{path}[{k}]")
        p, q = value.numerator, value.denominator
        if p < 0:
            raise InputError(f"negative distance {format_rational(Fraction(p, q))} for "
                             f"({a!r}, {b!r})", path=f"{path}[{k}]")
        if i == j:
            if p:
                raise InputError(f"nonzero diagonal distance {format_rational(Fraction(p, q))} "
                                 f"for {a!r}", path=f"{path}[{k}]")
            continue
        seen = dens[i][j]
        if not seen:
            nums[i][j] = nums[j][i] = p
            dens[i][j] = dens[j][i] = q
        elif seen != q or nums[i][j] != p:
            old = format_rational(Fraction(nums[i][j], seen))
            raise InputError(f"non-symmetric distance table at ({a!r}, {b!r}): {old} vs "
                             f"{format_rational(Fraction(p, q))}", path=f"{path}[{k}]")
    # Each row's diagonal is its one unset entry in a full table.
    if sum(row.count(0) for row in dens) > n:
        for a, b in combinations(sorted(index), 2):
            if not dens[index[a]][index[b]]:
                raise InputError(f"missing distance entry for ({a!r}, {b!r})", path=path)
    qs = set().union(*dens) - {0}
    den = lcm(*qs)
    if len(qs) > 1:
        nums = [[p * (den // q) if q else 0 for p, q in zip(*pq)] for pq in zip(nums, dens)]
    return den, nums


def _mapping_from_rows(
    base: Base, fibers: dict[str, BasePoint], den: int, rows: list[list[int]]
) -> MetricMapping:
    """The one constructor of every ``table`` mapping, whose ``dist`` is
    ``rows[i][j] / den`` between the i-th and j-th codes of ``fibers``, which
    maps each code, in carrier order, to its base point, already resolved.

    Tables come from ``_table_rows``, the generator and the completion; the
    rules are checked again as the matrix's ``_table_rules``, with one row
    per code, and a break raises as a bug. Numerators and ``den`` are
    divided by their gcd, which keeps that verdict, so ``den`` is the LCM
    of the realized denominators.
    """
    # Dict keys are distinct, so the carrier needs no duplicate check.
    carrier = FiniteCarrier(tuple(map(CarrierPoint, fibers)))
    dm = DistanceMatrix(carrier.points, *_reduced(den, rows))
    if len(rows) != len(fibers) or not dm._table_rules:
        raise InputError("generated distance table is not square, symmetric and "
                         "nonnegative with zero diagonal")

    def fiber(x: CarrierPoint) -> BasePoint:
        try:
            return fibers[x.code]
        except KeyError:
            raise InputError(f"unknown carrier point {x.code!r}") from None

    return MetricMapping(carrier, base, fiber, dm, "table")


def _reduced(den: int, num: list[list[int]]) -> tuple[int, list[list[int]]]:
    """``den`` and ``num`` over their gcd g: v/den reduces to denominator
    den / gcd(den, v), so den / g is the LCM of the realized denominators.

    The running gcd only falls, so the pass stops at the first row that
    brings it to 1: a table already in lowest terms, as ``_table_rows`` and
    the generator build them, costs only the rows up to that one."""
    g = den
    for row in num:
        g = gcd(g, *row)
        if g == 1:
            return den, num
    return den // g, [[v // g for v in row] for row in num]


def _fiber_points(base: Base, fiber_table: dict[str, object], path: str) -> dict[str, BasePoint]:
    """The base point each code of ``fiber_table`` names, in its order; a
    token that names no base point raises at ``<path>.<code>``."""
    fibers = {}
    for code, token in fiber_table.items():
        try:
            fibers[code] = base.point(token)
        except InputError as e:
            raise InputError(
                f"fiber of {code!r} targets {e.message}", path=f"{path}.{code}"
            ) from None
    return fibers


def abs_diff_mapping(
    carrier: RationalIntervalCarrier, base: Base, fiber: Callable
) -> MetricMapping:
    """Rational interval carrier with distance |x - x'|."""
    return MetricMapping(
        carrier,
        base,
        fiber,
        lambda x, x2: abs(x.code - x2.code),
        "abs_diff",
    )


def max_metric_mapping(carrier: RationalGridCarrier, base: Base, fiber: Callable) -> MetricMapping:
    """Grid carrier with the coordinatewise maximum distance."""

    def dist(x: CarrierPoint, x2: CarrierPoint) -> Fraction:
        (a, b), (c, d) = x.code, x2.code
        return max(abs(a - c), abs(b - d))

    return MetricMapping(carrier, base, fiber, dist, "max_metric")


@dataclass(frozen=True)
class DistanceMatrix:
    """Every distance among ``points``, each computed once.

    ``num[i][j] / den`` is d(points[i], points[j]) exactly: ``den`` is the
    least common multiple of the denominators of all realized values, and
    ``num`` holds the integer numerators over it.

    The built-in kinds never call the evaluator, and each gives the
    ``den`` and ``num`` the evaluator would. A ``table`` mapping's matrix
    is its ``dist``, the table ``_mapping_from_rows`` checked. The ``abs_diff``
    and ``max_metric`` distances are the Chebyshev distance of the point
    codes, built row by row on integer coordinates from per-axis rows of
    coordinate gaps (``_chebyshev``). Every other kind asks
    ``MetricMapping.distance`` for each ordered entry, row by row, and the
    first value it rejects raises its ``EvaluatorError``. Either way each
    ordered entry is computed on its own, so the symmetry check compares
    two separate values rather than one value read twice.

    Exactness: ``den`` is positive, and scaling by a positive constant
    keeps both order and sums, so for rationals a, b, c: a == b iff
    a*den == b*den, and a <= b + c iff a*den <= b*den + c*den. Every
    comparison and triangle sum made on numerators therefore decides as
    it would on the rationals themselves.

    Built, it also holds two facts of ``num`` alone, never of ``points``:
    ``zero[i]``, the columns where row i holds 0 as a bitmask, and
    ``_table_rules``, whether ``num`` equals its transpose (so it is
    square), has a zero diagonal and no negative entry.
    """

    points: tuple[CarrierPoint, ...]
    den: int
    num: list[list[int]]
    zero: list[int] = field(init=False, repr=False)
    _table_rules: bool = field(init=False, repr=False)

    def __post_init__(self):
        # Fields, not cached properties: a suite instance reads both. With
        # the transpose equal to the rows, the diagonal reads in range.
        num = self.num
        object.__setattr__(self, "zero", [_zero_mask(row) for row in num])
        object.__setattr__(self, "_table_rules", list(map(list, zip(*num))) == num
                           and not any(map(getitem, num, range(len(num))))
                           and min(map(min, num), default=0) >= 0)

    @cached_property
    def index(self) -> dict[CarrierPoint, int]:
        """The position of each point in ``points``, built on first use:
        the validators and ``point_masks`` read the matrix by position
        only."""
        return {x: i for i, x in enumerate(self.points)}

    @classmethod
    def build(cls, m: MetricMapping, pts: tuple[CarrierPoint, ...]) -> DistanceMatrix:
        if m.dist_kind in ("abs_diff", "max_metric"):
            return cls(pts, *_chebyshev(pts, m.dist_kind == "abs_diff"))
        distance = m.distance
        values = [[distance(x, x2) for x2 in pts] for x in pts]
        den = lcm(*{v.denominator for row in values for v in row})
        return cls(pts, den, [[v.numerator * (den // v.denominator) for v in row]
                              for row in values])

    def value(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def __call__(self, x: CarrierPoint, x2: CarrierPoint) -> Fraction:
        """d(x, x2) as a Fraction: the ``dist`` of a table mapping."""
        if x.code == x2.code:
            return Fraction(0)
        try:
            i, j = self.index[x], self.index[x2]
        except KeyError:
            raise InputError(f"unknown carrier pair ({x.code!r}, {x2.code!r})") from None
        return Fraction(self.num[i][j], self.den)


def _chebyshev(pts: tuple[CarrierPoint, ...], one_dim: bool) -> tuple[int, list[list[int]]]:
    """``den`` and ``num`` of the Chebyshev distance max_k |a_k - b_k| of
    the point codes, a Fraction each (``one_dim``) or a pair of them.

    Every coordinate is scaled once to an integer over the LCM of their
    denominators. Each axis then has one gap row per distinct value v on
    it, |v - w| for the axis value w of every point, and a point's matrix
    row is built from the gap rows of its coordinates: a copy of its one
    gap row (so no two rows share a list), or their entrywise max. Row i
    reads only point i's gap rows, so the symmetric entries (i, j) and
    (j, i) come from different gap rows and stay separately computed
    values. ``_reduced`` then leaves ``den`` the LCM of the realized
    denominators.
    """
    coords = [(x.code,) if one_dim else x.code for x in pts]
    scale = lcm(*(c.denominator for xs in coords for c in xs))
    ints = [[c.numerator * (scale // c.denominator) for c in xs] for xs in coords]
    axes = [[xs[k] for xs in ints] for k in range(1 if one_dim else 2)]
    gaps = [{v: [abs(v - w) for w in axis] for v in set(axis)} for axis in axes]
    if one_dim:
        (ga,) = gaps
        num = [ga[a][:] for [a] in ints]
    else:
        ga, gb = gaps
        num = [[x if x > y else y for x, y in zip(ga[a], gb[b])] for a, b in ints]
    return _reduced(scale, num)


def distance_matrix(m: MetricMapping, budget: int | None = None) -> DistanceMatrix:
    """The distance matrix over ``m.sample_points(budget)``, built on the
    first call for that mapping and sample and kept by ``m`` for every
    later one. Finite carriers ignore ``budget``; countable ones need it.
    A ``table`` mapping's matrix is its ``dist``, returned as it is."""
    if m.dist_kind == "table":
        return m.dist
    key = None if carrier_is_finite(m.carrier) else budget
    dm = m._matrices.get(key)
    if dm is None:
        # A countable carrier without a budget reaches m.points(), which
        # refuses it.
        pts = m.points() if key is None else m.sample_points(key)
        dm = m._matrices[key] = DistanceMatrix.build(m, pts)
    return dm


def validate_pseudometric(m: MetricMapping, budget: int) -> Violation | None:
    """Check zero diagonal, symmetry and the triangle inequality: the first
    violation in this order, or None.

    Exhaustive on finite carriers; on countable carriers the check runs
    over the first ``budget`` enumerated points (deterministic, so reports
    are reproducible). Every check compares the integer numerators of the
    shared ``DistanceMatrix``, which is exact (see its docstring); values
    in messages print as the rationals they scale.

    The order: identity breaks by point, symmetry breaks by pair, then
    triangle breaks by triple (i, j, k), each triple checked via j, then
    via i, then via k. A value the evaluator rejects raises its
    ``EvaluatorError`` from the matrix build.

    From ``_PACKED_MIN_POINTS`` points on, a matrix that passes
    ``_no_pseudometric_break`` returns None at once: that test decides
    exactly when these loops would find nothing, and they stay the only
    reporter.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    dm = distance_matrix(m, budget)
    pts, num = dm.points, dm.num
    n = len(pts)
    if n >= _PACKED_MIN_POINTS and _no_pseudometric_break(dm):
        return None

    for i, x in enumerate(pts):
        if num[i][i] != 0:
            d = dm.value(i, i)
            return Violation(
                "identity",
                f"d({x.code!r},{x.code!r}) = {format_rational(d)}, expected 0",
                (x.code, x.code, d),
            )

    for i, j in combinations(range(n), 2):
        if num[j][i] != num[i][j]:
            return Violation(
                "symmetry",
                f"d({pts[i].code!r},{pts[j].code!r}) != d({pts[j].code!r},{pts[i].code!r})",
                (pts[i].code, pts[j].code),
            )

    def forward(a: int, b: int) -> str:
        return format_rational(dm.value(min(a, b), max(a, b)))

    def triangle(a: int, mid: int, b: int) -> Violation:
        return Violation(
            "triangle",
            f"d({pts[a].code!r},{pts[b].code!r}) = {forward(a, b)} "
            f"> {forward(a, mid)} + {forward(mid, b)} via {pts[mid].code!r}",
            (pts[a].code, pts[mid].code, pts[b].code),
        )

    # Forward entries only (row i past column i).
    for i in range(n):
        ri = num[i]
        for j in range(i + 1, n):
            dij = ri[j]
            rj = num[j]
            for k in range(j + 1, n):
                dik, djk = ri[k], rj[k]
                if dik > dij + djk:
                    return triangle(i, j, k)
                if djk > dij + dik:
                    return triangle(j, i, k)
                if dij > dik + djk:
                    return triangle(i, k, j)
    return None


# The point count from which validate_pseudometric tries
# _no_pseudometric_break before its loops; that docstring gives the rule.
_PACKED_MIN_POINTS = 12
# Unsigned array item codes by item size in bytes: 1, 2, 4 and 8.
_ITEM_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _no_pseudometric_break(dm: DistanceMatrix) -> bool:
    """Whether ``validate_pseudometric``'s ordered loops would find no
    violation on ``dm``, decided without building a ``Violation``. True
    only then; False leaves the decision, and every report, to the loops.

    It is True when ``dm._table_rules`` holds (every entry nonnegative,
    the diagonal zero, ``num`` equal to its transpose) and for every pair
    i < j and every k,    with d the integer numerators (exact, see ``DistanceMatrix``),

        (*)  |d(i,k) - d(j,k)| <= d(i,j).

    Those conditions hold exactly when the loops find nothing. The
    diagonal and symmetry loops then report nothing. The triangle loop
    reads forward entries only: for each triple i < j < k it tests
    d(i,k) <= d(i,j) + d(j,k), d(j,k) <= d(i,j) + d(i,k) and
    d(i,j) <= d(i,k) + d(j,k). (*) reads whole rows, which symmetry makes
    equal to forward entries: d(a,b) = d(min, max).

    - (*) gives no break: the first two tests are (*) for the pair (i, j)
      at k, each side of the absolute value; the third is (*) for the pair
      (i, k) at j, as d(k,j) = d(j,k).
    - No break gives (*): for k outside {i, j}, the two sides of (*) are
      two of the three tests on the triple i, j, k in sorted order. For
      k = i, (*) reads |0 - d(j,i)| <= d(i,j), which holds because
      d(j,i) = d(i,j) >= 0; k = j is alike. This step, and the packing
      below, need every entry nonnegative.

    No entry can be negative: ``MetricMapping.distance`` refuses
    negatives, both table builders refuse them, and ``_chebyshev`` takes
    absolute differences. A negative entry still returns False, so the
    loops decide.

    (*) runs on packed rows. With t the largest entry, a field holds
    w >= bitlen(2t) + 1 bits: whole bytes, and 1, 2, 4 or 8 of them when
    an ``array`` packs the row. Row i is R_i = sum_k d(i,k) 2^(wk); ONES
    = sum_k 2^(wk) and GUARD = ONES 2^(w-1) mark the fields and their top
    bits. For a pair with d = d(i,j), field k of (R_j | GUARD) + d ONES
    is 2^(w-1) + d(j,k) + d < 2^w, as d(j,k) + d <= 2t < 2^(w-1): no
    carry. Taking away R_i leaves 2^(w-1) + d(j,k) + d - d(i,k) in field
    k, which lies in [0, 2^w) as d(i,k) <= t < 2^(w-1): no borrow. So its
    top bit is set iff d(i,k) <= d(j,k) + d, and the field test

        ((R_j | GUARD) + d ONES - R_i) & GUARD == GUARD

    holds iff d(i,k) - d(j,k) <= d(i,j) for every k. The mirror test,
    with i and j swapped, gives the other side of (*).

    Cut-over, a rule on the point count n alone: ``validate_pseudometric``
    calls this only from ``_PACKED_MIN_POINTS`` = 12 points on. The test
    makes n(n-1)/2 pair steps on n-field integers where the loops make
    n(n-1)(n-2)/6 triple steps, but it first pays a fixed cost for the
    transpose and the packing. On whole ``validate_pseudometric`` calls
    over passing stress tables the two tied at 12 points; below that the
    loops won (by 3 to 10 microseconds a call at 1 to 6 points, the
    suites' sizes), and above it the packed test took three quarters of
    the loops' time at 16 points and a sixth to a half of it from 32 to
    256 points. No field width
    measured made it lose: with 125-bit fields, at 512 points of a
    rational interval, the two took the same time (CHANGES.md has the
    measured tables).
    """
    if not dm._table_rules:
        return False
    num, n = dm.num, len(dm.num)
    size = ((2 * max(map(max, num), default=0)).bit_length() + 8) // 8
    if size <= 8:
        size = 1 << (size - 1).bit_length()
        code = _ITEM_CODES[size]
        rows = [int.from_bytes(array(code, row).tobytes(), sys.byteorder) for row in num]
    else:
        rows = [
            int.from_bytes(b"".join([v.to_bytes(size, "little") for v in row]), "little")
            for row in num
        ]
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * n, "little")
    guard = ones << (8 * size - 1)
    guarded = [r | guard for r in rows]
    for i in range(n):
        ri, gi, di = rows[i], guarded[i], num[i]
        for j in range(i + 1, n):
            d = di[j] * ones
            if (guarded[j] + d - ri) & (gi + d - rows[j]) & guard != guard:
                return False
    return True


def _zero_mask(row: list) -> int:
    """The columns where ``row`` holds 0, as a bitmask. ``list.count`` and
    ``list.index`` scan in C, so Python steps once per zero, not once per
    entry."""
    mask, j, zeros = 0, -1, row.count(0)
    while zeros:
        j = row.index(0, j + 1)
        mask |= 1 << j
        zeros -= 1
    return mask


def validate_fiberwise_metric(m: MetricMapping, budget: int) -> Violation | None:
    """The first pair of distinct points in one fiber at distance zero,
    or None.

    Run after validate_pseudometric at the same budget; this check assumes
    the pseudometric axioms already hold, and reads the forward entries of
    the same ``DistanceMatrix``. Only a forward entry that is zero can
    report: the bits past i of the matrix's zero mask ``zero[i]``, row by
    row, so the first violation is the first such pair as the pairs
    (i, j) sort.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    dm = distance_matrix(m, budget)
    pts = dm.points
    for i, z in enumerate(dm.zero):
        for j in bit_indices(z >> (i + 1) << (i + 1)):
            x, x2 = pts[i], pts[j]
            if m.fiber_of(x) == m.fiber_of(x2):
                return Violation(
                    "fiberwise",
                    f"distinct points {x.code!r} and {x2.code!r} share fiber "
                    f"{m.fiber_of(x).id!r} at distance 0",
                    (x.code, x2.code),
                )
    return None


def bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, eq=False)
class PointMasks:
    """The plain data of a finite instance's topology, with each set of
    points an ``int`` bitmask: bit i stands for ``points[i]``, the i-th
    point of the mapping's DistanceMatrix ``matrix``.

    ``points`` and ``zero`` are the matrix's own, shared rather than
    rebuilt: ``zero[i]`` is the zero class {v : d(x_i, v) = 0} of x_i.
    ``mask_of`` reads the matrix's index. The rest is what the base and
    the fibers add: ``order`` lists the point indices by code (as text),
    the order of every certificate; ``fiber_ids[i]`` is the id of x_i's
    base point, ``fiber[y]`` the points over base point id y, and
    ``around[y]`` the preimages of the basis sets that hold y, in basis
    order. Nothing here decides a closure or a limit; both finite sides
    read it, as they read the matrix.
    """

    matrix: DistanceMatrix
    points: tuple[CarrierPoint, ...]
    zero: list[int]
    order: tuple[int, ...]
    fiber_ids: list[PointId]
    fiber: dict[PointId, int]
    around: dict[PointId, list[int]]

    def mask_of(self, region: Iterable[CarrierPoint]) -> int:
        mask = 0
        for x in region:
            i = self.matrix.index.get(x)
            if i is None:
                raise InputError(f"point {x.code!r} is not in the carrier")
            mask |= 1 << i
        return mask

    def points_of(self, mask: int) -> frozenset:
        pts = self.points
        return frozenset(pts[i] for i in bit_indices(mask))


def require_finite_instance(m: MetricMapping) -> None:
    """The finiteness gate: raise ``InputError`` unless ``m`` has a finite
    carrier (a finite one or a grid) and a finite base. It reads neither
    the distance nor the fibers, so it costs nothing to call before any
    other check; ``point_masks`` calls it first, and the CLI's finite
    commands before their first report line."""
    if not m.is_finite_instance():
        raise InputError("this oracle needs a finite carrier and a finite base")


def point_masks(m: MetricMapping) -> PointMasks:
    """The PointMasks of a finite instance, built on the first call for
    ``m`` and kept by ``m``; their zero classes are the matrix's. The one
    gate of every finite function: a mapping that fails
    ``require_finite_instance``, whose fiber leaves its base, or with a
    base point in no basis set (an empty ``around[y]``) raises
    ``InputError``, and a value a ``custom`` evaluator rejects raises its
    ``EvaluatorError`` from ``distance_matrix``. Whatever raises, no masks
    are kept."""
    masks = m._masks
    if masks is None:
        require_finite_instance(m)
        dm = distance_matrix(m)
        pts = dm.points
        fiber_ids = [m.fiber_of(x).id for x in pts]
        fiber = {y.id: 0 for y in m.base.points}
        for i, fid in enumerate(fiber_ids):
            if fid not in fiber:
                raise InputError(
                    f"fiber of {pts[i].code!r} targets unknown base point {format_id(fid)}"
                )
            fiber[fid] |= 1 << i
        around = {y: [] for y in fiber}
        for o in m.base.basis:
            p = 0
            for y in o:
                p |= fiber[y]
            for y in o:
                around[y].append(p)
        for y, pres in around.items():
            if not pres:
                raise InputError(f"base point {format_id(y)} lies in no basis set")
        masks = PointMasks(
            dm,
            pts,
            dm.zero,
            tuple(sorted(range(len(pts)), key=lambda i: str(pts[i].code))),
            fiber_ids,
            fiber,
            around,
        )
        # Derived from the frozen mapping, so set past its __setattr__.
        object.__setattr__(m, "_masks", masks)
    return masks


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
    class as a mask, ``point_masks(m).zero`` (see _neighborhoods and
    finite_oracle._is_limit).
    """
    dm = distance_matrix(m)
    values = {0}
    for i, row in enumerate(dm.num):
        values.update(row[i + 1:])
    # Numerators, doubled so that midpoints stay integers.
    ordered = sorted(2 * v for v in values)
    radii = set(ordered)
    for a, b in zip(ordered, ordered[1:]):
        radii.add((a + b) // 2)
    positive = [Fraction(r, 2 * dm.den) for r in sorted(radii) if r > 0]
    # All distances zero: any positive radius realizes the one ball there is.
    return positive or [Fraction(1)]


def _neighborhoods(masks: PointMasks) -> list[tuple[int, ...]]:
    """The minimal basic neighborhoods of every point of a finite
    instance, as masks: for x_i, its zero class ``masks.zero[i]``,
    intersected with each preimage ``around`` its fiber, each distinct
    mask once.

    Only these decide a closure, with no assumption on the basis or the
    metric. Every ball of positive radius around x contains x's zero
    class, so each basic neighborhood ball & pre(o) contains
    zero(x) & pre(o). If the minimal ones all meet a set A, every basic
    neighborhood does; the converse is plain, since the zero class is
    itself a ball (of radius the smallest positive distance from x).
    """
    return [
        tuple({z & p for p in masks.around[fid]}) for z, fid in zip(masks.zero, masks.fiber_ids)
    ]


def _closure_mask(nbhds: list[tuple[int, ...]], a: int) -> int:
    """The closure of the points of mask ``a``, as a mask: every point
    each of whose minimal neighborhoods ``nbhds`` (from _neighborhoods)
    meets ``a``."""
    closure = 0
    for i, ns in enumerate(nbhds):
        for n in ns:
            if not n & a:
                break
        else:
            closure |= 1 << i
    return closure


def closure_finite(m: MetricMapping, region: Iterable[CarrierPoint]) -> frozenset:
    """Closure of a set of carrier points on a finite instance.

    A point belongs to the closure iff every basic neighborhood, a metric
    ball intersected with the preimage of a basis set containing the
    point's fiber, meets the region. The minimal basic neighborhoods of
    _neighborhoods decide this: every ball around x contains x's zero
    class, so each basic neighborhood ball & pre(o) contains the minimal
    zero(x) & pre(o), and all meet the region iff all minimal ones do.
    The test runs on masks (_closure_mask); only the result is turned
    back into points.
    """
    masks = point_masks(m)
    return masks.points_of(_closure_mask(_neighborhoods(masks), masks.mask_of(region)))
