"""Base spaces with explicit neighborhood structure.

Three kinds are supported: finite spaces given by an explicit basis of
opens, the one-point space, and the rationals with the order topology.
Each answers the questions the other layers ask of a base: which point a
token names (``point``), which basic opens surround a point among the
first ``depth`` (``opens_around``, the one listing; a finite base lists
them all), and whether a basic open contains a point (``open_contains``).
Tying conditions elsewhere only ever quantify over the basic opens
exposed here, so every basic open has a finite description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Union

from .errors import InputError, Violation
from .rationals import _DigitLimitError, cantor_unpair, nth_rational, parse_rational

PointId = Union[str, Fraction]


@dataclass(frozen=True)
class BasePoint:
    """A point of the base space, identified by an opaque token."""

    id: PointId


# A basic open of a finite base: the sorted tuple of member point ids.
# Canonical form makes set equality plain tuple equality.
FiniteOpen = tuple


@dataclass(frozen=True)
class RationalInterval:
    """Basic open of the rational order topology: endpoints exact, open."""

    lo: Fraction
    hi: Fraction

    def contains_id(self, pid: PointId) -> bool:
        return isinstance(pid, Fraction) and self.lo < pid < self.hi


@dataclass(frozen=True)
class FiniteBase:
    """A finite space with an explicit basis of opens."""

    points: tuple[BasePoint, ...]
    basis: tuple[FiniteOpen, ...]
    # The point ids as a set, for ``point`` and ``contains_point``.
    _id_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_id_set", frozenset(p.id for p in self.points))

    @classmethod
    def of(
        cls,
        point_ids: Iterable[PointId],
        basis_sets: Iterable[Iterable[PointId]],
    ) -> "FiniteBase":
        ids = list(point_ids)
        if len(set(ids)) != len(ids):
            raise InputError("duplicate point ids in base space")
        known = set(ids)
        # Canonical sets as dict keys: duplicates drop out, first seen first.
        canon: dict[FiniteOpen, None] = {}
        for raw in basis_sets:
            members = tuple(sorted(set(raw)))
            for pid in members:
                if pid not in known:
                    raise InputError(f"basis set references unknown point {pid!r}")
            canon[members] = None
        return cls(tuple(BasePoint(i) for i in ids), tuple(canon))

    def point_ids(self) -> tuple[PointId, ...]:
        return tuple(p.id for p in self.points)

    def point(self, token) -> BasePoint:
        y = BasePoint(token)
        if not self.contains_point(y):
            raise InputError(f"unknown base point {format_id(token)}")
        return y

    def contains_point(self, y: BasePoint) -> bool:
        try:
            return y.id in self._id_set
        except TypeError:
            # An unhashable id, such as a JSON list, names no point.
            return False

    def opens_around(self, y: BasePoint, depth: int) -> list[FiniteOpen]:
        """Every basis set around ``y``, in basis order, whatever ``depth``."""
        if not self.contains_point(y):
            raise InputError(f"unknown base point {format_id(y.id)}")
        return [o for o in self.basis if y.id in o]

    def open_contains(self, basic_open, y: BasePoint) -> bool:
        return basic_open in self.basis and y.id in basic_open


@dataclass(frozen=True)
class OnePointBase:
    """The one-point space; its only basic open is the whole space."""

    id: PointId = "pt"

    def point(self, token) -> BasePoint:
        if token != self.id:
            raise InputError(f"unknown base point {format_id(token)}")
        return BasePoint(self.id)

    def contains_point(self, y: BasePoint) -> bool:
        return y.id == self.id

    def opens_around(self, y: BasePoint, depth: int) -> list[FiniteOpen]:
        """The whole space, whatever ``depth``."""
        if not self.contains_point(y):
            raise InputError(f"point {format_id(y.id)} does not belong to this base")
        return [(self.id,)]

    def open_contains(self, basic_open, y: BasePoint) -> bool:
        return basic_open == (self.id,) and self.contains_point(y)


@dataclass(frozen=True)
class RationalOrderBase:
    """The rationals with the order topology, and an indexed stream of
    basic opens: open k is the interval of radius 1/(j+1) around the i-th
    rational, where (i, j) is the k-th Cantor pair."""

    def point(self, token) -> BasePoint:
        if isinstance(token, Fraction):
            return BasePoint(token)
        try:
            return BasePoint(parse_rational(token))
        except _DigitLimitError:
            raise
        except InputError:
            raise InputError(
                f"unknown base point {format_id(token)}; "
                "base points are exact rationals like '1/2'"
            ) from None

    def contains_point(self, y: BasePoint) -> bool:
        return isinstance(y.id, Fraction)

    def basic_open(self, k: int) -> RationalInterval:
        """The k-th basic open of the fixed enumeration."""
        if k < 0:
            raise InputError("basic-open index starts at 0")
        i, j = cantor_unpair(k)
        center = nth_rational(i)
        radius = Fraction(1, j + 1)
        return RationalInterval(center - radius, center + radius)

    def opens_around(self, y: BasePoint, depth: int) -> list[RationalInterval]:
        """The basic opens around ``y`` among the first ``depth`` of the
        enumeration, in enumeration order."""
        if not self.contains_point(y):
            raise InputError(f"point {format_id(y.id)} does not belong to this base")
        return [o for o in map(self.basic_open, range(depth)) if o.contains_id(y.id)]

    def open_contains(self, basic_open, y: BasePoint) -> bool:
        return isinstance(basic_open, RationalInterval) and basic_open.contains_id(y.id)


Base = Union[FiniteBase, OnePointBase, RationalOrderBase]


def format_id(pid) -> str:
    """A base point id quoted as an instance document writes it: 'a', '1/2'."""
    return repr(str(pid))


def describe_open(basic_open) -> str:
    if isinstance(basic_open, RationalInterval):
        return f"({basic_open.lo},{basic_open.hi})"
    return "{" + ",".join(str(i) for i in basic_open) + "}"


def validate_basis(b: FiniteBase) -> Violation | None:
    """Check the two basis axioms: the first violation in this order, or
    None when the basis is valid.

    Covering: every point lies in some basis set, checked by point.
    Refinement: whenever a point sits in the intersection of two basis
    sets, some basis set fits between the point and that intersection,
    checked by pair of basis sets, then by point. A refinement test scans
    only the basis sets that contain its point, each a frozenset built
    once. An intersection that is itself a basis set fits every point of
    it, so only the other intersections are scanned.
    """
    ids = b.point_ids()
    if len(set(ids)) != len(ids):
        raise InputError("duplicate point ids in base space")
    sets = [frozenset(o) for o in b.basis]
    known = set(sets)
    containing: dict[PointId, list[frozenset]] = {}
    for s in sets:
        for pid in s:
            containing.setdefault(pid, []).append(s)
    for pid in ids:
        if pid not in containing:
            return Violation("cover", f"point {pid!r} lies in no basis set", (pid,))
    for (o1, s1), (o2, s2) in combinations(zip(b.basis, sets), 2):
        meet = s1 & s2
        if meet in known:
            continue
        for pid in sorted(meet):
            if not any(s <= meet for s in containing[pid]):
                return Violation(
                    "intersection",
                    f"no basis set contains {pid!r} inside "
                    f"{describe_open(o1)} & {describe_open(o2)}",
                    (pid, o1, o2),
                )
    return None
