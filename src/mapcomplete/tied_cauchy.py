"""Cauchy sequences with explicit error moduli, tied to a base point.

A sequence is *regular* when d(at(m), at(n)) <= 1/m + 1/n for every pair of
indices; the index then doubles as a convergence certificate, which is what
makes every downstream error bound a closed-form function of the evaluation
depth. A *tying witness* maps each basic neighborhood O of the target base
point to an index past which all fibers of the sequence lie in O.

Equivalence of two such sequences (same limit) is only semi-decidable, so
the API never answers it with a boolean; completion.dstar_approx gives
their limit distance within a requested eps instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .base_topology import BasePoint, OnePointBase, describe_open, format_id
from .errors import InputError, Violation, WitnessError
from .metric_mapping import CarrierPoint, MetricMapping


@dataclass(frozen=True)
class RegularSeq:
    """A sequence of carrier points indexed from 1, with the regularity
    modulus d(at(m), at(n)) <= 1/m + 1/n as its contract."""

    at_fn: Callable[[int], CarrierPoint]

    def at(self, n: int) -> CarrierPoint:
        if not isinstance(n, int) or n < 1:
            raise InputError(f"sequence index must be a positive integer, got {n!r}")
        return self.at_fn(n)


@dataclass(frozen=True)
class TyingWitness:
    """Maps a basic open O of the target point to an index N such that the
    fiber of every term from N on lies in O."""

    index_fn: Callable[[object], int]

    def index_for(self, basic_open) -> int:
        n = self.index_fn(basic_open)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise WitnessError(
                f"tying witness returned {n!r} for {describe_open(basic_open)}; "
                "expected a positive integer"
            )
        return n


@dataclass(frozen=True)
class TiedCauchySeq:
    """A regular sequence together with its tying target and witness."""

    mapping: MetricMapping
    seq: RegularSeq
    y: BasePoint
    tie: TyingWitness

    def at(self, n: int) -> CarrierPoint:
        return self.seq.at(n)


def _check_membership(m: MetricMapping, x: CarrierPoint) -> None:
    if x not in m.carrier:
        raise InputError(f"point {format_id(x.code)} is not in the carrier")


def _check_target(m: MetricMapping, y: BasePoint) -> None:
    if not m.base.contains_point(y):
        raise InputError(f"tying target {format_id(y.id)} does not belong to the base space")


def const_seq(m: MetricMapping, x: CarrierPoint, y: BasePoint | None = None) -> TiedCauchySeq:
    """The constant sequence at ``x``, tied to ``y`` (default: fiber of x).

    The witness claims index 1 for every basic open; with the default
    target that is always valid. An explicit ``y`` is accepted as a claim
    and left to check_tying to confirm or refute.
    """
    _check_membership(m, x)
    if y is None:
        y = m.fiber_of(x)
    _check_target(m, y)
    return TiedCauchySeq(m, RegularSeq(lambda n: x), y, TyingWitness(lambda o: 1))


def table_seq(
    m: MetricMapping,
    prefix: Sequence[CarrierPoint],
    tail: CarrierPoint,
    y: BasePoint | None = None,
) -> TiedCauchySeq:
    """A finite prefix followed by a constant tail.

    Regularity of such a sequence is finitely decidable, so it is checked
    exactly here: d(prefix[m], prefix[n]) <= 1/m + 1/n for indices inside
    the prefix, and d(prefix[m], tail) <= 1/m (the limit of the two-sided
    bound over the unbounded tail indices).
    """
    prefix = tuple(prefix)
    for p in prefix:
        _check_membership(m, p)
    _check_membership(m, tail)
    terms = list(prefix) + [tail]
    for i in range(len(prefix)):
        mi = i + 1
        for j in range(i + 1, len(prefix)):
            nj = j + 1
            d = m.distance(terms[i], terms[j])
            if d > Fraction(1, mi) + Fraction(1, nj):
                raise InputError(
                    f"table sequence is not regular: d(at({mi}),at({nj})) = {d} "
                    f"> 1/{mi} + 1/{nj}"
                )
        d = m.distance(terms[i], tail)
        if d > Fraction(1, mi):
            raise InputError(
                f"table sequence is not regular: d(at({mi}),tail) = {d} > 1/{mi}"
            )
    if y is None:
        y = m.fiber_of(tail)
    _check_target(m, y)

    length = len(prefix)

    def at(n: int) -> CarrierPoint:
        return prefix[n - 1] if n <= length else tail

    def tie_index(basic_open) -> int:
        if not m.base.open_contains(basic_open, m.fiber_of(tail)):
            raise WitnessError(
                f"tail fiber {format_id(m.fiber_of(tail).id)} never enters "
                f"{describe_open(basic_open)}"
            )
        n = length + 1
        for i in range(length, 0, -1):
            if m.base.open_contains(basic_open, m.fiber_of(prefix[i - 1])):
                n = i
            else:
                break
        return n

    return TiedCauchySeq(m, RegularSeq(at), y, TyingWitness(tie_index))


def newton_sqrt_seq(m: MetricMapping, a: Fraction, y: BasePoint | None = None) -> TiedCauchySeq:
    """The canonical irrational completion point: a sequence converging to
    sqrt(a) for rational a >= 1, with |at(n) - sqrt(a)| < 1/n.

    Term n iterates x -> x/2 + a/(2x) from (a+1)/2 and stops at the first
    iterate whose squared residual |x^2 - a| is at most x/n; it depends on
    n alone, and is checked against the carrier. Iterates stay inside
    [sqrt(a), (a+1)/2], and the stopping rule gives |at(n) - sqrt(a)| < 1/n,
    which implies regularity under the absolute-difference distance.

    Both steps run on integers. With a = p/q and x = u/v in lowest terms,
    the next iterate is (x^2 + a)/(2x) = (q*u^2 + p*v^2) / (2*q*u*v),
    normalised once as a Fraction. The stopping rule multiplied by
    q*v^2*n > 0 is |q*u^2 - p*v^2| * n <= q*u*v, the same test exactly.

    The witness claims index 1 for every basic open, which holds only when
    all terms share one fiber; the one-point base is the only base accepted.
    """
    a = Fraction(a)
    if a < 1:
        raise InputError("newton_sqrt needs a rational argument >= 1")
    if m.dist_kind != "abs_diff":
        raise InputError("newton_sqrt needs a rational carrier with absolute-difference distance")
    start = CarrierPoint((a + 1) / 2)
    _check_membership(m, start)
    if not isinstance(m.base, OnePointBase):
        raise InputError(
            f"newton_sqrt needs the one-point base, not {type(m.base).__name__}: "
            "its tie at index 1 for every open holds only there"
        )
    if y is None:
        y = m.fiber_of(start)
    _check_target(m, y)
    p, q = a.numerator, a.denominator

    def at(n: int) -> CarrierPoint:
        x = start.code
        while True:
            u, v = x.numerator, x.denominator
            qu2, pv2, quv = q * u * u, p * v * v, q * u * v
            if abs(qu2 - pv2) * n <= quv:
                point = CarrierPoint(x)
                _check_membership(m, point)
                return point
            x = Fraction(qu2 + pv2, 2 * quv)

    return TiedCauchySeq(m, RegularSeq(at), y, TyingWitness(lambda o: 1))


def check_regularity(s: TiedCauchySeq, depth: int) -> Violation | None:
    """Verify d(at(m), at(n)) <= 1/m + 1/n for all 1 <= m < n <= depth:
    the first violation by m, then by n, or None."""
    if depth < 2:
        raise InputError("depth must be at least 2")
    terms = [s.at(n) for n in range(1, depth + 1)]
    for i in range(depth):
        for j in range(i + 1, depth):
            mi, nj = i + 1, j + 1
            d = s.mapping.distance(terms[i], terms[j])
            if d > Fraction(1, mi) + Fraction(1, nj):
                return Violation(
                    "regularity",
                    f"d(at({mi}),at({nj})) = {d} > 1/{mi} + 1/{nj}",
                    (mi, nj, d),
                )
    return None


def check_tying(s: TiedCauchySeq, depth: int) -> Violation | None:
    """Verify the tying contract on every inspectable basic open: the
    first violation, by open as the base lists them, then by index, or
    None.

    The opens are those the base lists around the target for a check at
    ``depth`` (``opens_around``): all basis sets containing it on a finite
    base, the opens of index below ``depth`` that contain it on the
    rationals. For each open O the check covers indices tie(O) ..
    max(tie(O), depth), so every open is checked at its witness index.
    When no open qualifies, the claim is unchecked and that is reported
    as a violation naming ``depth``, not passed as vacuously true.
    """
    if depth < 1:
        raise InputError("depth must be at least 1")
    base = s.mapping.base
    _check_target(s.mapping, s.y)
    opens = base.opens_around(s.y, depth)
    if not opens:
        # Nothing to check is no evidence: on the rationals every point has
        # basic opens around it, just none among the first ``depth``.
        return Violation(
            "depth",
            f"no basic open around {format_id(s.y.id)} to check at depth {depth}",
            (depth,),
        )
    for o in opens:
        try:
            start = s.tie.index_for(o)
        except WitnessError as e:
            return Violation("witness", str(e), (describe_open(o),))
        for n in range(start, max(start, depth) + 1):
            fb = s.mapping.fiber_of(s.at(n))
            if not base.open_contains(o, fb):
                return Violation(
                    "tying",
                    f"fiber of at({n}) is {format_id(fb.id)}, outside {describe_open(o)} "
                    f"despite witness index {start}",
                    (describe_open(o), n, fb.id),
                )
    return None
