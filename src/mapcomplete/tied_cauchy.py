"""Cauchy sequences with explicit error moduli, tied to a base point.

A sequence is *regular* when d(at(m), at(n)) <= 1/m + 1/n for every pair of
indices; the index then doubles as a convergence certificate, which is what
makes every downstream error bound a closed-form function of the evaluation
depth. A *tying witness* maps each basic neighborhood O of the target base
point to an index past which all fibers of the sequence lie in O.

Equivalence of two such sequences (same limit) is only semi-decidable, so
the API exposes certified distance intervals and apartness bounds, never a
boolean equality.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .base_topology import BasePoint, FiniteBase, describe_open, open_contains
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

    def fiber_at(self, n: int) -> BasePoint:
        return self.mapping.fiber_of(self.seq.at(n))


def _check_membership(m: MetricMapping, x: CarrierPoint) -> None:
    if x not in m.carrier:
        raise InputError(f"point {x.code!r} is not in the carrier")


def _check_target(m: MetricMapping, y: BasePoint) -> None:
    if not m.base.contains_point(y):
        raise InputError(f"tying target {y.id!r} does not belong to the base space")


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
        if not open_contains(m.base, basic_open, m.fiber_of(tail)):
            raise WitnessError(
                f"tail fiber {m.fiber_of(tail).id!r} never enters "
                f"{describe_open(basic_open)}"
            )
        n = length + 1
        for i in range(length, 0, -1):
            if open_contains(m.base, basic_open, m.fiber_of(prefix[i - 1])):
                n = i
            else:
                break
        return n

    return TiedCauchySeq(m, RegularSeq(at), y, TyingWitness(tie_index))


class _NewtonSqrtTerms:
    """Term evaluator for the square-root sequence.

    Iterates x -> x/2 + a/(2x) from (a+1)/2; term n is the first iterate
    whose squared residual |x^2 - a| is at most x/n. Starting at (a+1)/2
    keeps every iterate inside [sqrt(a), (a+1)/2], and the stopping rule
    gives |at(n) - sqrt(a)| < 1/n, which implies regularity under the
    absolute-difference distance.

    The iterate list is memoized; the lock keeps concurrent evaluation
    observationally transparent.
    """

    def __init__(self, mapping: MetricMapping, a: Fraction):
        self._mapping = mapping
        self._a = a
        self._iterates = [(a + 1) / 2]
        self._lock = threading.Lock()

    def __call__(self, n: int) -> CarrierPoint:
        a = self._a
        with self._lock:
            i = 0
            while True:
                if i == len(self._iterates):
                    x = self._iterates[-1]
                    self._iterates.append(x / 2 + a / (2 * x))
                x = self._iterates[i]
                if abs(x * x - a) <= Fraction(x, n):
                    point = CarrierPoint(x)
                    _check_membership(self._mapping, point)
                    return point
                i += 1


def newton_sqrt_seq(m: MetricMapping, a: Fraction, y: BasePoint | None = None) -> TiedCauchySeq:
    """The canonical irrational completion point: a sequence converging to
    sqrt(a) for rational a >= 1, with |at(n) - sqrt(a)| < 1/n."""
    a = Fraction(a)
    if a < 1:
        raise InputError("newton_sqrt needs a rational argument >= 1")
    if m.dist_kind != "abs_diff":
        raise InputError("newton_sqrt needs a rational carrier with absolute-difference distance")
    start = CarrierPoint((a + 1) / 2)
    _check_membership(m, start)
    if y is None:
        y = m.fiber_of(start)
    _check_target(m, y)
    return TiedCauchySeq(m, RegularSeq(_NewtonSqrtTerms(m, a)), y, TyingWitness(lambda o: 1))


def check_regularity(s: TiedCauchySeq, depth: int) -> list[Violation]:
    """Verify d(at(m), at(n)) <= 1/m + 1/n for all 1 <= m < n <= depth."""
    if depth < 2:
        raise InputError("depth must be at least 2")
    terms = [s.at(n) for n in range(1, depth + 1)]
    violations = []
    for i in range(depth):
        for j in range(i + 1, depth):
            mi, nj = i + 1, j + 1
            d = s.mapping.distance(terms[i], terms[j])
            if d > Fraction(1, mi) + Fraction(1, nj):
                violations.append(
                    Violation(
                        "regularity",
                        f"d(at({mi}),at({nj})) = {d} > 1/{mi} + 1/{nj}",
                        (mi, nj, d),
                    )
                )
    return violations


def check_tying(s: TiedCauchySeq, depth: int) -> list[Violation]:
    """Verify the tying contract on every inspectable basic open.

    Finite base: all basis sets containing the target. Enumerated base:
    the basic opens of index below ``depth`` that contain the target. For
    each open O the check covers indices tie(O) .. depth.
    """
    if depth < 1:
        raise InputError("depth must be at least 1")
    base = s.mapping.base
    _check_target(s.mapping, s.y)
    if isinstance(base, FiniteBase):
        opens = base.neighborhood_basis(s.y)
    elif base.kind == "one_point":
        opens = [base.basic_open(0)]
    else:
        opens = [
            base.basic_open(k)
            for k in range(depth)
            if base.open_contains(base.basic_open(k), s.y)
        ]
    violations = []
    for o in opens:
        try:
            start = s.tie.index_for(o)
        except WitnessError as e:
            violations.append(Violation("witness", str(e), (describe_open(o),)))
            continue
        for n in range(start, depth + 1):
            fb = s.fiber_at(n)
            if not open_contains(base, o, fb):
                violations.append(
                    Violation(
                        "tying",
                        f"fiber of at({n}) is {fb.id!r}, outside {describe_open(o)} "
                        f"despite witness index {start}",
                        (describe_open(o), n, fb.id),
                    )
                )
                break
    return violations


def _require_same_mapping(s, s2) -> None:
    """Reject a pair of sequences or completion points over different
    mappings; both carry the mapping as ``.mapping``."""
    if s.mapping is not s2.mapping:
        raise InputError("sequences live over different metric mappings")


def gap_interval(s: TiedCauchySeq, s2: TiedCauchySeq, n: int) -> tuple[Fraction, Fraction]:
    """A certified interval around the limit distance of two sequences.

    Regularity pins the limit of d(at(k), at'(k)) inside
    [d_n - 2/n, d_n + 2/n] where d_n is the distance of the n-th terms;
    the lower end is clamped at zero. Width is at most 4/n.
    """
    _require_same_mapping(s, s2)
    if not isinstance(n, int) or n < 1:
        raise InputError("depth must be a positive integer")
    d = s.mapping.distance(s.at(n), s2.at(n))
    slack = Fraction(2, n)
    return max(Fraction(0), d - slack), d + slack


def apartness_witness(
    s: TiedCauchySeq, s2: TiedCauchySeq, max_depth: int
) -> Fraction | None:
    """A sound positive lower bound on the limit distance, or None.

    The depth schedule is 1, 2, 4, ... capped at ``max_depth``, and the
    best lower end of the gap intervals is returned when positive. None
    means indistinguishable at this depth; it is never a proof that the
    sequences are equivalent.
    """
    _require_same_mapping(s, s2)
    if max_depth < 1:
        raise InputError("max_depth must be at least 1")
    depths = []
    n = 1
    while n < max_depth:
        depths.append(n)
        n *= 2
    depths.append(max_depth)
    best = Fraction(0)
    for n in depths:
        lo, _ = gap_interval(s, s2, n)
        if lo > best:
            best = lo
    return best if best > 0 else None
