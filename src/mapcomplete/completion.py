"""Points of the completed space, with certified distance evaluation.

A completion point is a tied regular sequence standing for its equivalence
class; the distance between two points is the limit of termwise distances,
and regularity turns any requested precision into a concrete evaluation
depth: evaluating at n = ceil(2/eps) lands within eps of the limit.

The carrier embeds through constant sequences (an exact isometry), the
base-point projection reads off the tying target, and limits of regular
sequences of completion points are produced by a diagonal construction
whose output is again a valid completion point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .base_topology import BasePoint, FiniteBase, OnePointBase, describe_open, format_id
from .errors import InputError
from .metric_mapping import CarrierPoint, MetricMapping
from .rationals import frac_ceil
from .tied_cauchy import RegularSeq, TiedCauchySeq, TyingWitness, const_seq


@dataclass(frozen=True, eq=False)
class CompletionPoint:
    """One element of the completed space, held as a representative.

    Two representatives with distance limit 0 over the same base point
    denote the same element; deciding that is only semi-decidable, so no
    __eq__ is defined. Compare with dstar_approx.
    """

    rep: TiedCauchySeq

    @property
    def y(self) -> BasePoint:
        return self.rep.y

    @property
    def mapping(self) -> MetricMapping:
        return self.rep.mapping


def embed(m: MetricMapping, x: CarrierPoint) -> CompletionPoint:
    """The canonical embedding: x as the class of its constant sequence.

    Distances are preserved exactly and the projection returns the fiber
    of x, so the embedding is an isometric morphism.
    """
    return CompletionPoint(const_seq(m, x))


def fstar(p: CompletionPoint) -> BasePoint:
    """Base point of a completion point; total and constant-time."""
    return p.rep.y


def dstar_approx(p: CompletionPoint, q: CompletionPoint, eps: Fraction) -> Fraction:
    """Distance between completion points, certified to within ``eps``.

    Evaluates the termwise distance at n = ceil(2/eps); regularity of both
    representatives bounds the deviation from the limit by 2/n <= eps. For
    constant representatives the result is the exact carrier distance,
    independent of eps.
    """
    if p.mapping is not q.mapping:
        raise InputError("sequences live over different metric mappings")
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("precision must be positive")
    n = max(1, frac_ceil(2 / eps))
    return p.mapping.distance(p.rep.at(n), q.rep.at(n))


def density_witness(p: CompletionPoint, eps: Fraction, basic_open) -> CarrierPoint:
    """A carrier point within ``eps`` of ``p`` whose fiber lies in the
    given basic open.

    Returns the representative's term at n = max(ceil(1/eps), tie(open));
    regularity bounds the limit distance to that term by 1/n, and the
    tying witness places its fiber inside the open.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("precision must be positive")
    if not p.mapping.base.open_contains(basic_open, p.y):
        raise InputError(
            f"{describe_open(basic_open)} is not a basic open around {format_id(p.y.id)}"
        )
    n = max(frac_ceil(1 / eps), p.rep.tie.index_for(basic_open), 1)
    return p.rep.at(n)


@dataclass(frozen=True)
class RegularCompletionSeq:
    """A sequence of completion points with the same regularity modulus,
    tied to a base point through the projected base values."""

    mapping: MetricMapping
    at_fn: Callable[[int], CompletionPoint]
    y: BasePoint
    tie: TyingWitness

    def at(self, n: int) -> CompletionPoint:
        if not isinstance(n, int) or n < 1:
            raise InputError(f"sequence index must be a positive integer, got {n!r}")
        return self.at_fn(n)


def const_completion_seq(p: CompletionPoint) -> RegularCompletionSeq:
    """The constant sequence at one completion point.

    A lifted sequence (lift_seq) holds embedded carrier points only; this
    is the one sequence whose terms can be points the carrier lacks, such
    as ``newton_sqrt``'s. Through it the paper's statement that the
    completion is complete is checked on such a point: the diagonal limit
    (limit_point) of the constant sequence at p is p.
    """
    return RegularCompletionSeq(p.mapping, lambda n: p, p.y, TyingWitness(lambda o: 1))


def lift_seq(s: TiedCauchySeq) -> RegularCompletionSeq:
    """Termwise embedding of a tied carrier sequence.

    Distances between embedded terms equal the carrier distances, so the
    regularity modulus transfers verbatim, and the projected base values
    are the original fibers, so the tying witness transfers too.
    """
    m = s.mapping
    return RegularCompletionSeq(m, lambda n: embed(m, s.at(n)), s.y, s.tie)


def _narrowing_open(base, psi: RegularCompletionSeq, n: int, y_n: BasePoint):
    """A basic open around ``y_n`` inside every basic open of the target
    that the tying witness has certified by index ``n``."""
    binding = [o for o in base.opens_around(psi.y, n) if psi.tie.index_for(o) <= n]
    for candidate in base.opens_around(y_n, n):
        if all(set(candidate) <= set(o) for o in binding):
            return candidate
    raise InputError(
        f"no basic open contains {format_id(y_n.id)} inside the intersection of "
        + " & ".join(describe_open(o) for o in binding)
        + "; basis axioms violated"
    )


def limit_point(psi: RegularCompletionSeq) -> CompletionPoint:
    """The limit of a regular sequence of completion points.

    Term k of the result is a density witness at precision 1/(4k) for the
    sequence's term 4k, taken inside a basic open that narrows into every
    neighborhood of the target certified by index 4k. The 4k schedule
    leaves regularity slack: the output terms satisfy
    d(out(j), out(k)) <= 1/(2j) + 1/(2k), and the limit satisfies
    d*(psi.at(k), result) <= 1/k. No term is kept; each call recomputes it.

    Needs a finite base or the one-point base, so that the narrowing open
    can be found among finitely many candidates.
    """
    base = psi.mapping.base
    if not isinstance(base, (FiniteBase, OnePointBase)):
        raise InputError("limit_point needs a finite base or the one-point base")

    def term(k: int) -> CarrierPoint:
        n = 4 * k
        p_n = psi.at(n)
        return density_witness(p_n, Fraction(1, n), _narrowing_open(base, psi, n, fstar(p_n)))

    def tie_index(basic_open) -> int:
        n = psi.tie.index_for(basic_open)
        return (n + 3) // 4

    rep = TiedCauchySeq(psi.mapping, RegularSeq(term), psi.y, TyingWitness(tie_index))
    return CompletionPoint(rep)
