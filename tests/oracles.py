"""Independent oracles used to freeze expected values, and a generator of
larger finite instances to run them on.

Nothing here may call the code paths it checks: the square-root oracle is
interval arithmetic on raw Fractions, the closure oracle generates the
whole finite topology instead of quantifying over basic neighborhoods,
the filter oracle sweeps every zero-diameter subset with its own
threshold balls instead of calling closure_finite or the deciders, and
the pseudometric oracle evaluates every Fraction distance pair by pair
instead of calling the validators or reading a DistanceMatrix.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from mapcomplete.base_topology import FiniteBase, all_opens_finite
from mapcomplete.errors import EvaluatorError, Violation
from mapcomplete.metric_mapping import table_mapping
from mapcomplete.rationals import format_rational


def sqrt_interval(a: Fraction, steps: int = 8) -> tuple[Fraction, Fraction]:
    """An interval [lo, hi] containing sqrt(a), for rational a >= 1.

    Upper bounds refine by the quadratically convergent u -> u/2 + a/(2u)
    from (a+1)/2 >= sqrt(a); for any upper bound u, a/u is a lower bound.
    Eight steps pin sqrt(2) to far below 10**-50.
    """
    a = Fraction(a)
    assert a >= 1
    u = (a + 1) / 2
    for _ in range(steps):
        u = u / 2 + a / (2 * u)
    return a / u, u


# |sqrt(2) - 3/2| to 50 digits, frozen from sqrt_interval(2):
# 0.08578643762690495119831127579030192143032812462305...
SQRT2_GAP_TO_3_2 = Fraction(
    8578643762690495119831127579030192143032812462305, 10**50
)


def _oracle_balls(m, x, pts):
    # Closed balls by realized threshold; every open ball of positive
    # radius around x coincides with one of these.
    thresholds = sorted({m.distance(x, v) for v in pts})
    return {frozenset(v for v in pts if m.distance(x, v) <= t) for t in thresholds}


def full_topology(m) -> frozenset:
    """Every open set of the mapping topology on a finite instance,
    generated from scratch: balls intersected with preimages of *all*
    opens of the base (not just basis sets), closed under union."""
    pts = tuple(m.points())
    opens_of_base = all_opens_finite(m.base)
    preimages = {
        w: frozenset(x for x in pts if m.fiber_of(x).id in set(w))
        for w in opens_of_base
    }
    basic = {frozenset()}
    for x in pts:
        for ball in _oracle_balls(m, x, pts):
            for w in opens_of_base:
                basic.add(ball & preimages[w])
    opens = set(basic)
    changed = True
    while changed:
        changed = False
        for o1 in list(opens):
            for o2 in basic:
                union = o1 | o2
                if union not in opens:
                    opens.add(union)
                    changed = True
    return frozenset(opens)


def closure_via_full_topology(m, region) -> frozenset:
    """Closure as the smallest closed superset, from the full open family."""
    pts = frozenset(m.points())
    a = frozenset(region)
    cl = set(pts)
    for o in full_topology(m):
        closed = pts - o
        if a <= closed:
            cl &= closed
    return frozenset(cl)


def limit_via_full_topology(m, region) -> frozenset:
    """Limit points of the principal filter of ``region``, from scratch:
    every open set around the point must contain the whole region."""
    a = frozenset(region)
    opens = full_topology(m)
    out = set()
    for x in m.points():
        if all(a <= o for o in opens if x in o):
            out.add(x)
    return frozenset(out)


def pseudometric_violations(m, budget: int) -> list[Violation]:
    """The pseudometric axioms over ``m.sample_points(budget)``, checked on
    Fractions straight from the evaluator: identity and diagonal failures
    by point, forward failures by pair, back failures and symmetry breaks
    by pair, then triangle breaks by triple (i, j, k) via j, i and k."""
    pts = m.sample_points(budget)
    violations = []
    for x in pts:
        try:
            d = m.distance(x, x)
        except EvaluatorError as e:
            violations.append(Violation("evaluator", str(e), (x.code, x.code)))
            continue
        if d != 0:
            violations.append(Violation(
                "identity", f"d({x.code!r},{x.code!r}) = {format_rational(d)}, expected 0",
                (x.code, x.code, d),
            ))
    pairs = list(combinations(range(len(pts)), 2))
    dists = {}
    for i, j in pairs:
        try:
            dists[(i, j)] = m.distance(pts[i], pts[j])
        except EvaluatorError as e:
            violations.append(Violation("evaluator", str(e), (pts[i].code, pts[j].code)))
    for i, j in pairs:
        if (i, j) not in dists:
            continue
        try:
            back = m.distance(pts[j], pts[i])
        except EvaluatorError as e:
            violations.append(Violation("evaluator", str(e), (pts[j].code, pts[i].code)))
            continue
        if back != dists[(i, j)]:
            violations.append(Violation(
                "symmetry",
                f"d({pts[i].code!r},{pts[j].code!r}) != d({pts[j].code!r},{pts[i].code!r})",
                (pts[i].code, pts[j].code),
            ))

    def dist(a: int, b: int):
        return dists.get((min(a, b), max(a, b)))

    for i, j, k in combinations(range(len(pts)), 3):
        for a, mid, b in ((i, j, k), (j, i, k), (i, k, j)):
            d_ab, d_am, d_mb = dist(a, b), dist(a, mid), dist(mid, b)
            if None in (d_ab, d_am, d_mb) or d_ab <= d_am + d_mb:
                continue
            violations.append(Violation(
                "triangle",
                f"d({pts[a].code!r},{pts[b].code!r}) = {format_rational(d_ab)} "
                f"> {format_rational(d_am)} + {format_rational(d_mb)} via {pts[mid].code!r}",
                (pts[a].code, pts[mid].code, pts[b].code),
            ))
    return violations


def fiberwise_violations(m, budget: int) -> list[Violation]:
    """Evaluator failures and zero distances between distinct points of one
    fiber, over the pairs of ``m.sample_points(budget)`` in order."""
    violations = []
    for x, x2 in combinations(m.sample_points(budget), 2):
        try:
            d = m.distance(x, x2)
        except EvaluatorError as e:
            violations.append(Violation("evaluator", str(e), (x.code, x2.code)))
            continue
        if d == 0 and m.fiber_of(x) == m.fiber_of(x2):
            violations.append(Violation(
                "fiberwise",
                f"distinct points {x.code!r} and {x2.code!r} share fiber "
                f"{m.fiber_of(x).id!r} at distance 0",
                (x.code, x2.code),
            ))
    return violations


def filter_by_subset_sweep(m) -> tuple[bool, tuple | None]:
    """Completeness by the filter criterion, straight from its definition:
    for each base point y in base order, every nonempty zero-diameter set A
    inside T_y must have a closure point over y. Sets are swept by size and
    then in code order; the first failure gives the certificate (y, A).

    Level r + 1 extends each zero-diameter r-set, in order, by later points
    at distance 0 from all of it, which keeps the sweep order and skips
    only sets of positive diameter.
    """
    pts = sorted(m.points(), key=lambda p: str(p.code))
    idx = range(len(pts))
    zero = [[m.distance(pts[i], pts[j]) == 0 for j in idx] for i in idx]
    candidates = []
    level = [(i,) for i in idx]
    while level:
        candidates += level
        level = [c + (j,) for c in level for j in range(c[-1] + 1, len(pts))
                 if all(zero[i][j] for i in c)]
    fiber = {x: m.fiber_of(x).id for x in pts}
    balls = {x: _oracle_balls(m, x, pts) for x in pts}

    def closure(a: frozenset) -> set:
        return {
            x for x in pts
            if all(any(fiber[v] in o for v in ball & a)
                   for ball in balls[x] for o in m.base.basis if fiber[x] in o)
        }

    closures = {}
    for y in m.base.points:
        opens = [o for o in m.base.basis if y.id in o]
        core = {x for x in pts if all(fiber[x] in o for o in opens)}
        for c in candidates:
            a = frozenset(pts[i] for i in c)
            if not a <= core:
                continue
            if a not in closures:
                closures[a] = closure(a)
            if not any(fiber[x] == y.id for x in closures[a]):
                return False, (y, a)
    return True, None


def stress_instance(seed: int, n: int, n_base: int = 3):
    """A valid finite instance with ``n`` carrier points whose zero classes
    are built directly, not by palette and repair.

    Each class sits at its own rational position on a line, distances are
    |pos - pos'|, and a class holds at most one point per fiber, so the
    pseudometric and fiberwise axioms hold by construction. Class sizes run
    from 1 to ``n_base``; codes are shuffled against the classes. The basis
    is random, closed under nonempty intersection and covering.
    """
    rng = random.Random(seed)
    ys = [f"y{i}" for i in range(n_base)]
    opens = {tuple(sorted(rng.sample(ys, rng.randint(1, n_base)))) for _ in range(2 * n_base)}
    while True:
        meets = {tuple(sorted(set(o1) & set(o2))) for o1, o2 in combinations(opens, 2)}
        new = {o for o in meets if o} - opens
        if not new:
            break
        opens |= new
    opens |= {(y,) for y in ys if not any(y in o for o in opens)}

    slots = []
    while len(slots) < n:
        size = min(rng.randint(1, n_base), n - len(slots))
        k = len(slots) and slots[-1][0] + 1
        slots += [(k, y) for y in rng.sample(ys, size)]
    lattice = sorted({Fraction(i, q) for i in range(4 * n) for q in (1, 2, 3)})
    pos = rng.sample(lattice, slots[-1][0] + 1)
    codes = [f"x{i:02d}" for i in range(n)]
    rng.shuffle(codes)
    fibers = {code: y for code, (_, y) in zip(codes, slots)}
    where = {code: pos[k] for code, (k, _) in zip(codes, slots)}
    distances = {(a, b): abs(where[a] - where[b]) for a, b in combinations(sorted(codes), 2)}
    return table_mapping(FiniteBase.of(ys, sorted(opens)), fibers, distances)
