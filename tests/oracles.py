"""Independent oracles used to freeze expected values, and a generator of
larger finite instances to run them on.

Nothing here may call the code paths it checks: the square-root oracle is
interval arithmetic on raw Fractions, the closure oracle generates the
whole finite topology, from every union of basis sets
(all_opens_finite), instead of quantifying over basic neighborhoods,
the filter and Lemma 2 oracles sweep every zero-diameter subset with
their own threshold balls instead of calling closure_finite, the limit
sets or the deciders, and the pseudometric oracle asks the evaluator for
every ordered Fraction distance, row by row, instead of calling the
validators or reading a DistanceMatrix. The basis oracle is the plain cubic scan that
validate_basis replaced: every pair of basis sets, then the whole basis
for each point they share. The Newton oracle is the Fraction recurrence
and stopping rule that the integer term evaluator replaced. The
generator oracle draws with the stdlib's randint, choice and sample,
which random_instance no longer calls, rescans every pair of basis sets
in each round, as random_instance did before its worklist, and repairs
the distances on Fractions. The enumeration oracles are
the recursive Stern pair and the Fraction formulas q / (1 + q) and
lo + (hi - lo) t that the integer enumeration replaced, and the zero-mask
oracle asks the evaluator for each distance pair by pair.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from weakref import WeakKeyDictionary

from mapcomplete.base_topology import FiniteBase, describe_open
from mapcomplete.errors import Violation
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


def newton_term_by_fractions(a: Fraction, n: int) -> Fraction:
    """Term n of newton_sqrt(a), by Fraction arithmetic throughout: iterate
    x -> x/2 + a/(2x) from (a+1)/2 and stop at the first iterate with
    |x^2 - a| <= x/n."""
    a = Fraction(a)
    x = (a + 1) / 2
    while True:
        if abs(x * x - a) <= Fraction(x, n):
            return x
        x = x / 2 + a / (2 * x)


def fusc_pair_by_recursion(n: int) -> tuple[int, int]:
    """(fusc(n), fusc(n+1)) of Stern's diatomic sequence, from the pair for
    n >> 1: (a + b, b) for odd n, (a, a + b) for even n."""
    if n == 0:
        return 0, 1
    a, b = fusc_pair_by_recursion(n >> 1)
    return (a + b, b) if n & 1 else (a, a + b)


def unit_rational_by_fractions(n: int) -> Fraction:
    """The n-th rational in (0, 1): q / (1 + q) for q the (n+1)-th
    Calkin-Wilf rational, by Fraction arithmetic."""
    q = Fraction(*fusc_pair_by_recursion(n + 1))
    return q / (1 + q)


def interval_point_by_fractions(lo: Fraction, hi: Fraction, n: int) -> Fraction:
    """The n-th point of the rational interval (lo, hi): the affine image
    lo + (hi - lo) t of the n-th rational t in (0, 1)."""
    return lo + (hi - lo) * unit_rational_by_fractions(n)


def zero_masks(m) -> list[int]:
    """For each point x_i of a finite carrier, the mask of the points v with
    d(x_i, v) = 0, each distance asked of the evaluator."""
    pts = m.points()
    return [sum(1 << j for j, v in enumerate(pts) if m.distance(x, v) == 0) for x in pts]


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


# One generated topology per live mapping.
_TOPOLOGIES: WeakKeyDictionary = WeakKeyDictionary()


def all_opens_finite(b: FiniteBase) -> frozenset:
    """Every open of the finite base: all unions of basis sets, plus the
    empty set, each in canonical sorted-tuple form. Exponential in the
    basis; the full-topology oracle is its one reader, so it lives here
    and that oracle imports no topology code from the package."""
    generators = [frozenset(o) for o in b.basis]
    known = {frozenset()} | set(generators)
    changed = True
    while changed:
        changed = False
        for o in list(known):
            for g in generators:
                u = o | g
                if u not in known:
                    known.add(u)
                    changed = True
    return frozenset(tuple(sorted(o)) for o in known)


def full_topology(m) -> frozenset:
    """Every open set of the mapping topology on a finite instance,
    generated from scratch: balls intersected with preimages of *all*
    opens of the base (not just basis sets), closed under union. Generated
    once per mapping."""
    if m not in _TOPOLOGIES:
        _TOPOLOGIES[m] = _generate_topology(m)
    return _TOPOLOGIES[m]


def _generate_topology(m) -> frozenset:
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


def _ordered_distances(m, pts) -> list[list[Fraction]]:
    """Every ordered distance among ``pts``, row by row from the
    evaluator: a value it rejects raises its EvaluatorError here."""
    return [[m.distance(x, x2) for x2 in pts] for x in pts]


def pseudometric_violations(m, budget: int) -> list[Violation]:
    """The pseudometric axioms over ``m.sample_points(budget)``, checked on
    Fractions straight from the evaluator: identity breaks by point,
    symmetry breaks by pair, then triangle breaks by triple (i, j, k) via
    j, i and k. Every ordered distance is read first, row by row."""
    pts = m.sample_points(budget)
    d = _ordered_distances(m, pts)
    violations = []
    for i, x in enumerate(pts):
        if d[i][i] != 0:
            violations.append(Violation(
                "identity", f"d({x.code!r},{x.code!r}) = {format_rational(d[i][i])}, expected 0",
                (x.code, x.code, d[i][i]),
            ))
    for i, j in combinations(range(len(pts)), 2):
        if d[j][i] != d[i][j]:
            violations.append(Violation(
                "symmetry",
                f"d({pts[i].code!r},{pts[j].code!r}) != d({pts[j].code!r},{pts[i].code!r})",
                (pts[i].code, pts[j].code),
            ))

    def dist(a: int, b: int) -> Fraction:
        return d[min(a, b)][max(a, b)]

    for i, j, k in combinations(range(len(pts)), 3):
        for a, mid, b in ((i, j, k), (j, i, k), (i, k, j)):
            d_ab, d_am, d_mb = dist(a, b), dist(a, mid), dist(mid, b)
            if d_ab <= d_am + d_mb:
                continue
            violations.append(Violation(
                "triangle",
                f"d({pts[a].code!r},{pts[b].code!r}) = {format_rational(d_ab)} "
                f"> {format_rational(d_am)} + {format_rational(d_mb)} via {pts[mid].code!r}",
                (pts[a].code, pts[mid].code, pts[b].code),
            ))
    return violations


def fiberwise_violations(m, budget: int) -> list[Violation]:
    """Zero distances between distinct points of one fiber, over the pairs
    of ``m.sample_points(budget)`` in order, after every ordered distance
    is read row by row."""
    pts = m.sample_points(budget)
    d = _ordered_distances(m, pts)
    violations = []
    for i, j in combinations(range(len(pts)), 2):
        x, x2 = pts[i], pts[j]
        if d[i][j] == 0 and m.fiber_of(x) == m.fiber_of(x2):
            violations.append(Violation(
                "fiberwise",
                f"distinct points {x.code!r} and {x2.code!r} share fiber "
                f"{m.fiber_of(x).id!r} at distance 0",
                (x.code, x2.code),
            ))
    return violations


class _SubsetSweep:
    """The nonempty zero-diameter sets of a finite instance, by size and
    then in code order, with their closures and limit sets over the
    oracle's own threshold balls.

    Level r + 1 extends each zero-diameter r-set, in order, by later points
    at distance 0 from all of it, which keeps the sweep order and skips
    only sets of positive diameter.
    """

    def __init__(self, m):
        self.m = m
        pts = sorted(m.points(), key=lambda p: str(p.code))
        idx = range(len(pts))
        zero = [[m.distance(pts[i], pts[j]) == 0 for j in idx] for i in idx]
        self.candidates = []
        level = [(i,) for i in idx]
        while level:
            self.candidates += [frozenset(pts[i] for i in c) for c in level]
            level = [c + (j,) for c in level for j in range(c[-1] + 1, len(pts))
                     if all(zero[i][j] for i in c)]
        self.pts = pts
        self.fiber = {x: m.fiber_of(x).id for x in pts}
        self.balls = {x: _oracle_balls(m, x, pts) for x in pts}

    def tied(self, y):
        """The candidates inside T_y, the points over every basis set around y."""
        opens = [o for o in self.m.base.basis if y.id in o]
        core = {x for x in self.pts if all(self.fiber[x] in o for o in opens)}
        return [a for a in self.candidates if a <= core]

    def _neighborhoods(self, x):
        # (ball, basis set) pairs of x; a basic neighborhood is the ball's
        # points whose fiber lies in the basis set.
        return [(ball, o) for ball in self.balls[x] for o in self.m.base.basis
                if self.fiber[x] in o]

    def closure(self, a: frozenset) -> set:
        return {x for x in self.pts
                if all(any(self.fiber[v] in o for v in ball & a)
                       for ball, o in self._neighborhoods(x))}

    def limits(self, a: frozenset) -> set:
        return {x for x in self.pts
                if all(a <= ball and all(self.fiber[v] in o for v in a)
                       for ball, o in self._neighborhoods(x))}


def filter_by_subset_sweep(m) -> tuple[bool, tuple | None]:
    """Completeness by the filter criterion, straight from its definition:
    for each base point y in base order, every nonempty zero-diameter set A
    inside T_y must have a closure point over y. Sets are swept by size and
    then in code order; the first failure gives the certificate (y, A).
    """
    sweep = _SubsetSweep(m)
    closures = {}
    for y in m.base.points:
        for a in sweep.tied(y):
            if a not in closures:
                closures[a] = sweep.closure(a)
            if not any(sweep.fiber[x] == y.id for x in closures[a]):
                return False, (y, a)
    return True, None


def lemma2_by_subset_sweep(m) -> tuple[bool, tuple | None]:
    """Lemma 2 straight from its statement: for each base point y in base
    order, every nonempty zero-diameter set S inside T_y must have the same
    cluster points (closure) and limit points over y. Sets are swept by
    size and then in code order; the first failure gives (y, S).
    """
    sweep = _SubsetSweep(m)
    for y in m.base.points:
        for s in sweep.tied(y):
            clusters = {x for x in sweep.closure(s) if sweep.fiber[x] == y.id}
            limits = {x for x in sweep.limits(s) if sweep.fiber[x] == y.id}
            if clusters != limits:
                return False, (y, s)
    return True, None


def basis_violations_by_scan(b) -> list[Violation]:
    """The basis axioms of a FiniteBase, in validate_basis's report order:
    uncovered points by id order, then, for each pair of basis sets in
    order, each shared point with no basis set between it and the pair's
    intersection, found by scanning the whole basis."""
    violations = []
    covered = set()
    for o in b.basis:
        covered.update(o)
    for pid in b.point_ids():
        if pid not in covered:
            violations.append(Violation("cover", f"point {pid!r} lies in no basis set", (pid,)))
    for o1, o2 in combinations(b.basis, 2):
        meet = set(o1) & set(o2)
        for pid in sorted(meet):
            if not any(pid in o3 and set(o3) <= meet for o3 in b.basis):
                violations.append(Violation(
                    "intersection",
                    f"no basis set contains {pid!r} inside "
                    f"{describe_open(o1)} & {describe_open(o2)}",
                    (pid, o1, o2),
                ))
    return violations


def random_basis_by_rescan(seed: int, max_y: int) -> list[tuple]:
    """The basis random_instance(seed, max_x, max_y) draws, for any max_x:
    the basis of random_tables_by_stdlib, which draws only the carrier
    after it."""
    return random_tables_by_stdlib(seed, 1, max_y)[2]


# The distances random_instance draws, in its order, as Fractions.
_PALETTE = (Fraction(0), Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
            Fraction(3, 2), Fraction(2))


def random_tables_by_stdlib(seed: int, max_x: int, max_y: int) -> tuple:
    """The tables of random_instance(seed, max_x, max_y), drawn with the
    stdlib's randint, choice and sample and repaired on Fractions:
    ``(codes, fibers, basis, den, num)``, where ``codes`` and ``fibers``
    list the surviving points and their base points in carrier order,
    ``basis`` is the sorted basis and ``num[i][j] / den`` the repaired
    distance, over the LCM of its denominators.

    The basis is closed under nonempty pairwise intersection by rescanning
    every pair of sets until a round adds none, then covered with
    singletons. The repair joins the points linked by zero entries into
    classes by a breadth-first search, where moves are free, takes each
    class pair's least entry and runs Floyd-Warshall over the classes.
    Each zero class then keeps one point per fiber, the one of least code.
    """
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

    n_x = rng.randint(1, max_x)
    x_ids = [f"x{i}" for i in range(n_x)]
    fiber = [rng.choice(y_ids) for _ in x_ids]
    weight = {pair: rng.choice(_PALETTE) for pair in combinations(range(n_x), 2)}

    zero_links = {i: [] for i in range(n_x)}
    for (i, j), w in weight.items():
        if w == 0:
            zero_links[i].append(j)
            zero_links[j].append(i)
    classes: list[list[int]] = []
    class_of: dict[int, int] = {}
    for start in range(n_x):
        if start in class_of:
            continue
        class_of[start] = len(classes)
        members, frontier = [start], [start]
        while frontier:
            nxt = []
            for i in frontier:
                for j in zero_links[i]:
                    if j not in class_of:
                        class_of[j] = len(classes)
                        members.append(j)
                        nxt.append(j)
            frontier = nxt
        classes.append(members)
    c = len(classes)
    dist = [[None] * c for _ in range(c)]
    for (i, j), w in weight.items():
        a, b = class_of[i], class_of[j]
        if a != b and (dist[a][b] is None or w < dist[a][b]):
            dist[a][b] = dist[b][a] = w
    for a in range(c):
        dist[a][a] = Fraction(0)
    for k in range(c):
        for a in range(c):
            for b in range(c):
                if dist[a][k] + dist[k][b] < dist[a][b]:
                    dist[a][b] = dist[a][k] + dist[k][b]

    least: dict[tuple, int] = {}
    for i in range(n_x):
        key = (class_of[i], fiber[i])
        if key not in least or x_ids[i] < x_ids[least[key]]:
            least[key] = i
    kept = sorted(least.values())
    values = [[dist[class_of[i]][class_of[j]] for j in kept] for i in kept]
    den = lcm(*(v.denominator for row in values for v in row))
    num = [[int(v * den) for v in row] for row in values]
    return [x_ids[i] for i in kept], [fiber[i] for i in kept], sorted(sets), den, num


def _random_opens(rng, ys) -> set:
    # Random sets, closed under nonempty intersection, plus singletons for
    # the points they miss.
    opens = {tuple(sorted(rng.sample(ys, rng.randint(1, len(ys))))) for _ in range(2 * len(ys))}
    while True:
        meets = {tuple(sorted(set(o1) & set(o2))) for o1, o2 in combinations(opens, 2)}
        new = {o for o in meets if o} - opens
        if not new:
            break
        opens |= new
    return opens | {(y,) for y in ys if not any(y in o for o in opens)}


def _coarse_opens(rng, ys) -> set:
    # The whole base plus disjoint blocks of at least two points: no open
    # is a singleton, and a point outside every block has the whole base
    # as its smallest open.
    rest = rng.sample(ys, len(ys))
    opens = {tuple(sorted(ys))}
    while len(rest) >= 2 and rng.random() < 0.6:
        size = rng.randint(2, len(rest))
        opens.add(tuple(sorted(rest[:size])))
        rest = rest[size:]
    return opens


def stress_instance(seed: int, n: int, n_base: int = 3, coarse: bool = False):
    """A valid finite instance with ``n`` carrier points whose zero classes
    are built directly, not by palette and repair.

    Each class sits at its own rational position on a line, distances are
    |pos - pos'|, and a class holds at most one point per fiber, so the
    pseudometric and fiberwise axioms hold by construction. Class sizes run
    from 1 to ``n_base``; codes are shuffled against the classes. The basis
    is random, closed under nonempty intersection and covering. With
    ``coarse`` it is the whole base plus disjoint blocks of two or more
    base points, so the smallest open around every y holds several base
    points, T_y spans several fibers, and a zero class can meet T_y in up
    to ``n_base`` points.
    """
    rng = random.Random(seed)
    ys = [f"y{i}" for i in range(n_base)]
    opens = (_coarse_opens if coarse else _random_opens)(rng, ys)

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
