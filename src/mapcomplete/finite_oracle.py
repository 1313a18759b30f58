"""Exact deciders on finite instances.

Everything here is decidable by enumeration: completeness under the filter
criterion, completeness under the tied-sequence criterion, the agreement
check between the two, the cluster/limit identity for tied sets, and an
explicit finite completion.

Sets of carrier points are ``int`` bitmasks over the indices of the
mapping's DistanceMatrix points. Every function here starts at
metric_mapping.point_masks, the one finiteness gate and the one view of
the topology, built once per mapping (see PointMasks). The completeness
deciders share no decision logic: the filter side decides through
closures over the minimal basic neighborhoods of metric_mapping, the net
side through zero classes, tied cores and a limit test of its own (see
_is_limit); each intersects ``around[y]`` into T_y itself. The value of
the agreement suite rests on the two paths being independent. Points
come back as frozensets only at the public boundary: closures, zero
classes, cluster and limit sets, and certificates.

Both sides read one ball per point, its zero class: it lies in every
ball around x and is itself one, so every ball around x meets (closure)
or contains (limit) a set iff the zero class does.

On a finite carrier every filter is principal, every Cauchy sequence is
eventually inside one zero-distance class, and the small-diameter condition
forces that class structure, so all the quantifiers discharge exactly (not
heuristically) into finite enumerations. Both completeness deciders are
polynomial: closure is monotone, so the filter side checks only the
singletons {x} with x in T_y (see is_complete_filter), and the net side
checks one cycle per zero class. lemma2_check is polynomial too: it
compares the cluster and limit sets of the singletons of T_y, and the
cluster sets of its zero-distance pairs (see lemma2_check).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress
from math import gcd
from operator import not_

from .base_topology import BasePoint, FiniteBase, PointId
from .errors import InputError
from .metric_mapping import (
    CarrierPoint,
    MetricMapping,
    PointMasks,
    _closure_mask,
    _mapping_from_rows,
    _neighborhoods,
    bit_indices,
    distance_matrix,
    point_masks,
)

# The most points of a finite carrier, read from a document
# (cli_io.parse_instance) or built by finite_completion: the pseudometric
# check is cubic in them, and a completion has a point per (zero class,
# base point) pair that meets, so 16 carrier points over a 128-point base
# can ask for 2048.
MAX_POINTS = 512


@dataclass(frozen=True)
class OracleVerdict:
    """Decision plus certificate. For completeness checks the certificate
    is the witnessing (base point, tied set) on failure."""

    ok: bool
    certificate: tuple | None = None


def _components(n: int, edges, order) -> list[int]:
    """The connected components of the graph on 0 .. n-1 with the pairs
    ``edges``, by a list-based union-find with path halving: entry i
    numbers the component of i, in the order ``order`` first meets them."""
    parent = list(range(n))
    for i, j in edges:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        parent[j] = i
    label: dict[int, int] = {}
    cls = [0] * n
    for i in order:
        root = i
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        cls[i] = label.setdefault(root, len(label))
    return cls


def _zero_class_masks(masks: PointMasks) -> list[int]:
    """The zero-distance classes as masks, ordered by smallest code: the
    components of the zero entries above the diagonal, so a matrix that
    breaks the triangle inequality still gets classes."""
    n = len(masks.points)
    zero_pairs = (
        (i, i + 1 + j) for i, z in enumerate(masks.zero) for j in bit_indices(z >> (i + 1))
    )
    cls = _components(n, zero_pairs, masks.order)
    classes = [0] * (max(cls, default=-1) + 1)
    for i, k in enumerate(cls):
        classes[k] |= 1 << i
    return classes


def zero_classes(m: MetricMapping) -> tuple[frozenset, ...]:
    """Zero-distance classes of the carrier, ordered by smallest code."""
    masks = point_masks(m)
    return tuple(masks.points_of(c) for c in _zero_class_masks(masks))


def _tied_core(masks: PointMasks, y: PointId) -> int:
    """T_y as a mask: the points in every preimage ``masks.around[y]`` of a
    basic open around base point id ``y``. The net side's own."""
    core = (1 << len(masks.points)) - 1
    for pre in masks.around[y]:
        core &= pre
    return core


def _is_limit(masks: PointMasks, i: int, region: int) -> bool:
    """Whether x_i is a limit point of the principal filter of the mask
    ``region``, and so of every sequence that cycles through ``region``:
    each basic neighborhood of x_i, a ball around x_i intersected with the
    preimage of a basic open around its fiber (``masks.around``), contains
    all of ``region``.

    Every ball {v : d(x_i, v) <= t} contains the t = 0 ball, x_i's zero
    class, so this holds iff ``region`` lies in the zero class and in
    each of those preimages. point_masks refuses a point with no such
    preimage, which lemma2_check's singleton return cross-checks.
    """
    if region & ~masks.zero[i]:
        return False
    for pre in masks.around[masks.fiber_ids[i]]:
        if region & ~pre:
            return False
    return True


def _limit_set(masks: PointMasks, region: int) -> int:
    """The mask of the points whose every basic neighborhood contains the
    mask ``region`` entirely."""
    limits = 0
    for i in range(len(masks.points)):
        if _is_limit(masks, i, region):
            limits |= 1 << i
    return limits


def cluster_and_limit_sets(m: MetricMapping, region) -> tuple[frozenset, frozenset]:
    """Cluster and limit points of the principal filter of ``region``.

    Cluster points are exactly the closure of the minimal set; limit
    points are the points all of whose basic neighborhoods contain it.
    """
    masks = point_masks(m)
    a = masks.mask_of(region)
    if not a:
        raise InputError("region must be nonempty")
    clusters = _closure_mask(_neighborhoods(masks), a)
    return masks.points_of(clusters), masks.points_of(_limit_set(masks, a))


def is_complete_filter(m: MetricMapping) -> OracleVerdict:
    """Completeness by the filter criterion, decided exactly.

    On a finite carrier every filter is the up-set of a minimal set A, and
    the arbitrarily-small-diameter condition forces diam(A) = 0; the
    neighborhood-filter containment is exactly A inside T_y, the points in
    the preimage of every basic open around the target y. The instance is
    complete iff every such (y, A) has closure(A) meeting the fiber of y.

    Singletons suffice. Closure is monotone: if A fails, then for each x
    in A, closure({x}) lies inside closure(A) and misses the fiber of y
    too, and {x} is a zero-diameter subset of T_y. So for each y in base
    order the check runs over the points x of T_y in code order, and the
    certificate on failure is (y, {x}) for the first failing x. This is
    the certificate a sweep of all zero-diameter subsets of T_y, by size
    and then in code order, returns: such a sweep meets the singletons
    first, in the same order, and a failing y always has a failing
    singleton.
    """
    masks = point_masks(m)
    nbhds = _neighborhoods(masks)
    everything = (1 << len(masks.points)) - 1
    closures: dict[int, int] = {}
    for y in m.base.points:
        fiber_y = masks.fiber[y.id]
        tied = everything
        for pre in masks.around[y.id]:
            tied &= pre
        for i in masks.order:
            if not tied >> i & 1:
                continue
            if i not in closures:
                closures[i] = _closure_mask(nbhds, 1 << i)
            if not closures[i] & fiber_y:
                return OracleVerdict(False, (y, frozenset({masks.points[i]})))
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
    masks = point_masks(m)
    classes = _zero_class_masks(masks)
    for y in m.base.points:
        tied_core = _tied_core(masks, y.id)
        fiber_y = masks.fiber[y.id]
        for c in classes:
            tied_set = c & tied_core
            if tied_set and not any(_is_limit(masks, i, tied_set) for i in bit_indices(fiber_y)):
                return OracleVerdict(False, (y, masks.points_of(tied_set)))
    return OracleVerdict(True)


def lemma2_check(m: MetricMapping) -> OracleVerdict:
    """For every realizable tied Cauchy sequence, cluster points and limit
    points agree inside the target fiber.

    Realizable tied sequences correspond exactly to the nonempty
    zero-diameter subsets S of T_y (the set visited infinitely often), and
    the claim is cl(S) & F = lim(S) & F for each, F the fiber of y.
    Returns the witnessing (y, S) on failure.

    Singletons and zero-distance pairs suffice. On a valid basis the basic
    neighborhoods of a point form a filter base, so closure commutes with
    finite unions: cl(S) is the union of the cl({x}) over x in S. A point
    is a limit of S iff each of its basic neighborhoods holds every x in S,
    so lim(S) is the intersection of the lim({x}). When every singleton
    passes, write L_x = cl({x}) & F = lim({x}) & F; then S passes iff the
    union of its L_x equals their intersection, that is iff all L_x with x
    in S are equal. A zero-diameter S lies in one zero class, so every S
    passes iff every zero-distance pair has equal L_x. A sweep of all
    zero-diameter subsets of T_y, by size and then in code order, meets the
    singletons first and then the pairs in ``combinations`` order, so for
    each y in base order this check returns the certificate that sweep
    returns: (y, {x}) for the first x of T_y in code order whose cl({x})
    and lim({x}) differ on F, else (y, {x, x'}) for the first zero-distance
    pair whose cl differ on F. Each point's cl and lim are computed once,
    as masks.

    Lemma 2 holds on every valid instance, so both returns of a
    counterexample need invalid input. The pair return needs distance
    zero not to be transitive, which breaks the triangle inequality. The
    singleton return is unreachable past point_masks: with every
    ``around[y]`` nonempty, v lies in both cl({x}) and lim({x}) iff x is
    in zero(v) and in each preimage around f(v). It stays as the
    cross-check of _closure_mask against _is_limit.
    """
    masks = point_masks(m)
    pts, zero = masks.points, masks.zero
    nbhds = _neighborhoods(masks)
    clusters: dict[int, int] = {}
    limits: dict[int, int] = {}
    for y in m.base.points:
        fiber_y = masks.fiber[y.id]
        core = _tied_core(masks, y.id)
        tied = [i for i in masks.order if core >> i & 1]
        for i in tied:
            if i not in clusters:
                clusters[i] = _closure_mask(nbhds, 1 << i)
                limits[i] = _limit_set(masks, 1 << i)
            if (clusters[i] ^ limits[i]) & fiber_y:
                return OracleVerdict(False, (y, frozenset({pts[i]})))
        for i, j in combinations(tied, 2):
            if zero[i] >> j & 1 and (clusters[i] ^ clusters[j]) & fiber_y:
                return OracleVerdict(False, (y, frozenset({pts[i], pts[j]})))
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
    T_y; its fiber is y, and its distances are the numerators between
    class representatives in the DistanceMatrix of m, over the same
    ``den``, checked on those integers (_mapping_from_rows).
    Its code is ``<representative code>*<y>``, with backslash and ``*``
    escaped in both parts so that distinct pairs never share a code; each
    class and base point is escaped once.
    The original carrier embeds as x -> (class of x, fiber of x), which is
    exact, injective up to the fiberwise metric, and has dense image; the
    result is complete under both oracle criteria. A completion of more
    than MAX_POINTS points raises InputError before its table is built.
    """
    masks = point_masks(m)
    classes = _zero_class_masks(masks)
    class_of = [0] * len(masks.points)
    for k, c in enumerate(classes):
        for i in bit_indices(c):
            class_of[i] = k
    # Each class's representative is its point of smallest code.
    rep: dict[int, int] = {}
    for i in masks.order:
        rep.setdefault(class_of[i], i)

    def escape(part) -> str:
        return str(part).replace("\\", "\\\\").replace("*", "\\*")

    rep_code = [escape(masks.points[rep[k]].code) for k in range(len(classes))]
    codes: dict[tuple[int, PointId], str] = {}
    fibers: dict[str, BasePoint] = {}
    for y in m.base.points:
        core = _tied_core(masks, y.id)
        y_code = escape(y.id)
        for k, c in enumerate(classes):
            if c & core:
                code = codes[(k, y.id)] = f"{rep_code[k]}*{y_code}"
                fibers[code] = y
    if len(codes) > MAX_POINTS:
        raise InputError(f"completion has {len(codes)} points, at most {MAX_POINTS} can be built")

    dm = distance_matrix(m)
    idx = [rep[k] for k, _ in codes]
    rows = [[row[j] for j in idx] for row in (dm.num[i] for i in idx)]
    instance = _mapping_from_rows(m.base, fibers, dm.den, rows)
    # The completed carrier keeps the order of ``codes``.
    star = dict(zip(codes, instance.points()))
    embedding = {
        x: star[(class_of[i], masks.fiber_ids[i])] for i, x in enumerate(masks.points)
    }
    return FiniteCompletion(instance, embedding)


# The distances random_instance draws, as numerators over _PALETTE_DEN:
# 0, 0, 1/4, 1/2, 1, 3/2 and 2.
_PALETTE_DEN = 4
_DISTANCE_PALETTE = (0, 0, 1, 2, 4, 6, 8)


def _shortest_path_closure(n: int, weights: list[int]) -> tuple[list, list]:
    """Min-plus closure of a symmetric table of nonnegative integer
    distances on the points 0 .. n-1, given flat as ``weights``, one entry
    per pair i < j in ``combinations(range(n), 2)`` order: repairs the
    triangle inequality without ever increasing an entry.

    Returns ``(cls, d)``: the closed distance between points i and j is
    ``d[cls[i]][cls[j]]``, where ``cls[i]`` numbers the zero class of i.

    The zero entries are contracted first, with one union-find. This is
    exact: weights are nonnegative, so a path has length 0 only if every
    edge on it is 0, and the points at closed distance 0 from each other
    are the components of the zero entries; inside one, moves are free.
    Floyd-Warshall then runs on one representative per class, each class
    pair starting at its least entry. Integers keep order and sums exact
    (as in DistanceMatrix).

    With fewer than 3 classes Floyd-Warshall is skipped, as it can change
    nothing. Its step lowers d[a][b] to d[a][k] + d[k][b] when that is
    less, which never happens for k = a or k = b: on a zero diagonal the
    sum is d[a][b] itself. Nor for a = b, whose 0 no nonnegative sum
    undercuts. With 1 or 2 classes every other k is a or b.
    """
    pairs = list(combinations(range(n), 2))
    cls = _components(n, compress(pairs, map(not_, weights)), range(n))
    c = max(cls, default=-1) + 1
    if c == 1:
        return cls, [[0]]
    # Every class pair has an entry, and none exceeds the largest weight.
    top = max(weights)
    d = [[top] * c for _ in range(c)]
    for (i, j), w in zip(pairs, weights):
        a, b = cls[i], cls[j]
        if w < d[a][b]:
            d[a][b] = d[b][a] = w
    for a, da in enumerate(d):
        da[a] = 0
    if c < 3:
        return cls, d
    for k, dk in enumerate(d):
        for di in d:
            dik = di[k]
            for j, dkj in enumerate(dk):
                if dik + dkj < di[j]:
                    di[j] = dik + dkj
    return cls, d


# A FiniteBase per drawn family of basis sets on at most _SHARED_BASE_SIZE
# points, keyed by the base size and the family as masks. On n points
# there are 2^(2^n - 1) - 1 nonempty families: 1, 7 and 127 for n = 1, 2,
# 3, so this holds at most 135 bases, which the default --maxy 3 draws
# again and again. On 4 points there are 32767, and larger bases seldom
# repeat.
_BASES: dict[tuple, FiniteBase] = {}
_SHARED_BASE_SIZE = 3


# What random_instance builds from a drawn size alone, made on the first
# draw of that size: at most one entry per size.
@cache
def _base_table(n: int) -> tuple:
    """For a base of n points: its BasePoints, the bit of each, and the
    (id, bit) pairs in text order, where y10 sorts before y2."""
    ids = [f"y{i}" for i in range(n)]
    bits = [1 << i for i in range(n)]
    return tuple(map(BasePoint, ids)), bits, sorted(zip(ids, bits))


@cache
def _carrier_table(n: int) -> tuple:
    """For a carrier of n points: its codes and the indices in reverse
    text order."""
    ids = [f"x{i}" for i in range(n)]
    return ids, sorted(range(n), key=ids.__getitem__, reverse=True)


def random_instance(seed: int, max_x: int = 6, max_y: int = 3) -> MetricMapping:
    """A deterministic pseudo-random finite instance that always passes the
    validators.

    The stream: every draw is ``below(n)``, the rejection loop of
    CPython's ``Random._randbelow_with_getrandbits`` over the
    ``getrandbits`` of ``random.Random(seed)``: draw ``n.bit_length()``
    bits, again while the result is at least n. ``randint(a, b)`` is
    ``a + below(b - a + 1)``, ``choice(seq)`` is ``seq[below(len(seq))]``
    and a sample is the partial Fisher-Yates of ``Random.sample`` on a
    population of at most 21. The instances so depend only on ``seed()``
    and ``getrandbits``, not on how CPython's ``randint``, ``choice`` or
    ``sample`` are written; a test pins them to what those functions
    draw (random_tables_by_stdlib in tests/oracles.py).

    The draws, in order: the base size, the number of basis sets, each
    set as a sample of a drawn size, the carrier size, each point's
    fiber, and one palette distance per pair i < j. The basis is closed
    under nonempty pairwise intersection on bitmasks and its stragglers
    are covered with singletons; ids are put in text order only at the
    end, where ``y10`` sorts before ``y2``. Distances are integers over
    one denominator, repaired by shortest-path closure, which first
    contracts the zero entries into classes (see _shortest_path_closure).
    Zero distances inside one fiber are repaired by dropping duplicate
    points: one survivor per zero class and fiber, the one with the least
    code. The closed integer table, divided by the gcd it shares with the
    denominator, and each survivor's base point go to _mapping_from_rows,
    which checks the table in bulk, with no Fraction per entry.

    What depends on a drawn size alone (ids, base points, bits, text
    orders) is built once per size, and a drawn basis's FiniteBase is
    shared with the instances that draw it again (see _BASES); neither
    moves a draw.
    """
    if max_x < 1 or max_y < 1:
        raise InputError("max_x and max_y must be at least 1")
    getrandbits = random.Random(seed).getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    n_y = 1 + below(max_y)
    points, bits, by_text = _base_table(n_y)
    sets = set()
    for _ in range(1 + below(2 * n_y)):
        # A sample of 1 + below(n_y) ids as a mask: each pick moves the
        # pool's last unpicked bit into its place.
        pool, mask = bits[:], 0
        for last in range(n_y - 1, n_y - 2 - below(n_y), -1):
            j = below(last + 1)
            mask |= pool[j]
            pool[j] = pool[last]
        sets.add(mask)
    key = (n_y, frozenset(sets))
    base = _BASES.get(key)
    if base is None:
        # Close under nonempty pairwise intersection as a worklist: each
        # set meets every set taken before it once, and only new meets are
        # queued.
        todo, done = list(sets), []
        while todo:
            s1 = todo.pop()
            for s2 in done:
                meet = s1 & s2
                if meet and meet not in sets:
                    sets.add(meet)
                    todo.append(meet)
            done.append(s1)
        covered = 0
        for s in sets:
            covered |= s
        sets.update(b for b in bits if not covered & b)
        basis = sorted(tuple(y for y, b in by_text if s & b) for s in sets)
        base = FiniteBase(points, tuple(basis))
        if n_y <= _SHARED_BASE_SIZE:
            _BASES[key] = base

    n_x = 1 + below(max_x)
    fiber_of = [below(n_y) for _ in range(n_x)]
    palette, size = _DISTANCE_PALETTE, len(_DISTANCE_PALETTE)
    weights = [palette[below(size)] for _ in range(n_x * (n_x - 1) // 2)]
    cls, d = _shortest_path_closure(n_x, weights)
    # Every class keeps a survivor, so the rows below hold every entry of
    # d: dividing d by its gcd with the denominator leaves
    # _mapping_from_rows nothing to divide, and it copies no row.
    g = gcd(_PALETTE_DEN, *(gcd(*dc) for dc in d))
    if g > 1:
        d = [[v // g for v in dc] for dc in d]

    # Fiberwise repair: inside each zero class keep one point per fiber,
    # the one of least code. The last write of a key wins, so the points
    # go down the text order.
    x_ids, down = _carrier_table(n_x)
    survivors = sorted({(cls[i], fiber_of[i]): i for i in down}.values())

    fibers = {x_ids[i]: points[fiber_of[i]] for i in survivors}
    cols = [cls[j] for j in survivors]
    rows = [[di[c] for c in cols] for di in (d[c] for c in cols)]
    return _mapping_from_rows(base, fibers, _PALETTE_DEN // g, rows)
