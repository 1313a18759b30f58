from __future__ import annotations

import ast
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcomplete.base_topology import BasePoint, FiniteBase
from mapcomplete.cli import MAX_SUITE_Y
from mapcomplete.completion import dstar_approx, embed
from mapcomplete.errors import InputError
from mapcomplete.finite_oracle import (
    cluster_and_limit_sets,
    finite_completion,
    is_complete_filter,
    is_complete_net,
    lemma2_check,
    random_instance,
    zero_classes,
    _shortest_path_closure,
)
from mapcomplete.metric_mapping import (
    CarrierPoint,
    FiniteCarrier,
    MetricMapping,
    closure_finite,
    distance_matrix,
    table_mapping,
)
from mapcomplete.metric_mapping import validate_fiberwise_metric, validate_pseudometric
from mapcomplete.base_topology import validate_basis

from oracles import (
    closure_via_full_topology,
    filter_by_subset_sweep,
    lemma2_by_subset_sweep,
    limit_via_full_topology,
    random_basis_by_rescan,
    random_tables_by_stdlib,
    stress_instance,
)


def _codes(points) -> set[str]:
    return {p.code for p in points}


def test_cluster_and_limit_sierpinski(sierpinski, by_code):
    x_a = by_code(sierpinski, "x_a")
    clusters, limits = cluster_and_limit_sets(sierpinski, [x_a])
    assert _codes(clusters) == {"x_a", "x_b"}
    assert _codes(limits) == {"x_a", "x_b"}


def test_cluster_and_limit_discrete(sierpinski_discrete, by_code):
    x_a = by_code(sierpinski_discrete, "x_a")
    clusters, limits = cluster_and_limit_sets(sierpinski_discrete, [x_a])
    assert _codes(clusters) == {"x_a"} == _codes(limits)


def test_cluster_and_limit_whole_space():
    base = FiniteBase.of(["a", "b"], [["a", "b"]])  # indiscrete
    m = table_mapping(
        base, {"u": "a", "v": "b"}, {("u", "v"): Fraction(0)}
    )
    clusters, limits = cluster_and_limit_sets(m, m.points())
    assert _codes(clusters) == {"u", "v"}
    assert _codes(limits) == {"u", "v"}


def test_is_complete_filter_examples(sierpinski, incomplete_instance):
    assert is_complete_filter(sierpinski).ok
    verdict = is_complete_filter(incomplete_instance)
    assert not verdict.ok
    y, tied = verdict.certificate
    assert y == BasePoint("a") and _codes(tied) == {"x_b"}


def test_is_complete_filter_bijective_discrete():
    base = FiniteBase.of(["a", "b"], [["a"], ["b"]])
    m = table_mapping(
        base, {"u": "a", "v": "b"}, {("u", "v"): Fraction(1)}
    )
    assert is_complete_filter(m).ok


def test_is_complete_net_matches_filter_on_worked_instances(
    sierpinski, sierpinski_discrete, incomplete_instance
):
    for m in (sierpinski, sierpinski_discrete, incomplete_instance):
        assert is_complete_net(m).ok == is_complete_filter(m).ok
    verdict = is_complete_net(incomplete_instance)
    assert not verdict.ok
    y, tied = verdict.certificate
    assert y == BasePoint("a") and _codes(tied) == {"x_b"}


def test_one_point_base_is_complete():
    base = FiniteBase.of(["o"], [["o"]])
    m = table_mapping(
        base,
        {"u": "o", "v": "o", "w": "o"},
        {("u", "v"): Fraction(1), ("u", "w"): Fraction(2), ("v", "w"): Fraction(1)},
    )
    assert is_complete_net(m).ok and is_complete_filter(m).ok


def test_zero_classes_by_union_find(sierpinski):
    classes = zero_classes(sierpinski)
    assert len(classes) == 1 and _codes(classes[0]) == {"x_a", "x_b"}


def test_lemma2_on_worked_instances(sierpinski, sierpinski_discrete, incomplete_instance):
    for m in (sierpinski, sierpinski_discrete, incomplete_instance):
        assert lemma2_check(m).ok


def test_lemma2_vacuous_when_no_tied_sets():
    # fiber over a exists but nothing is tied to it: base {a,b} discrete,
    # a single carrier point over b. Tied sets for a must sit inside
    # f^-1({a}) which is empty.
    base = FiniteBase.of(["a", "b"], [["a"], ["b"]])
    m = table_mapping(base, {"x_b": "b"}, {})
    assert lemma2_check(m).ok


# Every public function of the finite layer, called on a mapping whose
# carrier would hold a point coded "u"; each must stop at point_masks.
_FINITE_CALLS = {
    "zero_classes": zero_classes,
    "cluster_and_limit_sets": lambda m: cluster_and_limit_sets(m, [CarrierPoint("u")]),
    "is_complete_filter": is_complete_filter,
    "is_complete_net": is_complete_net,
    "lemma2_check": lemma2_check,
    "finite_completion": finite_completion,
    "closure_finite": lambda m: closure_finite(m, [CarrierPoint("u")]),
}


@pytest.mark.parametrize("name", sorted(_FINITE_CALLS))
def test_every_finite_function_rejects_a_fiber_outside_the_base(name):
    # A library mapping can send a point to an id its base does not have;
    # documents cannot, since their fibers resolve through base.point.
    m = MetricMapping(
        FiniteCarrier.of(["u", "v"]), FiniteBase.of(["a"], [["a"]]),
        lambda x: BasePoint("a" if x.code == "u" else "zz"),
        lambda x, x2: Fraction(0 if x == x2 else 1),
    )
    assert validate_pseudometric(m, 2) == [] and validate_fiberwise_metric(m, 2) == []
    with pytest.raises(InputError, match=r"^fiber of 'v' targets unknown base point 'zz'$"):
        _FINITE_CALLS[name](m)


@pytest.mark.parametrize("name", sorted(_FINITE_CALLS))
@pytest.mark.parametrize("fixture", ["interval_mapping", "grid_mapping"])
def test_every_finite_function_gives_the_one_gate_error(request, name, fixture):
    m = request.getfixturevalue(fixture)
    with pytest.raises(InputError, match=r"^this oracle needs a finite carrier and a finite base$"):
        _FINITE_CALLS[name](m)


def test_lemma2_pair_counterexample_needs_a_triangle_break():
    # d(x0, x1) = 1 > d(x0, x2) + d(x2, x1) = 0, so distance zero is not
    # transitive: {x0, x2} has zero diameter, but cl({x0}) = {x0, x2} and
    # cl({x2}) is every point. Each singleton passes, the pair does not.
    m = table_mapping(FiniteBase.of(["a"], [["a"]]), {"x0": "a", "x1": "a", "x2": "a"},
                      {("x0", "x1"): 1, ("x0", "x2"): 0, ("x1", "x2"): 0})
    assert validate_pseudometric(m, 3)
    x0, _, x2 = m.points()
    expected = (False, (BasePoint("a"), frozenset({x0, x2})))
    assert _lemma2_outcome(m) == expected == lemma2_by_subset_sweep(m)


def test_lemma2_singleton_counterexample_needs_an_uncovered_base_point():
    # Base point a lies in no basis set, which breaks the cover axiom.
    # _neighborhoods would give x0 and x1 no neighborhood, so cl({x0})
    # would be every point, while _is_limit asks for x0's zero class, which
    # misses x1. point_masks refuses the instance before either side runs;
    # the subset-sweep oracle, which reads no neighborhood on both sides,
    # still finds Lemma 2 holding.
    m = table_mapping(FiniteBase.of(["a", "b"], [["b"]]), {"x0": "a", "x1": "a"},
                      {("x0", "x1"): 2})
    assert [v.kind for v in validate_basis(m.base)] == ["cover"]
    with pytest.raises(InputError, match=r"^base point 'a' lies in no basis set$"):
        lemma2_check(m)
    assert lemma2_by_subset_sweep(m) == (True, None)


@pytest.mark.parametrize("name", sorted(_FINITE_CALLS))
def test_every_finite_function_rejects_a_base_point_in_no_basis_set(name):
    # Over an uncovered base point the filter side would see no neighborhood
    # and call this instance COMPLETE, while the net side, asking for zero
    # classes, calls it INCOMPLETE; the gate refuses it for every function.
    m = table_mapping(FiniteBase.of(["a", "b"], [["b"]]), {"u": "a", "v": "b"},
                      {("u", "v"): 2})
    with pytest.raises(InputError, match=r"^base point 'a' lies in no basis set$"):
        _FINITE_CALLS[name](m)


def test_finite_completion_worked_example(incomplete_instance):
    comp = finite_completion(incomplete_instance)
    star = comp.instance
    assert len(star.points()) == 2
    p, q = star.points()
    assert star.distance(p, q) == 0
    assert {star.fiber_of(p).id, star.fiber_of(q).id} == {"a", "b"}
    assert is_complete_filter(star).ok
    assert not validate_pseudometric(star, 8)
    assert not validate_fiberwise_metric(star, 8)


def test_finite_completion_one_point_base_is_carrier_itself():
    base = FiniteBase.of(["o"], [["o"]])
    m = table_mapping(
        base, {"u": "o", "v": "o"}, {("u", "v"): Fraction(1)}
    )
    comp = finite_completion(m)
    assert len(comp.instance.points()) == len(m.points())
    for x, x2 in combinations(m.points(), 2):
        assert comp.instance.distance(
            comp.embedding[x], comp.embedding[x2]
        ) == m.distance(x, x2)


def test_finite_completion_embedding_image_and_counts():
    for seed in range(10):
        m = random_instance(seed)
        comp = finite_completion(m)
        image = {comp.embedding[x] for x in m.points()}
        reachable = {
            f"{min(_codes(c))}*{m.fiber_of(x).id}"
            for c in zero_classes(m)
            for x in c
        }
        assert {p.code for p in image} == reachable


def test_finite_completion_agrees_with_certified_distances():
    for seed in range(6):
        m = random_instance(seed, max_x=4)
        comp = finite_completion(m)
        star = comp.instance
        for p, q in combinations(star.points(), 2):
            table_value = star.distance(p, q)
            assert dstar_approx(embed(star, p), embed(star, q), Fraction(1, 10**6)) == table_value


def test_theorem3_on_worked_instances(sierpinski, sierpinski_discrete, incomplete_instance):
    for m in (sierpinski, sierpinski_discrete, incomplete_instance):
        assert is_complete_filter(m).ok == is_complete_net(m).ok


@pytest.mark.parametrize("max_y", [3, 12])
def test_random_instance_basis_matches_the_rescan_closure(max_y):
    for seed in range(300):
        basis = random_instance(seed, 6, max_y).base.basis
        assert basis == tuple(random_basis_by_rescan(seed, max_y)), seed


@pytest.mark.parametrize("max_x, max_y, seeds", [
    (6, 3, 2000), (10, 4, 200), (20, 6, 200), (64, 12, 200),
])
def test_random_instance_draws_the_stdlib_stream(max_x, max_y, seeds):
    # random_instance draws through getrandbits alone; the oracle draws
    # the same values with randint, choice and sample, and repairs them
    # on Fractions. (64, 12) are the suites' bounds.
    for seed in range(seeds):
        m = random_instance(seed, max_x, max_y)
        dm = distance_matrix(m)
        pts = m.points()
        codes, fibers, basis, den, num = random_tables_by_stdlib(seed, max_x, max_y)
        assert [p.code for p in pts] == codes, seed
        assert [m.fiber_of(p).id for p in pts] == fibers, seed
        assert m.base.basis == tuple(basis), seed
        assert (dm.den, dm.num) == (den, num), seed


def test_random_instance_tables_hold_every_size_in_any_order():
    # random_instance keeps what depends on a drawn size alone, and the
    # bases it drew, across calls. Sizes that come back after others, in
    # one process, must still draw what the stdlib stream draws, so a
    # table keyed more coarsely than by its size fails here.
    from mapcomplete import finite_oracle

    finite_oracle._base_table.cache_clear()
    finite_oracle._carrier_table.cache_clear()
    finite_oracle._BASES.clear()
    for max_x, max_y in [(6, 3), (64, 12), (1, 1), (10, 4), (6, 3), (64, 12)]:
        for seed in range(60):
            m = random_instance(seed, max_x, max_y)
            dm = distance_matrix(m)
            codes, fibers, basis, den, num = random_tables_by_stdlib(seed, max_x, max_y)
            assert [p.code for p in m.points()] == codes, (max_x, max_y, seed)
            assert [m.fiber_of(p).id for p in m.points()] == fibers, (max_x, max_y, seed)
            assert m.base.basis == tuple(basis), (max_x, max_y, seed)
            assert [p.id for p in m.base.points] == [f"y{i}" for i in range(len(m.base.points))]
            assert (dm.den, dm.num) == (den, num), (max_x, max_y, seed)
    # At most one entry per size, and a bounded number of shared bases.
    assert finite_oracle._base_table.cache_info().currsize <= 12
    assert finite_oracle._carrier_table.cache_info().currsize <= 64
    assert {n for n, _ in finite_oracle._BASES} <= set(range(1, finite_oracle._SHARED_BASE_SIZE + 1))


def test_suite_bases_stay_on_the_sample_pool_branch():
    # random_instance replays Random.sample as the partial Fisher-Yates of
    # its pool branch, which sample takes for every population of at most
    # 21 (its set branch starts past 21 + 4 ** ceil(log4(3k)) for k > 5).
    # A base of more than 21 points could draw other values.
    assert MAX_SUITE_Y <= 21


def test_random_instance_reproducible():
    m1, m2 = random_instance(1), random_instance(1)
    assert [p.code for p in m1.points()] == [p.code for p in m2.points()]
    assert m1.base.basis == m2.base.basis
    for x, x2 in combinations(m1.points(), 2):
        assert m1.distance(x, x2) == m2.distance(x, x2)


def test_random_instance_respects_bounds_and_validators():
    for seed in range(40):
        m = random_instance(seed, max_x=6, max_y=3)
        assert 1 <= len(m.points()) <= 6
        assert 1 <= len(m.base.points) <= 3
        assert not validate_basis(m.base)
        assert not validate_pseudometric(m, len(m.points()))
        assert not validate_fiberwise_metric(m, len(m.points()))


def _closed(n, weights) -> dict:
    # The closure's answer for every pair i < j, read through its classes;
    # it takes the weights flat, in combinations order.
    cls, d = _shortest_path_closure(n, [weights[p] for p in combinations(range(n), 2)])
    return {(i, j): d[cls[i]][cls[j]] for i, j in combinations(range(n), 2)}


def test_shortest_path_closure_repairs_without_increasing():
    raw = {(0, 1): 1, (1, 2): 1, (0, 2): 3}
    fixed = _closed(3, raw)
    assert fixed[(0, 2)] == 2
    assert all(fixed[k] <= raw[k] for k in raw)
    for a, b in combinations(range(3), 2):
        for via in range(3):
            if via in (a, b):
                continue
            key = lambda u, v: (u, v) if u <= v else (v, u)
            assert fixed[key(a, b)] <= fixed[key(a, via)] + fixed[key(via, b)]


def test_shortest_path_closure_numbers_the_zero_classes():
    # (0, 1) (0, 2) (0, 3) (1, 2) (1, 3) (2, 3)
    cls, d = _shortest_path_closure(4, [2, 0, 5, 1, 0, 7])
    assert cls == [0, 1, 0, 1]
    assert d == [[0, 1], [1, 0]]


def test_shortest_path_closure_matches_a_fraction_floyd_warshall():
    # The repair contracts zero entries and runs on integers; a Fraction
    # loop over every point is the reference. Scaled by 12, the palettes'
    # values are the integers the closure takes. With two zeros in six,
    # as in random_instance, 32 or 64 points collapse to one class; with
    # one in forty they leave many classes for the loop over classes.
    rng = random.Random(0)
    dense = (Fraction(0), Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1),
             Fraction(5, 2))
    sparse = (Fraction(0), Fraction(1, 3), *(Fraction(k, 4) for k in range(1, 39)))
    for palette, n in [(dense, n) for n in range(1, 12)] + [
        (p, n) for p in (dense, sparse) for n in (32, 64)
    ]:
        raw = {pair: rng.choice(palette) for pair in combinations(range(n), 2)}
        expected = dict(raw)
        for k in range(n):
            for i, j in combinations(range(n), 2):
                if k not in (i, j):
                    via = expected[min(i, k), max(i, k)] + expected[min(k, j), max(k, j)]
                    expected[(i, j)] = min(expected[(i, j)], via)
        scaled = {pair: int(v * 12) for pair, v in raw.items()}
        assert _closed(n, scaled) == {pair: v * 12 for pair, v in expected.items()}


def test_closure_cluster_equivalence_on_random_instances():
    # cluster points of the principal filter of A are exactly closure(A)
    for seed in range(15):
        m = random_instance(seed, max_x=5)
        pts = m.points()
        region = frozenset(pts[: max(1, len(pts) // 2)])
        clusters, _ = cluster_and_limit_sets(m, region)
        assert clusters == closure_finite(m, region)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), picks=st.sets(st.integers(0, 5), min_size=1))
def test_limit_sets_match_full_topology_oracle(seed, picks):
    m = random_instance(seed, max_x=5, max_y=3)
    pts = m.points()
    region = frozenset(pts[i % len(pts)] for i in picks)
    _, limits = cluster_and_limit_sets(m, region)
    assert limits == limit_via_full_topology(m, region)


def test_deciders_share_no_decision_logic(monkeypatch, sierpinski, incomplete_instance):
    # Theorem 3 agreement is evidence only while neither decider reaches
    # the other's decision code; plain set helpers may be shared.
    from mapcomplete import finite_oracle, metric_mapping

    def unreachable(*args, **kwargs):
        raise AssertionError("decider reached the other side's code")

    sides = {
        "filter": ("is_complete_filter", "closure_finite", "closure_radii", "_neighborhoods",
                   "_closure_mask"),
        "net": ("zero_classes", "_zero_class_masks", "_tied_core", "_is_limit", "_limit_set"),
    }
    instances = [sierpinski, incomplete_instance] + [random_instance(s) for s in range(30)]
    for decider, other in ((is_complete_filter, "net"), (is_complete_net, "filter")):
        with monkeypatch.context() as patch:
            for module in (finite_oracle, metric_mapping):
                for name in sides[other]:
                    if hasattr(module, name):
                        patch.setattr(module, name, unreachable)
            for m in instances:
                decider(m)


# What tests/oracles.py may take from the package: constructors, types and
# formatters. An oracle that called a decision or topology function would
# agree with the code it checks by construction.
_ORACLE_IMPORTS = {"FiniteBase", "describe_open", "Violation", "table_mapping",
                   "format_rational"}


def test_oracles_import_no_decision_or_topology_function():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "mapcomplete"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mapcomplete":
            imported.update(a.name for a in node.names)
    assert imported == _ORACLE_IMPORTS


def _filter_outcome(m):
    verdict = is_complete_filter(m)
    return verdict.ok, verdict.certificate


def test_filter_decider_matches_subset_sweep_on_random_instances():
    for seed in range(120):
        m = random_instance(seed, max_x=6 + seed % 5, max_y=3 + seed % 2)
        assert _filter_outcome(m) == filter_by_subset_sweep(m), seed


def test_filter_decider_matches_subset_sweep_on_stress_instances():
    # 12-16 points in zero classes of up to 3 or 4 points, sizes that
    # random_instance never reaches.
    verdicts = set()
    for seed in range(20):
        n, n_base = 12 + seed % 5, 3 + seed % 2
        m = stress_instance(seed, n, n_base)
        assert len(m.points()) == n
        assert not validate_basis(m.base)
        assert not validate_pseudometric(m, n) and not validate_fiberwise_metric(m, n)
        expected = filter_by_subset_sweep(m)
        assert _filter_outcome(m) == expected, seed
        assert is_complete_net(m).ok == expected[0], seed
        verdicts.add(expected[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
@pytest.mark.parametrize("n", [128, 256])
def test_deciders_scale_to_256_points(n, coarse):
    # Sizes where a quadratic slip shows. The four calls took at most 0.3 s
    # per instance at n = 256 on a shared 2-core Xeon host; the ceiling
    # is far above that, and far below any exponential sweep.
    m = stress_instance(1, n, 4, coarse)
    start = time.perf_counter()
    filter_side, net_side = is_complete_filter(m), is_complete_net(m)
    lemma2, completion = lemma2_check(m), finite_completion(m)
    assert time.perf_counter() - start < 5.0
    assert filter_side.ok == net_side.ok
    assert lemma2.ok
    c = completion.instance
    assert len(c.points()) >= len(zero_classes(m))
    assert is_complete_filter(c).ok and is_complete_net(c).ok
    assert distance_matrix(c) is c.dist


def test_closure_table_is_built_once_per_mapping(monkeypatch):
    # Every build of the point masks constructs one PointMasks; masks
    # rebuilt on each closure would be constructed each time.
    from mapcomplete import metric_mapping

    builds = []

    class Recording(metric_mapping.PointMasks):
        def __init__(self, matrix, *rest):
            builds.append(matrix)
            super().__init__(matrix, *rest)

    monkeypatch.setattr(metric_mapping, "PointMasks", Recording)
    m = stress_instance(3, 14)
    is_complete_filter(m)
    is_complete_net(m)
    lemma2_check(m)
    cluster_and_limit_sets(m, m.points()[:3])
    assert len(builds) == 1 and builds[0] is distance_matrix(m)


def _lemma2_outcome(m):
    verdict = lemma2_check(m)
    return verdict.ok, verdict.certificate


def _widest_tied_class(m) -> int:
    # max |C & T_y| over zero classes C and base points y, from the tables.
    pts = m.points()
    width = 0
    for y in m.base.points:
        opens = [o for o in m.base.basis if y.id in o]
        core = [x for x in pts if all(m.fiber_of(x).id in o for o in opens)]
        for x in core:
            width = max(width, sum(m.distance(x, v) == 0 for v in core))
    return width


def test_lemma2_matches_subset_sweep_on_random_instances():
    for seed in range(120):
        m = random_instance(seed, max_x=6 + seed % 5, max_y=3 + seed % 2)
        assert _lemma2_outcome(m) == lemma2_by_subset_sweep(m), seed


def test_lemma2_matches_subset_sweep_on_coarse_stress_instances():
    # Every open holds several base points, so a zero class meets T_y in
    # up to n_base points and the sweep reaches sets past size 2.
    widths = []
    for seed in range(20):
        n, n_base = 12 + seed % 5, 3 + seed % 2
        m = stress_instance(seed, n, n_base, coarse=True)
        assert len(m.points()) == n
        assert not validate_basis(m.base)
        assert not validate_pseudometric(m, n) and not validate_fiberwise_metric(m, n)
        assert _lemma2_outcome(m) == lemma2_by_subset_sweep(m), seed
        widths.append(_widest_tied_class(m))
    assert max(widths) >= 3


def test_lemma2_singleton_sets_match_full_topology():
    # lemma2_check decides from the cluster and limit sets of singletons.
    instances = [random_instance(s, max_x=5) for s in range(10)]
    instances += [stress_instance(s, 10, 3 + s % 2, coarse=True) for s in range(4)]
    for m in instances:
        for x in m.points():
            assert cluster_and_limit_sets(m, {x}) == (
                closure_via_full_topology(m, {x}), limit_via_full_topology(m, {x})
            )


def _check_small_regions_against_full_topology(coarse: bool):
    # 8-12 points, past random_instance's sizes: the topology is generated
    # once per instance, and every region of one or two points is checked.
    grown = limited = 0
    for n in range(8, 13):
        for seed in range(4):
            m = stress_instance(seed, n, 3, coarse=coarse)
            pts = m.points()
            for region in [{x} for x in pts] + [set(pair) for pair in combinations(pts, 2)]:
                clusters = closure_via_full_topology(m, region)
                limits = limit_via_full_topology(m, region)
                assert closure_finite(m, region) == clusters, (n, seed, region)
                assert cluster_and_limit_sets(m, region) == (clusters, limits), (n, seed, region)
                grown += clusters > region
                limited += bool(limits)
    assert grown and limited


def test_closure_and_limit_sets_match_full_topology_on_coarse_instances():
    _check_small_regions_against_full_topology(coarse=True)


def test_closure_and_limit_sets_match_full_topology_on_fine_instances():
    # A fine base's opens are random sets closed under intersection, often
    # singletons, so here the base preimages cut the neighborhoods hardest:
    # a closure or limit test that dropped them would fail on this check.
    _check_small_regions_against_full_topology(coarse=False)


@pytest.mark.parametrize("seed", [0, 3])
def test_lemma2_decides_40_coarse_points(monkeypatch, seed):
    # T_y can be the whole carrier, so a sweep of its subsets would never
    # finish; the check closes each carrier point at most once.
    from mapcomplete import finite_oracle

    m = stress_instance(seed, 40, 4, coarse=True)
    assert _widest_tied_class(m) >= 3
    closures = []
    closure_mask = finite_oracle._closure_mask
    monkeypatch.setattr(
        finite_oracle, "_closure_mask",
        lambda nbhds, region: closures.append(region) or closure_mask(nbhds, region),
    )
    assert _lemma2_outcome(m) == lemma2_by_subset_sweep(m)
    assert 0 < len(closures) <= 40


def _topology_record(m) -> str:
    # The three verdicts with their certificates, then the cluster and
    # limit sets of every region of one or two points, all by code.
    def codes(points) -> str:
        return ",".join(sorted(str(p.code) for p in points))

    def verdict(v) -> str:
        if v.certificate is None:
            return str(v.ok)
        y, s = v.certificate
        return f"{v.ok} {y.id} {codes(s)}"

    pts = sorted(m.points(), key=lambda p: str(p.code))
    lines = [verdict(is_complete_filter(m)), verdict(is_complete_net(m)), verdict(lemma2_check(m))]
    for region in [(x,) for x in pts] + list(combinations(pts, 2)):
        clusters, limits = cluster_and_limit_sets(m, region)
        lines.append(f"{codes(region)}: {codes(clusters)} | {codes(limits)}")
    return "\n".join(lines) + "\n"


def test_finite_topology_digest_is_frozen():
    # sha256 over 300 random instances and 20 default plus 20 coarse
    # stress instances of 12-16 points, frozen before both finite sides
    # moved to zero classes: a simpler closure or limit test must give the
    # same sets, verdicts and certificates.
    import hashlib

    digest = hashlib.sha256()
    for seed in range(300):
        m = random_instance(seed, max_x=6 + seed % 5, max_y=3 + seed % 2)
        digest.update(_topology_record(m).encode())
    for seed in range(20):
        for coarse in (False, True):
            m = stress_instance(seed, 12 + seed % 5, 3 + seed % 2, coarse=coarse)
            digest.update(_topology_record(m).encode())
    assert digest.hexdigest() == (
        "185428636b15c8435351381c812764bf595fe11cf69a3d86de2e61b6edee5013"
    )


_SIERPINSKI = table_mapping(FiniteBase.of(["a", "b"], [["a"], ["a", "b"]]),
                            {"x_a": "a", "x_b": "b"}, {("x_a", "x_b"): Fraction(0)})

# The argument check of each function or method: the call, the exception
# it raises and its message.
_ARGUMENT_CHECKS = {
    "cluster_and_limit_sets": (lambda: cluster_and_limit_sets(_SIERPINSKI, []), InputError,
                               "region must be nonempty"),
    "random_instance": (lambda: random_instance(0, 1, 0), InputError,
                        "max_x and max_y must be at least 1"),
}


@pytest.mark.parametrize("name", sorted(_ARGUMENT_CHECKS))
def test_argument_check_raises_its_message(name):
    call, error, message = _ARGUMENT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
