from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcomplete.base_topology import BasePoint, FiniteBase
from mapcomplete.completion import dstar_approx, embed
from mapcomplete.errors import InputError
from mapcomplete.finite_oracle import (
    PrincipalFilter,
    TailSequence,
    cluster_and_limit_sets,
    filter_of_net,
    finite_completion,
    is_complete_filter,
    is_complete_net,
    lemma2_check,
    net_cluster_limit,
    net_of_filter,
    random_instance,
    zero_classes,
    _shortest_path_closure,
)
from mapcomplete.metric_mapping import closure_finite, table_mapping
from mapcomplete.metric_mapping import validate_fiberwise_metric, validate_pseudometric
from mapcomplete.base_topology import validate_basis

from oracles import limit_via_full_topology


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


def test_filter_of_net_and_back(sierpinski, by_code):
    x_a, x_b = by_code(sierpinski, "x_a"), by_code(sierpinski, "x_b")
    seq = TailSequence((), (x_a,))
    assert filter_of_net(seq).min_set == frozenset({x_a})
    cycle = TailSequence((x_b,), (x_a, x_b))
    flt = filter_of_net(cycle)
    assert flt.min_set == frozenset({x_a, x_b})
    # cluster/limit sets agree between the sequence and its filter
    assert net_cluster_limit(sierpinski, cycle) == cluster_and_limit_sets(
        sierpinski, flt.min_set
    )


def test_net_of_filter_cycles_the_minimal_set(sierpinski, by_code):
    x_a, x_b = by_code(sierpinski, "x_a"), by_code(sierpinski, "x_b")
    seq = net_of_filter(sierpinski, PrincipalFilter(frozenset({x_a, x_b})))
    assert {seq.at(n) for n in range(1, 5)} == {x_a, x_b}
    assert net_cluster_limit(sierpinski, seq) == cluster_and_limit_sets(
        sierpinski, frozenset({x_a, x_b})
    )


def test_net_of_filter_rejects_positive_diameter():
    base = FiniteBase.of(["a"], [["a"]])
    m = table_mapping(base, {"u": "a", "v": "a"}, {("u", "v"): Fraction(1)})
    with pytest.raises(InputError):
        net_of_filter(m, PrincipalFilter(frozenset(m.points())))


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


def test_shortest_path_closure_repairs_without_increasing():
    codes = ["p", "q", "r"]
    raw = {
        ("p", "q"): Fraction(1),
        ("q", "r"): Fraction(1),
        ("p", "r"): Fraction(3),
    }
    fixed = _shortest_path_closure(codes, raw)
    assert fixed[("p", "r")] == 2
    assert all(fixed[k] <= raw[k] for k in raw)
    for a, b in combinations(codes, 2):
        for via in codes:
            if via in (a, b):
                continue
            key = lambda u, v: (u, v) if u <= v else (v, u)
            assert fixed[key(a, b)] <= fixed[key(a, via)] + fixed[key(via, b)]


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
        "filter": ("is_complete_filter", "closure_finite", "closure_radii", "_distinct_balls"),
        "net": ("zero_classes", "_tied_core", "_is_limit", "_balls_around"),
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
