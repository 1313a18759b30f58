from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from mapcomplete.base_topology import BasePoint
from mapcomplete.completion import (
    CompletionPoint,
    const_completion_seq,
    density_witness,
    dstar_approx,
    embed,
    fstar,
    lift_seq,
    limit_point,
)
from mapcomplete.errors import InputError
from mapcomplete.finite_oracle import finite_completion, random_instance
from mapcomplete.metric_mapping import CarrierPoint
from mapcomplete.rationals import frac_ceil
from mapcomplete.tied_cauchy import (
    RegularSeq,
    TiedCauchySeq,
    TyingWitness,
    const_seq,
    newton_sqrt_seq,
    table_seq,
)

from oracles import SQRT2_GAP_TO_3_2, sqrt_interval

EPS9 = Fraction(1, 10**9)


def test_frozen_anchor_matches_live_oracle():
    # The frozen literal is the oracle value truncated at 50 digits.
    lo, hi = sqrt_interval(Fraction(2))
    assert hi - lo <= Fraction(1, 10**50)
    assert abs(SQRT2_GAP_TO_3_2 - (Fraction(3, 2) - hi)) <= Fraction(1, 10**49)


def test_embed_is_exact_for_any_precision(sierpinski, by_code):
    x_a, x_b = by_code(sierpinski, "x_a"), by_code(sierpinski, "x_b")
    for eps in (Fraction(1), Fraction(1, 7), EPS9):
        assert dstar_approx(embed(sierpinski, x_a), embed(sierpinski, x_b), eps) == 0


def test_self_distance_below_eps(interval_mapping):
    p = CompletionPoint(newton_sqrt_seq(interval_mapping, Fraction(2)))
    for eps in (Fraction(1, 10), Fraction(1, 1000)):
        assert dstar_approx(p, p, eps) <= eps


def test_sqrt2_distance_to_three_halves(interval_mapping):
    p = CompletionPoint(newton_sqrt_seq(interval_mapping, Fraction(2)))
    q = embed(interval_mapping, CarrierPoint(Fraction(3, 2)))
    eps = Fraction(1, 10**6)
    assert abs(dstar_approx(p, q, eps) - SQRT2_GAP_TO_3_2) <= eps


def test_dstar_rejects_mixed_mappings(sierpinski, interval_mapping, by_code):
    p = embed(sierpinski, by_code(sierpinski, "x_a"))
    q = embed(interval_mapping, CarrierPoint(Fraction(1)))
    with pytest.raises(InputError):
        dstar_approx(p, q, Fraction(1, 10))


def test_fstar_composes_with_embed(sierpinski, by_code):
    for code in ("x_a", "x_b"):
        x = by_code(sierpinski, code)
        assert fstar(embed(sierpinski, x)) == sierpinski.fiber_of(x)


def test_embed_injectivity_witness_on_finite_instances():
    # Distinct carrier points never collapse in the completion: either the
    # distance is positive or the fibers differ (fiberwise metricity).
    for seed in range(15):
        m = random_instance(seed)
        for x, x2 in combinations(m.points(), 2):
            assert m.distance(x, x2) > 0 or m.fiber_of(x) != m.fiber_of(x2)


def test_pseudo_distance_zero_across_fibers(sierpinski, by_code):
    # Distinct completion elements in different fibers at distance 0: the
    # completed distance stays a pseudometric globally.
    p = embed(sierpinski, by_code(sierpinski, "x_a"))
    q = embed(sierpinski, by_code(sierpinski, "x_b"))
    assert dstar_approx(p, q, EPS9) == 0
    assert fstar(p) != fstar(q)


def test_density_witness_on_embedded_point(sierpinski, by_code):
    x_a = by_code(sierpinski, "x_a")
    p = embed(sierpinski, x_a)
    assert density_witness(p, Fraction(1, 10), ("a",)) == x_a


def test_density_witness_newton(interval_mapping):
    base = interval_mapping.base
    p = CompletionPoint(newton_sqrt_seq(interval_mapping, Fraction(2)))
    eps = Fraction(1, 1000)
    x = density_witness(p, eps, base.neighborhood_basis(p.y)[0])
    assert dstar_approx(p, embed(interval_mapping, x), eps / 4) <= eps + eps / 4
    lo, hi = sqrt_interval(Fraction(2))
    assert abs(x.code - lo) <= eps


def test_density_witness_harmonic_class(unit_interval_identity):
    m = unit_interval_identity
    s = TiedCauchySeq(
        m,
        RegularSeq(lambda n: CarrierPoint(Fraction(1, n))),
        BasePoint(Fraction(0)),
        TyingWitness(lambda o: max(1, frac_ceil(1 / o.hi) + 1)),
    )
    p = CompletionPoint(s)
    k = 0
    while not m.base.basic_open(k).contains_id(Fraction(0)):
        k += 1
    x = density_witness(p, Fraction(1, 100), m.base.basic_open(k))
    assert x.code.numerator == 1 and x.code.denominator >= 100
    gap = dstar_approx(p, embed(m, CarrierPoint(Fraction(1, 100))), Fraction(1, 10**8))
    assert gap <= Fraction(1, 100)


def test_density_witness_rejects_wrong_open(sierpinski, by_code):
    p = embed(sierpinski, by_code(sierpinski, "x_b"))  # fstar = b
    with pytest.raises(InputError):
        density_witness(p, Fraction(1, 10), ("a",))


def _completion_pool(interval_mapping):
    m = interval_mapping
    emb = [embed(m, CarrierPoint(Fraction(k, 7))) for k in range(1, 8)]
    tables = [
        CompletionPoint(
            table_seq(m, [CarrierPoint(t + Fraction(1, 3))], CarrierPoint(t))
        )
        for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    ]
    roots = [
        CompletionPoint(newton_sqrt_seq(m, a))
        for a in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))
    ]
    return emb + tables + roots


def test_dstar_triangle_and_symmetry_sampled(interval_mapping):
    pool = _completion_pool(interval_mapping)
    eps = Fraction(1, 10**6)
    for p, q, r in combinations(pool, 3):
        d_pr = dstar_approx(p, r, eps)
        d_pq = dstar_approx(p, q, eps)
        d_qr = dstar_approx(q, r, eps)
        assert d_pr <= d_pq + d_qr + 3 * eps
        assert abs(dstar_approx(p, q, eps) - dstar_approx(q, p, eps)) <= 2 * eps


def test_embed_isometry_exact_on_finite_instances():
    for seed in range(12):
        m = random_instance(seed)
        pts = m.points()
        for x, x2 in combinations(pts, 2):
            for eps in (Fraction(1), EPS9):
                assert dstar_approx(embed(m, x), embed(m, x2), eps) == m.distance(x, x2)


def _rep_of(m, star_point):
    # The class representative encoded in the completed point's code.
    code = star_point.code.split("*")[0]
    for x in m.points():
        if x.code == code:
            return x
    raise AssertionError(f"no representative for {star_point.code!r}")


def _ball_radii(m) -> list[Fraction]:
    # Balls change only at realized distances: those, and the midpoints
    # between consecutive ones for the strict inequalities, give every
    # ball. Radius 1 stands for all of them when every distance is zero.
    values = sorted({Fraction(0)} | {m.distance(x, v) for x, v in combinations(m.points(), 2)})
    radii = set(values) | {(a + b) / 2 for a, b in zip(values, values[1:])}
    return sorted(r for r in radii if r > 0) or [Fraction(1)]


def test_embed_continuity_preimages_match():
    # Preimage under the embedding of each basic open of the completed
    # instance equals the matching ball-and-preimage basic open downstairs:
    # the embedding is continuous, checked by set equality.
    for seed in range(8):
        m = random_instance(seed, max_x=4, max_y=3)
        comp = finite_completion(m)
        star = comp.instance
        radii = _ball_radii(star)
        for c in star.points():
            rep = _rep_of(m, c)
            for r in radii:
                for v in star.base.basis:
                    if star.fiber_of(c).id not in v:
                        continue
                    members = set(v)
                    upstairs = {
                        x
                        for x in m.points()
                        if star.distance(comp.embedding[x], c) < r
                        and star.fiber_of(comp.embedding[x]).id in members
                    }
                    downstairs = {
                        x
                        for x in m.points()
                        if m.distance(x, rep) < r
                        and m.fiber_of(x).id in members
                    }
                    assert upstairs == downstairs


def test_dstar_fiberwise_metric_on_completions():
    # Inside one fiber of a completed instance, distance 0 means identity.
    for seed in range(20):
        comp = finite_completion(random_instance(seed)).instance
        for p, q in combinations(comp.points(), 2):
            if comp.fiber_of(p) == comp.fiber_of(q):
                assert comp.distance(p, q) > 0


def test_lift_and_const_completion_seq(interval_mapping):
    s = newton_sqrt_seq(interval_mapping, Fraction(2))
    psi = lift_seq(s)
    assert fstar(psi.at(3)) == psi.y
    const_psi = const_completion_seq(CompletionPoint(s))
    assert const_psi.at(1) is const_psi.at(5)


def test_limit_point_of_constant_sequence(interval_mapping):
    p = CompletionPoint(newton_sqrt_seq(interval_mapping, Fraction(2)))
    limit = limit_point(const_completion_seq(p))
    for k in (1, 4, 9):
        eps = Fraction(1, 4 * k)
        assert dstar_approx(p, limit, eps) <= eps + Fraction(1, k)


def test_limit_point_of_newton_truncations(interval_mapping):
    s = newton_sqrt_seq(interval_mapping, Fraction(2))
    limit = limit_point(lift_seq(s))
    p = CompletionPoint(s)
    assert dstar_approx(limit, p, Fraction(1, 10**4)) <= Fraction(2, 10**4)


def test_limit_point_recovers_missing_point(incomplete_instance, by_code):
    x_b = by_code(incomplete_instance, "x_b")
    s = const_seq(incomplete_instance, x_b, BasePoint("a"))
    psi = lift_seq(s)
    limit = limit_point(psi)
    assert fstar(limit) == BasePoint("a")
    for k in (1, 2, 5):
        assert dstar_approx(psi.at(k), limit, Fraction(1, 4 * k)) <= Fraction(1, k) + Fraction(1, 4 * k)


def test_limit_point_on_completed_instance_reaches_added_point(incomplete_instance):
    # Run the diagonal limit over the completed instance: a sequence
    # sitting at the added point converges to it with the 1/k contract.
    comp = finite_completion(incomplete_instance)
    star = comp.instance
    added = next(p for p in star.points() if star.fiber_of(p).id == "a")
    psi = lift_seq(const_seq(star, added))
    limit = limit_point(psi)
    assert fstar(limit) == BasePoint("a")
    for k in (1, 3, 8):
        assert dstar_approx(psi.at(k), limit, Fraction(1, 4 * k)) <= Fraction(1, k) + Fraction(1, 4 * k)


def test_limit_point_needs_workable_base(unit_interval_identity):
    m = unit_interval_identity
    p = embed(m, CarrierPoint(Fraction(1, 2)))
    with pytest.raises(InputError):
        limit_point(const_completion_seq(p))


def test_limit_point_result_is_itself_tied_and_regular(sierpinski, by_code):
    from mapcomplete.tied_cauchy import check_regularity, check_tying

    s = const_seq(sierpinski, by_code(sierpinski, "x_a"))
    limit = limit_point(lift_seq(s))
    assert check_regularity(limit.rep, 12) == []
    assert check_tying(limit.rep, 12) == []
