from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcomplete.base_topology import BasePoint, FiniteBase, OnePointBase
from mapcomplete.errors import EvaluatorError, InputError
from mapcomplete.metric_mapping import (
    CarrierPoint,
    MetricMapping,
    RationalIntervalCarrier,
    closure_finite,
    fiber_preimage,
    table_mapping,
    validate_fiberwise_metric,
    validate_pseudometric,
)
from mapcomplete.finite_oracle import random_instance

from oracles import closure_via_full_topology


def _line(points: dict[str, Fraction], fibers: dict[str, str], base) -> MetricMapping:
    dist = {
        (a, b): abs(points[a] - points[b]) for a, b in combinations(points, 2)
    }
    return table_mapping(base, fibers, dist)


def test_valid_symmetric_table(by_code):
    base = FiniteBase.of(["a"], [["a"]])
    m = _line({"x1": Fraction(0), "x2": Fraction(1, 2)}, {"x1": "a", "x2": "a"}, base)
    assert validate_pseudometric(m, 8) == []


def test_triangle_violation_carries_witness():
    base = FiniteBase.of(["a"], [["a"]])
    m = table_mapping(
        base,
        {"x1": "a", "x2": "a", "x3": "a"},
        {
            ("x1", "x2"): Fraction(1),
            ("x2", "x3"): Fraction(1),
            ("x1", "x3"): Fraction(3),
        },
    )
    report = validate_pseudometric(m, 8)
    triangle = [v for v in report if v.kind == "triangle"]
    assert triangle
    assert set(triangle[0].witness) == {"x1", "x2", "x3"}


def test_abs_diff_interval_is_a_metric_at_budget_50(interval_mapping):
    assert validate_pseudometric(interval_mapping, 50) == []
    assert validate_fiberwise_metric(interval_mapping, 50) == []


def test_max_metric_grid_validates(grid_mapping):
    assert validate_pseudometric(grid_mapping, 8) == []
    # 9 distinct grid points share the single fiber, all at distance > 0
    assert validate_fiberwise_metric(grid_mapping, 8) == []


def test_evaluator_errors_reported_distinctly():
    base = OnePointBase("o")
    carrier = RationalIntervalCarrier(Fraction(0), Fraction(1))
    broken = MetricMapping(
        carrier, base, lambda x: base.point, lambda x, x2: Fraction(-1), "custom"
    )
    report = validate_pseudometric(broken, 3)
    assert report and all(v.kind == "evaluator" for v in report)
    with pytest.raises(EvaluatorError):
        broken.distance(carrier.enumerate_point(0), carrier.enumerate_point(1))


def test_evaluator_rejects_floats():
    base = OnePointBase("o")
    carrier = RationalIntervalCarrier(Fraction(0), Fraction(1))
    floaty = MetricMapping(
        carrier, base, lambda x: base.point, lambda x, x2: 0.5, "custom"
    )
    report = validate_pseudometric(floaty, 3)
    assert report and all(v.kind == "evaluator" for v in report)


def test_fiberwise_examples(sierpinski):
    assert validate_fiberwise_metric(sierpinski, 8) == []
    base = FiniteBase.of(["a"], [["a"]])
    m = table_mapping(base, {"u": "a", "v": "a"}, {("u", "v"): Fraction(0)})
    report = validate_fiberwise_metric(m, 8)
    assert [v.kind for v in report] == ["fiberwise"]
    assert set(report[0].witness) == {"u", "v"}


def test_fiberwise_valid_when_distances_positive():
    base = FiniteBase.of(["a"], [["a"]])
    m = table_mapping(base, {"u": "a", "v": "a"}, {("u", "v"): Fraction(1, 3)})
    assert validate_fiberwise_metric(m, 8) == []


def test_budget_precondition():
    base = FiniteBase.of(["a"], [["a"]])
    m = table_mapping(base, {"u": "a"}, {})
    with pytest.raises(InputError):
        validate_pseudometric(m, 0)


def test_fiber_preimage_examples(sierpinski, by_code):
    x_a, x_b = by_code(sierpinski, "x_a"), by_code(sierpinski, "x_b")
    both = fiber_preimage(sierpinski, [BasePoint("a"), BasePoint("b")])
    assert both == frozenset({x_a, x_b})
    assert fiber_preimage(sierpinski, [BasePoint("a")]) == frozenset({x_a})
    assert fiber_preimage(sierpinski, []) == frozenset()


def test_closure_pulls_in_zero_distance_point(sierpinski, by_code):
    # Frozen from the full-topology oracle: every basic neighborhood of
    # x_b contains x_a because d = 0 and the only basic open around b is
    # the whole base.
    x_a, x_b = by_code(sierpinski, "x_a"), by_code(sierpinski, "x_b")
    assert closure_finite(sierpinski, [x_a]) == frozenset({x_a, x_b})
    assert closure_via_full_topology(sierpinski, [x_a]) == frozenset({x_a, x_b})


def test_closure_discrete_base_separates(sierpinski_discrete, by_code):
    x_a = by_code(sierpinski_discrete, "x_a")
    assert closure_finite(sierpinski_discrete, [x_a]) == frozenset({x_a})
    assert closure_via_full_topology(sierpinski_discrete, [x_a]) == frozenset({x_a})


def test_closure_of_whole_carrier(sierpinski):
    pts = frozenset(sierpinski.points())
    assert closure_finite(sierpinski, pts) == pts


def test_closure_requires_finite_instance(interval_mapping):
    with pytest.raises(InputError):
        closure_finite(interval_mapping, [])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), picks=st.sets(st.integers(0, 5), min_size=1))
def test_closure_matches_full_topology_oracle(seed, picks):
    m = random_instance(seed, max_x=5, max_y=3)
    pts = m.points()
    region = frozenset(pts[i % len(pts)] for i in picks)
    assert closure_finite(m, region) == closure_via_full_topology(m, region)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    picks=st.sets(st.integers(0, 5), min_size=1),
    more=st.sets(st.integers(0, 5)),
)
def test_closure_extensive_idempotent_monotone(seed, picks, more):
    m = random_instance(seed, max_x=6, max_y=3)
    pts = m.points()
    a = frozenset(pts[i % len(pts)] for i in picks)
    b = a | frozenset(pts[i % len(pts)] for i in more)
    cl_a = closure_finite(m, a)
    assert a <= cl_a
    assert closure_finite(m, cl_a) == cl_a
    assert cl_a <= closure_finite(m, b)


def test_interval_enumeration_total_injective():
    carrier = RationalIntervalCarrier(Fraction(0), Fraction(1))
    seen = {carrier.enumerate_point(n).code for n in range(100)}
    assert len(seen) == 100
    assert all(Fraction(0) < c < Fraction(1) for c in seen)


def test_abs_diff_identity_fiber(unit_interval_identity):
    x = CarrierPoint(Fraction(1, 3))
    assert unit_interval_identity.fiber_of(x) == BasePoint(Fraction(1, 3))
