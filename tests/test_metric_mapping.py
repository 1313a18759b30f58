from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcomplete.base_topology import BasePoint, FiniteBase, OnePointBase
from mapcomplete.cli_io import instance_document, parse_instance
from mapcomplete.errors import EvaluatorError, InputError
from mapcomplete.metric_mapping import (
    CarrierPoint,
    DistanceMatrix,
    FiniteCarrier,
    MetricMapping,
    RationalGridCarrier,
    RationalIntervalCarrier,
    _table_mapping_from_rows,
    abs_diff_mapping,
    closure_finite,
    distance_matrix,
    fiber_preimage,
    max_metric_mapping,
    table_mapping,
    validate_fiberwise_metric,
    validate_pseudometric,
)
from mapcomplete.finite_oracle import is_complete_filter, is_complete_net, random_instance

from oracles import (
    closure_via_full_topology,
    fiberwise_violations,
    pseudometric_violations,
    stress_instance,
)


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


@pytest.mark.parametrize("value", [0.5, "1/3"])
def test_table_values_must_be_exact(value):
    # A float or a string is refused, not coerced: no float enters the core.
    base = FiniteBase.of(["a"], [["a"]])
    table = [(("u", "v"), Fraction(1)), (("u", "w"), value), (("v", "w"), 1)]
    with pytest.raises(InputError) as e:
        table_mapping(base, {"u": "a", "v": "a", "w": "a"}, table)
    assert e.value.path == "distance_table[1]"
    assert e.value.message == f"distance {value!r} for ('u', 'w') is not an int or Fraction"


def test_table_dist_is_the_distance_matrix(sierpinski):
    base = FiniteBase.of(["a"], [["a"]])
    m = table_mapping(base, {"u": "a", "v": "a"}, {("u", "v"): Fraction(1, 3)})
    document = parse_instance(json.dumps(instance_document(sierpinski)))
    for table in (m, document, random_instance(5), stress_instance(2, 20, 3)):
        assert isinstance(table.dist, DistanceMatrix)
        assert distance_matrix(table) is table.dist
    u, v = m.points()
    assert m.distance(u, v) == m.distance(v, u) == Fraction(1, 3)
    assert m.distance(u, CarrierPoint("u")) == m.distance(CarrierPoint("z"), CarrierPoint("z")) == 0
    with pytest.raises(InputError, match=r"^unknown carrier pair \('u', 'z'\)$"):
        m.distance(u, CarrierPoint("z"))


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


# Mixed and coprime denominators, large primes among them, so the matrix's
# common denominator is far from every single one.
_DISTANCES = [
    0, Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(1),
    Fraction(3, 2), Fraction(1, 1000003), Fraction(999983, 7919), Fraction(100),
]
# Values the evaluator rejects: each makes one entry of the matrix fail.
_BROKEN = [Fraction(-1, 3), -2, 0.5]


@st.composite
def _mappings(draw):
    """Table mappings (symmetric, zero diagonal, triangle breaks from the
    value mix) and custom evaluators that also override ordered entries
    with asymmetric values, nonzero diagonals and rejected values."""
    n = draw(st.integers(1, 7))
    codes = [f"p{i}" for i in range(n)]
    fibers = {c: draw(st.sampled_from(["a", "b"])) for c in codes}
    base = FiniteBase.of(["a", "b"], [["a"], ["a", "b"]])
    pairs = {(a, b): draw(st.sampled_from(_DISTANCES)) for a, b in combinations(codes, 2)}
    if draw(st.booleans()):
        return table_mapping(base, fibers, pairs)
    table = {(c, c): Fraction(0) for c in codes}
    table.update(pairs)
    table.update({(b, a): v for (a, b), v in pairs.items()})
    code = st.sampled_from(codes)
    table.update(draw(st.dictionaries(
        st.tuples(code, code), st.sampled_from(_DISTANCES + _BROKEN), max_size=4
    )))
    return MetricMapping(
        FiniteCarrier.of(codes), base,
        lambda x: BasePoint(fibers[x.code]), lambda x, x2: table[(x.code, x2.code)],
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=_mappings())
def test_validators_match_the_fraction_oracle(m):
    # Same kinds, text, witnesses and order as the pair-by-pair Fraction loop.
    assert validate_pseudometric(m, 8) == pseudometric_violations(m, 8)
    assert validate_fiberwise_metric(m, 8) == fiberwise_violations(m, 8)


def test_validators_match_the_fraction_oracle_on_a_countable_carrier(
    interval_mapping, grid_mapping
):
    base = OnePointBase("o")
    carrier = RationalIntervalCarrier(Fraction(0), Fraction(1))
    # Every fifth pair is rejected, and distances are scaled unevenly.
    skewed = MetricMapping(
        carrier, base, lambda x: base.point,
        lambda x, x2: -1 if (x.code.denominator + x2.code.denominator) % 5 == 0
        else abs(x.code - x2.code) * (x.code.denominator % 3 + 1),
    )
    # The oracle calls the evaluator, so on interval_mapping and
    # grid_mapping it checks the integer coordinate path.
    for m in (interval_mapping, grid_mapping, skewed):
        for budget in (24, 64):
            assert validate_pseudometric(m, budget) == pseudometric_violations(m, budget)
            assert validate_fiberwise_metric(m, budget) == fiberwise_violations(m, budget)
    assert {v.kind for v in validate_pseudometric(skewed, 24)} == {"evaluator", "symmetry", "triangle"}


def _matches_the_evaluator_path(m, pts) -> None:
    fast = DistanceMatrix.build(m, pts)
    slow = DistanceMatrix.build(dataclasses.replace(m, dist_kind="custom"), pts)
    assert (fast.den, fast.num, fast.failures) == (slow.den, slow.num, slow.failures)


# On (-7/2, -3/2) and the grid from 1/2 the realized distances have a
# smaller common denominator than the coordinates.
@pytest.mark.parametrize("lo, hi, budget", [
    *((lo, hi, b) for lo, hi in [("-5/3", "7/2"), ("-9/4", "-1/6"), ("-7/2", "-3/2")]
      for b in (1, 2, 64)),
    # The evaluator path takes about 2 s at the depth cap.
    ("-5/3", "7/2", 512),
])
def test_abs_diff_matrix_matches_the_evaluator_path(lo, hi, budget):
    m = abs_diff_mapping(RationalIntervalCarrier(Fraction(lo), Fraction(hi)), OnePointBase("o"))
    _matches_the_evaluator_path(m, m.sample_points(budget))


@pytest.mark.parametrize("step, lo, hi", [
    ("1/7", "0", "1"), ("3/10", "-1/2", "2"), ("1/3", "2/5", "2/5"), ("1", "1/2", "5/2"),
])
def test_max_metric_matrix_matches_the_evaluator_path(step, lo, hi):
    m = max_metric_mapping(
        RationalGridCarrier(Fraction(step), Fraction(lo), Fraction(hi)), OnePointBase("o")
    )
    _matches_the_evaluator_path(m, m.points())


# Mixed denominators, as ints and Fractions, one value given both ways.
_TABLE_VALUES = [0, 1, 2, Fraction(0), Fraction(2), Fraction(1, 3), Fraction(5, 6),
                 Fraction(7, 4)]


@st.composite
def _tables(draw):
    """table_mapping input with zero diagonal entries and equal symmetric
    duplicates among the items, in a drawn order."""
    n = draw(st.integers(1, 8))
    codes = [f"p{i}" for i in range(n)]
    items = [((a, b), draw(st.sampled_from(_TABLE_VALUES))) for a, b in combinations(codes, 2)]
    for (a, b), v in list(items):
        if draw(st.booleans()):
            items.append(((b, a), Fraction(v) if isinstance(v, int) else v))
    for c in codes:
        if draw(st.booleans()):
            items.append(((c, c), draw(st.sampled_from([0, Fraction(0)]))))
    fibers = {c: draw(st.sampled_from(["a", "b"])) for c in codes}
    base = FiniteBase.of(["a", "b"], [["a"], ["a", "b"]])
    return table_mapping(base, fibers, draw(st.permutations(items)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=_tables())
def test_table_matrix_matches_the_evaluator_path(m):
    _matches_the_evaluator_path(m, m.points())


@pytest.mark.parametrize("n", [64, 256])
def test_stress_table_matrix_matches_the_evaluator_path(n):
    m = stress_instance(1, n, 4)
    _matches_the_evaluator_path(m, m.points())


@pytest.mark.parametrize("rows", [
    [[0, 1], [2, 0]], [[0, -1], [-1, 0]], [[1, 1], [1, 0]], [[0, 1]], [[0, 1, 1], [1, 0, 1]],
], ids=["asymmetric", "negative", "diagonal", "short", "ragged"])
def test_integer_tables_are_checked(rows):
    # The generator's and the completion's tables skip table_mapping's
    # item checks, so a bug that breaks the rules still raises.
    base = FiniteBase.of(["a"], [["a"]])
    with pytest.raises(InputError, match="generated distance table"):
        _table_mapping_from_rows(base, {"u": "a", "v": "a"}, 4, rows)


def test_integer_tables_keep_the_realized_denominator():
    base = FiniteBase.of(["a"], [["a"]])
    m = _table_mapping_from_rows(base, {"u": "a", "v": "a", "w": "a"}, 12,
                                 [[0, 6, 4], [6, 0, 2], [4, 2, 0]])
    dm = distance_matrix(m)
    assert (dm.den, dm.num) == (6, [[0, 3, 2], [3, 0, 1], [2, 1, 0]])
    _matches_the_evaluator_path(m, m.points())


class _Unscanned(list):
    def __contains__(self, item):
        raise AssertionError("row scanned for None")


def test_row_scans_for_none_only_after_a_failure():
    # Entries are None only where an evaluation failed, so a matrix with
    # no failures hands out its rows without reading them.
    dm = distance_matrix(stress_instance(1, 16, 4))
    clean = dataclasses.replace(dm, num=[_Unscanned(r) for r in dm.num])
    assert [clean.row(i) for i in range(len(clean.points))] == dm.num

    base = FiniteBase.of(["a"], [["a"]])
    table = {("u", "v"): -1}
    m = MetricMapping(
        FiniteCarrier.of(["u", "v", "w"]), base, lambda x: BasePoint("a"),
        lambda x, x2: table.get((x.code, x2.code), 0 if x == x2 else 1),
    )
    dm = DistanceMatrix.build(m, m.points())
    assert dm.failures == {(0, 1): "distance evaluator returned negative -1 for ('u', 'v')"}
    for i in (0, 1):
        with pytest.raises(EvaluatorError, match=r"negative -1 for \('u', 'v'\)"):
            dm.row(i)
    assert dm.row(2) == [1, 1, 0]


def test_deciders_raise_the_failed_pair_error():
    base = FiniteBase.of(["a"], [["a"]])
    table = {("u", "v"): -1, ("v", "u"): -1}
    m = MetricMapping(
        FiniteCarrier.of(["u", "v"]), base, lambda x: BasePoint("a"),
        lambda x, x2: table.get((x.code, x2.code), 0),
    )
    assert [v.message for v in validate_pseudometric(m, 2)] == [
        "distance evaluator returned negative -1 for ('u', 'v')"
    ]
    for decider in (is_complete_filter, is_complete_net):
        with pytest.raises(EvaluatorError, match=r"negative -1 for \('u', 'v'\)"):
            decider(m)


def test_grid_points_are_built_once(monkeypatch):
    calls = []
    axis_values = RationalGridCarrier.axis_values
    monkeypatch.setattr(
        RationalGridCarrier, "axis_values", lambda self: calls.append(self) or axis_values(self)
    )
    grid = RationalGridCarrier(Fraction(1, 64), Fraction(0), Fraction(1))
    codes = {x.code for _ in range(3) for x in grid.points}
    assert len(codes) == 65 * 65 and grid.points is grid.points
    assert len(calls) == 1


@pytest.mark.parametrize("step, lo, hi", [("1/64", "0", "1"), ("3/10", "0", "1"), ("1", "2", "2")])
def test_grid_size_counts_the_points(step, lo, hi):
    grid = RationalGridCarrier(Fraction(step), Fraction(lo), Fraction(hi))
    assert grid.size == len(grid.points)


def test_mappings_compare_and_hash_by_identity():
    # The per-mapping caches key on identity, never on carrier and base.
    m = random_instance(3)
    copy = dataclasses.replace(m)
    assert m == m and copy != m
    assert distance_matrix(m) is distance_matrix(m) is m.dist
    # A table copy shares the read-only matrix that is its dist; a custom
    # copy builds its own.
    assert distance_matrix(copy) is m.dist
    custom = dataclasses.replace(m, dist_kind="custom")
    assert custom != m
    assert distance_matrix(custom) is not distance_matrix(m)
