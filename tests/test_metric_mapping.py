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
    _mapping_from_rows,
    abs_diff_mapping,
    closure_finite,
    distance_matrix,
    max_metric_mapping,
    point_masks,
    table_mapping,
    validate_fiberwise_metric,
    validate_pseudometric,
)
from mapcomplete.completion import dstar_approx, embed
from mapcomplete.finite_oracle import (
    finite_completion,
    is_complete_filter,
    is_complete_net,
    lemma2_check,
    random_instance,
)

from oracles import (
    closure_via_full_topology,
    fiberwise_violations,
    pseudometric_violations,
    stress_instance,
    zero_masks,
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
    # A rejected value is neither bad input nor a violation: the validator
    # raises the evaluator's own EvaluatorError, at the first entry.
    base = OnePointBase("o")
    carrier = RationalIntervalCarrier(Fraction(0), Fraction(1))
    broken = MetricMapping(
        carrier, base, lambda x: BasePoint("o"), lambda x, x2: Fraction(-1), "custom"
    )
    x = carrier.enumerate_point(0)
    with pytest.raises(EvaluatorError) as direct:
        broken.distance(x, x)
    with pytest.raises(EvaluatorError) as info:
        validate_pseudometric(broken, 3)
    assert not isinstance(info.value, InputError)
    assert str(info.value) == str(direct.value) == (
        f"distance evaluator returned negative -1 for ({x.code!r}, {x.code!r})"
    )


def test_evaluator_rejects_floats():
    base = OnePointBase("o")
    carrier = RationalIntervalCarrier(Fraction(0), Fraction(1))
    floaty = MetricMapping(
        carrier, base, lambda x: BasePoint("o"), lambda x, x2: 0.5, "custom"
    )
    with pytest.raises(EvaluatorError, match=r"^distance evaluator returned non-rational 0\.5 "):
        validate_pseudometric(floaty, 3)


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


def test_closure_of_no_points_is_empty(sierpinski, sierpinski_discrete):
    # Every point has a neighborhood (point_masks refuses one with none),
    # and none meets the empty region.
    for m in (sierpinski, sierpinski_discrete):
        assert closure_finite(m, []) == frozenset() == closure_via_full_topology(m, set())


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


def _agree(check, oracle, m, budget: int) -> None:
    """``check`` and ``oracle`` on ``m`` give equal violations, or both
    raise an EvaluatorError with the same message."""
    try:
        expected = oracle(m, budget)
    except EvaluatorError as e:
        with pytest.raises(EvaluatorError) as info:
            check(m, budget)
        assert str(info.value) == str(e)
    else:
        assert check(m, budget) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=_mappings())
def test_validators_match_the_fraction_oracle(m):
    # Same kinds, text, witnesses and order as the Fraction loops, or the
    # same rejected value raised.
    _agree(validate_pseudometric, pseudometric_violations, m, 8)
    _agree(validate_fiberwise_metric, fiberwise_violations, m, 8)


def test_validators_match_the_fraction_oracle_on_a_countable_carrier(
    interval_mapping, grid_mapping
):
    base = OnePointBase("o")
    carrier = RationalIntervalCarrier(Fraction(0), Fraction(1))

    def skew(x, x2):
        return abs(x.code - x2.code) * (x.code.denominator % 3 + 1)

    # Distances scaled unevenly; then also every fifth pair rejected.
    skewed = MetricMapping(carrier, base, lambda x: BasePoint("o"), skew)
    rejecting = MetricMapping(
        carrier, base, lambda x: BasePoint("o"),
        lambda x, x2: -1 if (x.code.denominator + x2.code.denominator) % 5 == 0
        else skew(x, x2),
    )
    # The oracle calls the evaluator, so on interval_mapping and
    # grid_mapping it checks the integer coordinate path.
    for m in (interval_mapping, grid_mapping, skewed, rejecting):
        for budget in (24, 64):
            _agree(validate_pseudometric, pseudometric_violations, m, budget)
            _agree(validate_fiberwise_metric, fiberwise_violations, m, budget)
    assert {v.kind for v in validate_pseudometric(skewed, 24)} == {"symmetry", "triangle"}
    with pytest.raises(EvaluatorError, match="returned negative -1"):
        validate_pseudometric(rejecting, 24)


def _matches_the_evaluator_path(m, pts) -> None:
    # A table mapping's matrix is its dist, checked by table_mapping or
    # _mapping_from_rows; build makes none.
    fast = distance_matrix(m) if m.dist_kind == "table" else DistanceMatrix.build(m, pts)
    slow = DistanceMatrix.build(dataclasses.replace(m, dist_kind="custom"), pts)
    assert (fast.points, fast.den, fast.num) == (slow.points, slow.den, slow.num)


# On (-7/2, -3/2) and the grid from 1/2 the realized distances have a
# smaller common denominator than the coordinates.
@pytest.mark.parametrize("lo, hi, budget", [
    *((lo, hi, b) for lo, hi in [("-5/3", "7/2"), ("-9/4", "-1/6"), ("-7/2", "-3/2")]
      for b in (1, 2, 64)),
    # The evaluator path takes about 2 s at the depth cap.
    ("-5/3", "7/2", 512),
])
def test_abs_diff_matrix_matches_the_evaluator_path(lo, hi, budget):
    m = abs_diff_mapping(
        RationalIntervalCarrier(Fraction(lo), Fraction(hi)), OnePointBase("o"),
        lambda x: BasePoint("o"),
    )
    _matches_the_evaluator_path(m, m.sample_points(budget))


@pytest.mark.parametrize("step, lo, hi", [
    ("1/7", "0", "1"), ("3/10", "-1/2", "2"), ("1/3", "2/5", "2/5"), ("1", "1/2", "5/2"),
    # Every coordinate negative.
    ("2/3", "-13/4", "-1/5"),
    # 22 x 22 = 484 points, the largest square grid under MAX_POINTS; the
    # evaluator path takes about as long as at interval depth 512.
    ("1/21", "0", "1"),
])
def test_max_metric_matrix_matches_the_evaluator_path(step, lo, hi):
    m = max_metric_mapping(
        RationalGridCarrier(Fraction(step), Fraction(lo), Fraction(hi)), OnePointBase("o"),
        lambda x: BasePoint("o"),
    )
    _matches_the_evaluator_path(m, m.points())


def test_fiberwise_matches_the_oracle_with_failures_and_zeros_in_two_fibers():
    # Zero pairs inside fiber a and inside fiber b and one across them;
    # then two rejected entries, a back one in a later row than a forward
    # one: the forward one, first in row order, raises from both sides.
    pos = {"p0": 0, "p1": 0, "p2": 2, "p3": 1, "p4": 1, "p5": 2}
    fibers = {"p0": "a", "p1": "a", "p2": "a", "p3": "b", "p4": "b", "p5": "b"}
    base = FiniteBase.of(["a", "b"], [["a"], ["a", "b"]])

    def mapping(rejected):
        return MetricMapping(
            FiniteCarrier.of(pos), base, lambda x: BasePoint(fibers[x.code]),
            lambda x, x2: -1 if (x.code, x2.code) in rejected else abs(pos[x.code] - pos[x2.code]),
        )

    m = mapping(set())
    violations = validate_fiberwise_metric(m, 8)
    assert violations == fiberwise_violations(m, 8)
    assert [(v.kind, v.witness) for v in violations] == [
        ("fiberwise", ("p0", "p1")), ("fiberwise", ("p3", "p4")),
    ]
    m = mapping({("p4", "p2"), ("p2", "p5")})
    message = r"^distance evaluator returned negative -1 for \('p2', 'p5'\)$"
    for check in (validate_fiberwise_metric, fiberwise_violations):
        with pytest.raises(EvaluatorError, match=message):
            check(m, 8)


@pytest.mark.parametrize("seed, n", [(0, 12), (1, 100), (2, 512)])
def test_zero_masks_match_the_oracle_on_coarse_stress_instances(seed, n):
    m = stress_instance(seed, n, 4, coarse=True)
    zero = point_masks(m).zero
    assert zero == zero_masks(m)
    assert any(z & (z - 1) for z in zero)


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
    a = base.point("a")
    with pytest.raises(InputError, match="generated distance table"):
        _mapping_from_rows(base, {"u": a, "v": a}, 4, rows)


def test_integer_tables_keep_the_realized_denominator():
    base = FiniteBase.of(["a"], [["a"]])
    a = base.point("a")
    m = _mapping_from_rows(base, {"u": a, "v": a, "w": a}, 12,
                           [[0, 6, 4], [6, 0, 2], [4, 2, 0]])
    dm = distance_matrix(m)
    assert (dm.den, dm.num) == (6, [[0, 3, 2], [3, 0, 1], [2, 1, 0]])
    _matches_the_evaluator_path(m, m.points())


def test_integer_tables_divide_by_the_gcd_of_all_rows():
    # The gcd pass may stop only at a row that brings the gcd to 1: here
    # the first row shares 2 with den, and the second ends it at 1.
    base = FiniteBase.of(["a"], [["a"]])
    a = base.point("a")
    rows = [[0, 2, 4], [2, 0, 1], [4, 1, 0]]
    m = _mapping_from_rows(base, {"u": a, "v": a, "w": a}, 4, [row[:] for row in rows])
    dm = distance_matrix(m)
    assert (dm.den, dm.num) == (4, rows)
    m = _mapping_from_rows(base, {"u": a, "v": a, "w": a}, 8, [[0, 2, 4], [2, 0, 6], [4, 6, 0]])
    dm = distance_matrix(m)
    assert (dm.den, dm.num) == (4, [[0, 1, 2], [1, 0, 3], [2, 3, 0]])


def test_build_asks_each_ordered_entry_once_in_row_order():
    # Each ordered entry is its own evaluator call, row by row, and the
    # first rejected one raises: (v, u) comes before (v, w) in row v.
    base = FiniteBase.of(["a"], [["a"]])
    codes = ["u", "v", "w"]
    calls = []

    def mapping(rejected):
        def dist(x, x2):
            calls.append((x.code, x2.code))
            return -1 if (x.code, x2.code) in rejected else int(x != x2)

        return MetricMapping(FiniteCarrier.of(codes), base, lambda x: BasePoint("a"), dist)

    dm = DistanceMatrix.build(mapping(set()), tuple(map(CarrierPoint, codes)))
    assert calls == [(a, b) for a in codes for b in codes]
    assert (dm.den, dm.num) == (1, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    calls.clear()
    with pytest.raises(EvaluatorError, match=r"^distance evaluator returned negative -1 "
                                             r"for \('v', 'u'\)$"):
        DistanceMatrix.build(mapping({("v", "w"), ("v", "u")}), tuple(map(CarrierPoint, codes)))
    assert calls == [("u", "u"), ("u", "v"), ("u", "w"), ("v", "u")]


def test_deciders_raise_the_failed_pair_error():
    base = FiniteBase.of(["a"], [["a"]])
    table = {("u", "v"): -1, ("v", "u"): -1}
    m = MetricMapping(
        FiniteCarrier.of(["u", "v"]), base, lambda x: BasePoint("a"),
        lambda x, x2: table.get((x.code, x2.code), 0),
    )
    for check in (lambda m: validate_pseudometric(m, 2), is_complete_filter, is_complete_net):
        with pytest.raises(EvaluatorError, match=r"^distance evaluator returned negative -1 "
                                                 r"for \('u', 'v'\)$"):
            check(m)


# Every entry point that reads a custom mapping's distances, called on it.
_ENTRY_POINTS = {
    "validate_pseudometric": lambda m: validate_pseudometric(m, 8),
    "validate_fiberwise_metric": lambda m: validate_fiberwise_metric(m, 8),
    "distance_matrix": distance_matrix,
    "is_complete_filter": is_complete_filter,
    "is_complete_net": is_complete_net,
    "lemma2_check": lemma2_check,
    "finite_completion": finite_completion,
    "dstar_approx": lambda m: dstar_approx(
        embed(m, CarrierPoint("v")), embed(m, CarrierPoint("w")), Fraction(1)
    ),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("value, message", [
    (-1, "distance evaluator returned negative -1 for ('v', 'w')"),
    (0.5, "distance evaluator returned non-rational 0.5 for ('v', 'w')"),
], ids=["negative", "float"])
def test_a_rejected_value_raises_from_every_entry_point(value, message, entry):
    # The evaluator rejects one ordered pair of an otherwise valid line.
    pos = {"u": 0, "v": 1, "w": 3}
    m = MetricMapping(
        FiniteCarrier.of(pos), FiniteBase.of(["a"], [["a"]]), lambda x: BasePoint("a"),
        lambda x, x2: value if (x.code, x2.code) == ("v", "w") else abs(pos[x.code] - pos[x2.code]),
    )
    with pytest.raises(EvaluatorError) as info:
        _ENTRY_POINTS[entry](m)
    assert str(info.value) == message


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


_SIERPINSKI = table_mapping(FiniteBase.of(["a", "b"], [["a"], ["a", "b"]]),
                            {"x_a": "a", "x_b": "b"}, {("x_a", "x_b"): Fraction(0)})
_LINE = abs_diff_mapping(
    RationalIntervalCarrier(Fraction(0), Fraction(3)), OnePointBase("o"), lambda x: BasePoint("o")
)

# The argument check of each function or method: the call, the exception
# it raises and its message.
_ARGUMENT_CHECKS = {
    "RationalIntervalCarrier": (lambda: RationalIntervalCarrier(Fraction(1), Fraction(1)),
                                InputError, "rational_interval needs lo < hi"),
    "RationalGridCarrier step": (lambda: RationalGridCarrier(Fraction(0), Fraction(0), Fraction(1)),
                                 InputError, "rational_grid needs step > 0"),
    "RationalGridCarrier bounds": (
        lambda: RationalGridCarrier(Fraction(1, 2), Fraction(1), Fraction(0)),
        InputError, "rational_grid needs lo <= hi"),
    "MetricMapping.points": (lambda: _LINE.points(), InputError, "operation needs a finite carrier"),
    "table fiber": (lambda: _SIERPINSKI.fiber_of(CarrierPoint("zz")), InputError,
                    "unknown carrier point 'zz'"),
    "validate_fiberwise_metric": (lambda: validate_fiberwise_metric(_SIERPINSKI, 0), InputError,
                                  "budget must be at least 1"),
    "PointMasks.mask_of": (lambda: point_masks(_SIERPINSKI).mask_of([CarrierPoint("zz")]),
                           InputError, "point 'zz' is not in the carrier"),
}


@pytest.mark.parametrize("name", sorted(_ARGUMENT_CHECKS))
def test_argument_check_raises_its_message(name):
    call, error, message = _ARGUMENT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("code", [
    Fraction(1, 2),  # not a pair
    (1, Fraction(0)),  # a coordinate that is not a Fraction
    (Fraction(3, 2), Fraction(0)),  # a coordinate past hi
    (Fraction(0), Fraction(-1, 2)),  # a coordinate below lo
    (Fraction(1, 4), Fraction(0)),  # a coordinate off the step
])
def test_grid_rejects_a_point_off_the_grid(code):
    grid = RationalGridCarrier(Fraction(1, 2), Fraction(0), Fraction(1))
    assert CarrierPoint(code) not in grid
    assert CarrierPoint((Fraction(1, 2), Fraction(1))) in grid
