from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from mapcomplete.base_topology import (
    BasePoint,
    FiniteBase,
    OnePointBase,
    RationalInterval,
    RationalOrderBase,
    validate_basis,
)
from mapcomplete.errors import InputError

from oracles import _coarse_opens, _random_opens, all_opens_finite, basis_violations_by_scan


def test_validate_basis_accepts_nested_basis():
    b = FiniteBase.of(["a", "b"], [["a"], ["a", "b"]])
    assert validate_basis(b) == []


def test_validate_basis_flags_unrepresentable_intersection():
    b = FiniteBase.of(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    report = validate_basis(b)
    assert len(report) == 1
    assert report[0].kind == "intersection"
    assert report[0].witness[0] == "b"


def test_validate_basis_flags_uncovered_point():
    b = FiniteBase.of(["a"], [])
    report = validate_basis(b)
    assert [v.kind for v in report] == ["cover"]
    assert report[0].witness == ("a",)


def test_duplicate_point_ids_are_an_input_error():
    with pytest.raises(InputError):
        FiniteBase.of(["a", "a"], [["a"]])


def test_unknown_basis_member_is_an_input_error():
    with pytest.raises(InputError):
        FiniteBase.of(["a"], [["a", "z"]])


def test_duplicate_basis_sets_are_dropped_in_first_seen_order():
    b = FiniteBase.of(["a", "b"], [["b", "a"], ["a"], ["a", "b"]])
    assert b.basis == (("a", "b"), ("a",))


def test_neighborhood_basis_finite_in_input_order():
    b = FiniteBase.of(["a", "b"], [["a"], ["a", "b"]])
    assert b.opens_around(BasePoint("b"), 1) == [("a", "b")]
    assert b.opens_around(BasePoint("a"), 1) == [("a",), ("a", "b")]


def test_neighborhood_basis_unknown_point():
    b = FiniteBase.of(["a"], [["a"]])
    with pytest.raises(InputError):
        b.opens_around(BasePoint("z"), 1)


def test_one_point_base_neighborhoods():
    b = OnePointBase("o")
    opens = b.opens_around(BasePoint("o"), 1)
    assert opens == [("o",)]
    assert b.contains_point(BasePoint("o"))
    assert not b.contains_point(BasePoint("x"))


def test_all_opens_examples():
    b = FiniteBase.of(["a", "b"], [["a"], ["a", "b"]])
    assert all_opens_finite(b) == frozenset({(), ("a",), ("a", "b")})
    discrete = FiniteBase.of(["a", "b"], [["a"], ["b"]])
    assert all_opens_finite(discrete) == frozenset(
        {(), ("a",), ("b",), ("a", "b")}
    )
    indiscrete = FiniteBase.of(["a", "b"], [["a", "b"]])
    assert all_opens_finite(indiscrete) == frozenset({(), ("a", "b")})


def test_all_opens_closed_under_union_and_intersection():
    # Exhaustive check on every valid random base produced by the
    # instance generator, carrier ignored.
    from mapcomplete.finite_oracle import random_instance

    for seed in range(40):
        b = random_instance(seed).base
        opens = all_opens_finite(b)
        sets = [frozenset(o) for o in opens]
        for s1, s2 in combinations(sets, 2):
            assert tuple(sorted(s1 | s2)) in opens
            assert tuple(sorted(s1 & s2)) in opens


def test_every_open_around_point_contains_a_basic_open():
    from mapcomplete.finite_oracle import random_instance

    for seed in range(20):
        b = random_instance(seed).base
        opens = all_opens_finite(b)
        for y in b.points:
            hood = b.opens_around(y, 1)
            assert all(y.id in o for o in hood)
            for o in opens:
                if y.id in o:
                    assert any(set(n) <= set(o) for n in hood)


def test_rational_order_opens_enumeration():
    b = RationalOrderBase()
    # the stream is total and every open is a genuine interval
    for k in range(50):
        o = b.basic_open(k)
        assert isinstance(o, RationalInterval)
        assert o.lo < o.hi


def test_rational_order_neighborhoods_contain_the_point():
    b = RationalOrderBase()
    y = BasePoint(Fraction(1, 3))
    opens = b.opens_around(y, 2000)[:10]
    assert len(opens) == 10
    assert all(o.contains_id(Fraction(1, 3)) for o in opens)


def test_rational_order_neighborhoods_shrink_arbitrarily():
    b = RationalOrderBase()
    y = BasePoint(Fraction(0))
    widths = [o.hi - o.lo for o in b.opens_around(y, 2000)]
    assert min(widths) < Fraction(1, 20)


def test_validate_basis_matches_the_whole_basis_scan():
    # Valid random and coarse bases, and invalid ones: random sets never
    # closed under intersection, with some points left uncovered. Basis
    # sets come in shuffled order, since the report follows it.
    rng = random.Random(0)
    kinds = {"valid": 0}
    for trial in range(300):
        ys = [f"y{i}" for i in range(1 + trial % 9)]
        if trial % 3 == 0:
            opens = _random_opens(rng, ys)
        elif trial % 3 == 1:
            opens = _coarse_opens(rng, ys)
        else:
            opens = {tuple(sorted(rng.sample(ys, rng.randint(1, len(ys)))))
                     for _ in range(rng.randint(0, 2 * len(ys)))}
        b = FiniteBase.of(ys, rng.sample(sorted(opens), len(opens)))
        report = validate_basis(b)
        assert report == basis_violations_by_scan(b), trial
        kinds["valid"] += not report
        for v in report:
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
    assert kinds["valid"] >= 50 and kinds["cover"] >= 20 and kinds["intersection"] >= 50


# The argument check of each method: the call, the exception it raises and
# its message.
_ARGUMENT_CHECKS = {
    "OnePointBase.opens_around": (
        lambda: OnePointBase("o").opens_around(BasePoint("zz"), 1),
        InputError, "point 'zz' does not belong to this base"),
    "RationalOrderBase.basic_open": (
        lambda: RationalOrderBase().basic_open(-1), InputError, "basic-open index starts at 0"),
    "RationalOrderBase.opens_around": (
        lambda: RationalOrderBase().opens_around(BasePoint("a"), 4),
        InputError, "point 'a' does not belong to this base"),
    # Built without FiniteBase.of, which checks the ids first.
    "validate_basis": (
        lambda: validate_basis(FiniteBase((BasePoint("a"), BasePoint("a")), (("a",),))),
        InputError, "duplicate point ids in base space"),
}


@pytest.mark.parametrize("name", sorted(_ARGUMENT_CHECKS))
def test_argument_check_raises_its_message(name):
    call, error, message = _ARGUMENT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_rational_order_point_takes_a_fraction_as_it_is():
    assert RationalOrderBase().point(Fraction(-2, 3)) == BasePoint(Fraction(-2, 3))
