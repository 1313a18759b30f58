from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapcomplete.errors import InputError
from mapcomplete.metric_mapping import RationalIntervalCarrier
from mapcomplete.rationals import (
    decimal_approx,
    format_rational,
    frac_ceil,
    nth_positive_rational,
    nth_rational,
    nth_unit_rational,
    parse_rational,
)

from oracles import fusc_pair_by_recursion, interval_point_by_fractions, unit_rational_by_fractions

rationals = st.fractions(max_denominator=10**6)


def test_parse_basic_forms():
    assert parse_rational("3") == 3
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-7/3") == Fraction(-7, 3)
    assert parse_rational("2/4") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["0.5", "1e3", "", "1/0", "a", "1 / 2", None, 2])
def test_parse_rejects_inexact_or_malformed(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_lowest_terms():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_decimal_approx_is_exact_division():
    assert decimal_approx(Fraction(1, 3), 6) == "0.333333"
    assert decimal_approx(Fraction(-1, 8), 4) == "-0.1250"
    assert decimal_approx(Fraction(2), 3) == "2.000"


def test_frac_ceil():
    assert frac_ceil(Fraction(7, 3)) == 3
    assert frac_ceil(Fraction(6, 3)) == 2
    assert frac_ceil(Fraction(-7, 3)) == -2


def test_positive_rational_enumeration_is_injective_and_total():
    seen = {nth_positive_rational(n) for n in range(1, 400)}
    assert len(seen) == 399
    assert all(q > 0 for q in seen)
    # Calkin-Wilf starts 1, 1/2, 2, 1/3, 3/2
    assert [nth_positive_rational(n) for n in range(1, 6)] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(2),
        Fraction(1, 3),
        Fraction(3, 2),
    ]


def test_rational_enumeration_covers_signs():
    values = [nth_rational(n) for n in range(200)]
    assert len(set(values)) == 200
    assert Fraction(0) in values
    assert any(v < 0 for v in values) and any(v > 0 for v in values)


def test_unit_rational_enumeration_stays_inside():
    values = [nth_unit_rational(n) for n in range(200)]
    assert len(set(values)) == 200
    assert all(0 < v < 1 for v in values)


# Indices within 3 of 2^64 and 2^200: Stern pairs of 64 to 201 steps.
_FAR = [n for top in (2**64, 2**200) for n in range(top - 3, top + 4)]


def test_enumerations_match_the_recursive_fraction_oracle():
    carrier = RationalIntervalCarrier(Fraction(-5, 3), Fraction(7, 2))
    for n in [*range(10**4), *_FAR]:
        if n:
            assert nth_positive_rational(n) == Fraction(*fusc_pair_by_recursion(n))
        assert nth_unit_rational(n) == unit_rational_by_fractions(n)
        assert carrier.enumerate_point(n).code == interval_point_by_fractions(
            carrier.lo, carrier.hi, n
        )


_ENDPOINTS = st.fractions(min_value=-20, max_value=20, max_denominator=60)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ENDPOINTS, _ENDPOINTS, st.one_of(st.integers(0, 10**4), st.sampled_from(_FAR)))
def test_interval_points_match_the_fraction_oracle(a, b, n):
    assume(a != b)
    lo, hi = min(a, b), max(a, b)
    code = RationalIntervalCarrier(lo, hi).enumerate_point(n).code
    assert type(code) is Fraction and lo < code < hi
    assert code == interval_point_by_fractions(lo, hi, n)


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
                    reason="needs the 4300-digit int-string limit")
def test_text_past_the_int_string_limit_is_an_input_error():
    long = "1" + "0" * 5000
    for text in (long, f"-{long}", f"1/{long}", f"{long}/3"):
        with pytest.raises(InputError, match="integer of 5001 digits") as err:
            parse_rational(text, path="$.x")
        assert err.value.path == "$.x"
    with pytest.raises(InputError, match="numerator or denominator"):
        format_rational(Fraction(1, 10**5000))
    with pytest.raises(InputError, match="numerator or denominator"):
        format_rational(Fraction(10**5000))


# The argument check of each enumeration: the call, the exception it raises
# and its message.
_ARGUMENT_CHECKS = {
    "nth_positive_rational": (lambda: nth_positive_rational(0), InputError,
                              "positive-rational index starts at 1"),
    "nth_rational": (lambda: nth_rational(-1), InputError, "rational index starts at 0"),
    "nth_unit_rational": (lambda: nth_unit_rational(-1), InputError,
                          "unit-rational index starts at 0"),
}


@pytest.mark.parametrize("name", sorted(_ARGUMENT_CHECKS))
def test_argument_check_raises_its_message(name):
    call, error, message = _ARGUMENT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
