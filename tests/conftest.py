from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mapcomplete import (
    BasePoint,
    FiniteBase,
    OnePointBase,
    RationalGridCarrier,
    RationalIntervalCarrier,
    RationalOrderBase,
    abs_diff_mapping,
    max_metric_mapping,
    table_mapping,
)


@pytest.fixture
def sierpinski():
    """Two carrier points at distance 0 in different fibers; complete."""
    base = FiniteBase.of(["a", "b"], [["a"], ["a", "b"]])
    return table_mapping(
        base, {"x_a": "a", "x_b": "b"}, {("x_a", "x_b"): Fraction(0)}
    )


@pytest.fixture
def sierpinski_discrete():
    """Same carrier and distances, discrete base."""
    base = FiniteBase.of(["a", "b"], [["a"], ["b"]])
    return table_mapping(
        base, {"x_a": "a", "x_b": "b"}, {("x_a", "x_b"): Fraction(0)}
    )


@pytest.fixture
def incomplete_instance():
    """One carrier point over b; the fiber over a is empty but tied sets
    for a exist, so the instance is incomplete."""
    base = FiniteBase.of(["a", "b"], [["b"], ["a", "b"]])
    return table_mapping(base, {"x_b": "b"}, {})


@pytest.fixture
def interval_mapping():
    """Rationals in (0, 3) with |x - x'|, over the one-point base."""
    return abs_diff_mapping(
        RationalIntervalCarrier(Fraction(0), Fraction(3)),
        OnePointBase("o"),
        lambda x: BasePoint("o"),
    )


@pytest.fixture
def unit_interval_identity():
    """Rationals in (0, 1) with |x - x'|, identity fiber onto the
    rational order base."""
    return abs_diff_mapping(
        RationalIntervalCarrier(Fraction(0), Fraction(1)),
        RationalOrderBase(),
        lambda x: BasePoint(x.code),
    )


@pytest.fixture
def grid_mapping():
    """3x3 rational grid with the maximum metric, one-point base."""
    return max_metric_mapping(
        RationalGridCarrier(Fraction(1, 2), Fraction(0), Fraction(1)),
        OnePointBase("o"),
        lambda x: BasePoint("o"),
    )


def point_of(m, code):
    for p in m.points():
        if p.code == code:
            return p
    raise AssertionError(f"no carrier point {code!r}")


@pytest.fixture
def by_code():
    return point_of
