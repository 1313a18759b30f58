"""Each check answers with its first violation and builds no other.

Every input here breaks its axiom many times. A counting subclass of
``Violation`` stands in for the class in the check's module, so the test
sees every violation the check builds, returned or not. The answer must
be the one built, and it must be the first in the check's documented
order: the oracles in ``tests/oracles.py`` give that order for the basis,
pseudometric and fiberwise checks.
"""

from __future__ import annotations

from dataclasses import astuple
from fractions import Fraction
from itertools import combinations

import pytest

from mapcomplete import base_topology, metric_mapping, tied_cauchy
from mapcomplete.base_topology import BasePoint, FiniteBase
from mapcomplete.errors import Violation
from mapcomplete.metric_mapping import table_mapping
from mapcomplete.tied_cauchy import RegularSeq, TiedCauchySeq, TyingWitness, const_seq

from oracles import basis_violations_by_scan, fiberwise_violations, pseudometric_violations

ONE = FiniteBase.of(["a"], [["a"]])


def _halves(n: int):
    """2n points: 3 apart within a half, 1 across, so each pair of one
    half breaks the triangle inequality via each point of the other."""
    codes = [f"x{i:02d}" for i in range(2 * n)]
    dist = {(a, b): 3 if (i < n) == (j < n) else 1
            for (i, a), (j, b) in combinations(enumerate(codes), 2)}
    return table_mapping(ONE, dict.fromkeys(codes, "a"), dist)


def _pseudometric():
    m = _halves(8)
    return (metric_mapping, lambda: metric_mapping.validate_pseudometric(m, 16),
            pseudometric_violations(m, 16))


def _basis():
    b = FiniteBase.of(["a", "b", "c", "d"], [["a"]])
    return base_topology, lambda: base_topology.validate_basis(b), basis_violations_by_scan(b)


def _fiberwise():
    m = table_mapping(ONE, {"u": "a", "v": "a", "w": "a"},
                      {("u", "v"): 0, ("u", "w"): 0, ("v", "w"): 0})
    return (metric_mapping, lambda: metric_mapping.validate_fiberwise_metric(m, 3),
            fiberwise_violations(m, 3))


def _regularity():
    # p0, p1, p0, ... at distance 1: at(m) and at(n) of unlike parity
    # break d <= 1/m + 1/n once 1/m + 1/n < 1.
    m = table_mapping(ONE, {"p0": "a", "p1": "a"}, {("p0", "p1"): 1})
    p0, p1 = m.points()
    s = TiedCauchySeq(m, RegularSeq(lambda n: p1 if n % 2 else p0), BasePoint("a"),
                      TyingWitness(lambda o: 1))
    every = [Violation("regularity", f"d(at({i}),at({j})) = 1 > 1/{i} + 1/{j}", (i, j, 1))
             for i, j in combinations(range(1, 17), 2)
             if i % 2 != j % 2 and Fraction(1, i) + Fraction(1, j) < 1]
    return tied_cauchy, lambda: tied_cauchy.check_regularity(s, 16), every


def _tying():
    # x_b, x_b, ... claimed tied at a, where each of a's three basic opens
    # leaves b out.
    base = FiniteBase.of(["a", "b", "c", "d"],
                         [["a"], ["a", "c"], ["a", "d"], ["b"], ["c"], ["d"]])
    m = table_mapping(base, {"x_a": "a", "x_b": "b"}, {("x_a", "x_b"): 1})
    s = const_seq(m, m.points()[1], BasePoint("a"))
    opens = base.opens_around(BasePoint("a"), 1)
    assert opens == [("a",), ("a", "c"), ("a", "d")]
    every = [Violation("tying", f"fiber of at(1) is 'b', outside {{{','.join(o)}}} "
                                "despite witness index 1", ("{" + ",".join(o) + "}", 1, "b"))
             for o in opens]
    return tied_cauchy, lambda: tied_cauchy.check_tying(s, 1), every


CASES = {
    "pseudometric": _pseudometric,
    "basis": _basis,
    "fiberwise": _fiberwise,
    "regularity": _regularity,
    "tying": _tying,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_check_builds_one_violation(monkeypatch, name):
    module, check, every = CASES[name]()
    assert len(every) > 1

    built = []

    class Counted(Violation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(module, "Violation", Counted)
    answer = check()
    assert built == [answer]
    # A dataclass compares its class too; compare the fields.
    assert astuple(answer) == astuple(every[0])
