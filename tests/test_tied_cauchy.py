from __future__ import annotations

import math
from fractions import Fraction

import pytest

from mapcomplete.base_topology import BasePoint, OnePointBase
from mapcomplete.errors import InputError, WitnessError
from mapcomplete.metric_mapping import CarrierPoint, RationalIntervalCarrier, abs_diff_mapping
from mapcomplete.rationals import frac_ceil
from mapcomplete.tied_cauchy import (
    RegularSeq,
    TiedCauchySeq,
    TyingWitness,
    check_regularity,
    check_tying,
    const_seq,
    newton_sqrt_seq,
    table_seq,
)

from oracles import newton_term_by_fractions, sqrt_interval


def test_const_seq_defaults(sierpinski, by_code):
    x_a = by_code(sierpinski, "x_a")
    s = const_seq(sierpinski, x_a)
    assert s.at(1) == s.at(100) == x_a
    assert s.y == BasePoint("a")
    assert s.tie.index_for(("a",)) == 1
    assert check_regularity(s, 16) == []
    assert check_tying(s, 16) == []


def test_const_seq_rejects_foreign_point(sierpinski):
    with pytest.raises(InputError):
        const_seq(sierpinski, CarrierPoint("nope"))


def test_newton_regularity_depth_32(interval_mapping):
    s = newton_sqrt_seq(interval_mapping, Fraction(2))
    assert check_regularity(s, 32) == []


def test_newton_terms_approach_the_oracle_interval(interval_mapping):
    s = newton_sqrt_seq(interval_mapping, Fraction(2))
    lo, hi = sqrt_interval(Fraction(2))
    for n in (1, 10, 204, 205, 4096):
        x = s.at(n).code
        assert max(abs(x - lo), abs(x - hi)) < Fraction(1, n)


# Log-spaced digit counts up to the top of the dstar ladder, 10^-4299.
NEWTON_DIGITS = (1, 3, 9, 27, 81, 243, 729, 2187, 4299)


@pytest.mark.parametrize(
    "a", [Fraction(1), Fraction(2), Fraction(9, 4), Fraction(7, 3), Fraction(5, 2),
          Fraction(1000003, 999983)], ids=str)
def test_newton_terms_match_the_fraction_recurrence(interval_mapping, a):
    s = newton_sqrt_seq(interval_mapping, a)
    for n in [2 * 10**k for k in NEWTON_DIGITS] + list(range(1, 65)):
        code = s.at(n).code
        assert code == newton_term_by_fractions(a, n), n
        assert math.gcd(code.numerator, code.denominator) == 1


def test_newton_top_rung_term_normalises_once_per_iterate(interval_mapping, monkeypatch):
    # The term dstar evaluates at eps = 10^-4299 takes 13 iterates; Fraction
    # calls math.gcd once per normalisation, so at most once per iterate
    # after the start, on every evaluation, since no term is kept.
    s = newton_sqrt_seq(interval_mapping, Fraction(2))
    gcd = math.gcd
    codes = []
    for _ in range(2):
        calls = []
        monkeypatch.setattr(math, "gcd", lambda *args: calls.append(args) or gcd(*args))
        codes.append(s.at(2 * 10**4299).code)
        monkeypatch.undo()
        assert len(calls) <= 12
    assert codes[0] == codes[1]
    assert codes[0].denominator.bit_length() == 10416


def test_newton_term_that_leaves_the_carrier_is_refused():
    # On (29/20, 3) the start 3/2 lies inside, and at(6) stops there; at(7)
    # takes the next iterate, 17/12 < 29/20, which lies outside.
    m = abs_diff_mapping(
        RationalIntervalCarrier(Fraction(29, 20), Fraction(3)), OnePointBase("o"),
        lambda x: BasePoint("o"),
    )
    s = newton_sqrt_seq(m, Fraction(2))
    assert s.at(6).code == Fraction(3, 2)
    with pytest.raises(InputError, match=r"^point '17/12' is not in the carrier$"):
        s.at(7)


def test_newton_preconditions(unit_interval_identity, sierpinski):
    with pytest.raises(InputError):
        newton_sqrt_seq(unit_interval_identity, Fraction(1, 2))  # a < 1
    with pytest.raises(InputError):
        newton_sqrt_seq(sierpinski, Fraction(2))  # table distance, not abs_diff
    with pytest.raises(InputError):
        # start iterate (a+1)/2 = 3/2 falls outside the carrier (0, 1)
        newton_sqrt_seq(unit_interval_identity, Fraction(2))


def test_harmonic_sequence_is_regular(unit_interval_identity):
    m = unit_interval_identity
    s = TiedCauchySeq(
        m,
        RegularSeq(lambda n: CarrierPoint(Fraction(1, n + 1))),
        BasePoint(Fraction(0)),
        TyingWitness(lambda o: frac_ceil(1 / o.hi)),
    )
    assert check_regularity(s, 64) == []


def test_alternating_sequence_violates_first_at_2_3():
    from mapcomplete.base_topology import FiniteBase
    from mapcomplete.metric_mapping import table_mapping

    base = FiniteBase.of(["a"], [["a"]])
    m = table_mapping(base, {"p0": "a", "p1": "a"}, {("p0", "p1"): Fraction(1)})
    p0, p1 = m.points()
    s = TiedCauchySeq(
        m,
        RegularSeq(lambda n: p1 if n % 2 else p0),
        BasePoint("a"),
        TyingWitness(lambda o: 1),
    )
    report = check_regularity(s, 8)
    assert report
    assert report[0].witness[:2] == (2, 3)


def test_tying_const_on_both_opens(sierpinski, by_code):
    s = const_seq(sierpinski, by_code(sierpinski, "x_a"))
    assert check_tying(s, 12) == []


def test_tying_cross_fiber_claim_holds_on_nested_basis(incomplete_instance, by_code):
    # x_b, x_b, ... declared tied to a: the only basic open around a is
    # {a, b}, and the fiber b lies inside it.
    x_b = by_code(incomplete_instance, "x_b")
    s = const_seq(incomplete_instance, x_b, BasePoint("a"))
    assert check_tying(s, 12) == []


def test_tying_cross_fiber_claim_fails_on_discrete_basis(sierpinski_discrete, by_code):
    x_b = by_code(sierpinski_discrete, "x_b")
    s = const_seq(sierpinski_discrete, x_b, BasePoint("a"))
    report = check_tying(s, 12)
    assert [v.kind for v in report] == ["tying"]


def test_table_seq_tie_scan(sierpinski, by_code):
    x_a, x_b = by_code(sierpinski, "x_a"), by_code(sierpinski, "x_b")
    s = table_seq(sierpinski, [x_b, x_b], x_a)
    assert s.at(1) == x_b and s.at(2) == x_b and s.at(3) == x_a
    # {a} only contains the tail fiber; {a,b} contains everything
    assert s.tie.index_for(("a",)) == 3
    assert s.tie.index_for(("a", "b")) == 1
    assert check_tying(s, 16) == []


def test_table_seq_rejects_irregular_prefix(interval_mapping):
    half = CarrierPoint(Fraction(1, 2))
    far = CarrierPoint(Fraction(5, 2))
    with pytest.raises(InputError):
        table_seq(interval_mapping, [far], half)  # d(at(1), tail) = 2 > 1


def test_table_seq_witness_errors_on_unreachable_open(sierpinski_discrete, by_code):
    x_b = by_code(sierpinski_discrete, "x_b")
    s = table_seq(sierpinski_discrete, [], x_b, BasePoint("a"))
    report = check_tying(s, 8)
    assert [v.kind for v in report] == ["witness"]


def test_tying_on_rational_order_base(unit_interval_identity):
    m = unit_interval_identity
    honest = TiedCauchySeq(
        m,
        RegularSeq(lambda n: CarrierPoint(Fraction(1, n + 1))),
        BasePoint(Fraction(0)),
        TyingWitness(lambda o: frac_ceil(1 / o.hi) + 1),
    )
    assert check_tying(honest, 40) == []
    lying = TiedCauchySeq(m, honest.seq, BasePoint(Fraction(0)), TyingWitness(lambda o: 1))
    report = check_tying(lying, 40)
    assert report and all(v.kind == "tying" for v in report)


def test_memoized_sequences_are_thread_transparent(interval_mapping):
    # Concurrent evaluation of a memoizing term function must agree with
    # sequential evaluation.
    import threading

    s = newton_sqrt_seq(interval_mapping, Fraction(2))
    expected = {n: s.at(n).code for n in range(1, 300, 7)}

    fresh = newton_sqrt_seq(interval_mapping, Fraction(2))
    results: dict[int, object] = {}
    errors: list[BaseException] = []

    def worker(indices):
        try:
            for n in indices:
                results[n] = fresh.at(n).code
        except BaseException as e:  # pragma: no cover - failure reporting
            errors.append(e)

    all_indices = list(range(1, 300, 7))
    threads = [
        threading.Thread(target=worker, args=(all_indices[i::4],)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert results == expected


_LINE = abs_diff_mapping(
    RationalIntervalCarrier(Fraction(0), Fraction(3)), OnePointBase("o"), lambda x: BasePoint("o")
)
_HALF = const_seq(_LINE, CarrierPoint(Fraction(1, 2)))
_FAR = [CarrierPoint(Fraction(1, 10)), CarrierPoint(Fraction(29, 10))]

# The argument check of each function or method: the call, the exception
# it raises and its message.
_ARGUMENT_CHECKS = {
    "RegularSeq.at": (lambda: _HALF.seq.at(0), InputError,
                      "sequence index must be a positive integer, got 0"),
    "TyingWitness.index_for": (lambda: TyingWitness(lambda o: 0).index_for(("o",)), WitnessError,
                               "tying witness returned 0 for {o}; expected a positive integer"),
    "const_seq target": (lambda: const_seq(_LINE, _FAR[0], BasePoint("zz")), InputError,
                         "tying target 'zz' does not belong to the base space"),
    "table_seq prefix pair": (lambda: table_seq(_LINE, _FAR, _FAR[1]), InputError,
                              "table sequence is not regular: d(at(1),at(2)) = 14/5 > 1/1 + 1/2"),
    "check_regularity": (lambda: check_regularity(_HALF, 1), InputError,
                         "depth must be at least 2"),
    "check_tying": (lambda: check_tying(_HALF, 0), InputError, "depth must be at least 1"),
}


@pytest.mark.parametrize("name", sorted(_ARGUMENT_CHECKS))
def test_argument_check_raises_its_message(name):
    call, error, message = _ARGUMENT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
