"""The packed "no pseudometric break" test in front of the ordered loops.

``validate_pseudometric`` returns [] at once when ``_no_pseudometric_break``
says the loops would find nothing, so that test is a second way to a PASS.
Every case here compares it with the loops (run alone by raising the
cut-over) and with the Fraction oracle, which never calls the package's
validators.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcomplete import metric_mapping
from mapcomplete.base_topology import OnePointBase
from mapcomplete.errors import EvaluatorError
from mapcomplete.metric_mapping import (
    DistanceMatrix,
    FiniteCarrier,
    MetricMapping,
    _no_pseudometric_break,
    distance_matrix,
    validate_pseudometric,
)

from oracles import pseudometric_violations, stress_instance

CUT = metric_mapping._PACKED_MIN_POINTS


def _mapping(num: list[list[int]]) -> MetricMapping:
    """A ``custom`` mapping whose distance from the i-th to the j-th point
    is ``num[i][j]``, as given: it may be asymmetric or negative."""
    codes = [f"x{i:03d}" for i in range(len(num))]
    where = {code: i for i, code in enumerate(codes)}
    base = OnePointBase("o")
    return MetricMapping(
        FiniteCarrier.of(codes), base, lambda x: base.point,
        lambda x, x2: num[where[x.code]][where[x2.code]],
    )


def _loops(m: MetricMapping) -> list:
    """validate_pseudometric with the packed test out of reach."""
    n = len(m.points())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric_mapping, "_PACKED_MIN_POINTS", n + 1)
        return validate_pseudometric(m, n)


def _packed(num: list[list[int]]) -> bool:
    # The test reads only num.
    return _no_pseudometric_break(DistanceMatrix((), 1, num))


def _check(num: list[list[int]]) -> list:
    """The loops' report on ``num``, after asserting that the packed test,
    validate_pseudometric and the oracle all agree with it."""
    m = _mapping(num)
    loops = _loops(m)
    assert loops == pseudometric_violations(m, len(num))
    assert _no_pseudometric_break(distance_matrix(m)) is (loops == [])
    assert _packed(num) is (loops == [])
    assert validate_pseudometric(m, len(num)) == loops
    return loops


def _symmetric(n: int, entry) -> list[list[int]]:
    num = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        num[i][j] = num[j][i] = entry(i, j)
    return num


def _line(positions: list[int]) -> list[list[int]]:
    return [[abs(p - q) for q in positions] for p in positions]


def _planted(rng: random.Random, n: int, apex: int) -> tuple[list[list[int]], tuple]:
    """A metric with exactly one triangle break, on a random triple a < b < c.

    Off the triple every entry lies in [200, 300), so every triangle
    without two of its sides holds. The apex's two sides lie in [100, 130]
    and the third side in [261, 300): that triangle breaks via the apex,
    and each triangle through one short side holds (at least 100 + 200).
    ``apex`` 0, 1, 2 names a, b or c; returns the matrix and the
    (from, via, to) indices of the break as the loops report it."""
    a, b, c = sorted(rng.sample(range(n), 3))
    top = (a, b, c)[apex]
    far = [p for p in (a, b, c) if p != top]
    num = _symmetric(n, lambda i, j: rng.randrange(200, 300))
    for p in far:
        num[top][p] = num[p][top] = rng.randint(100, 130)
    num[far[0]][far[1]] = num[far[1]][far[0]] = rng.randrange(261, 300)
    return num, (far[0], top, far[1])


def test_the_cut_over_keeps_small_matrices_on_the_loops(monkeypatch):
    calls = []
    monkeypatch.setattr(metric_mapping, "_no_pseudometric_break",
                        lambda dm: calls.append(len(dm.num)) or True)
    for n in (6, CUT - 1):
        m = stress_instance(1, n, 4)
        assert validate_pseudometric(m, n) == []
    assert calls == []
    assert validate_pseudometric(stress_instance(1, CUT, 4), CUT) == []
    assert calls == [CUT]


@pytest.mark.parametrize("n", [CUT - 1, CUT, CUT + 9])
@pytest.mark.parametrize("apex", [0, 1, 2], ids=["via-a", "via-b", "via-c"])
def test_one_planted_break_in_each_orientation(n, apex):
    rng = random.Random(n * 3 + apex)
    for _ in range(3):
        num, (a, mid, b) = _planted(rng, n, apex)
        [violation] = _check(num)
        codes = tuple(f"x{i:03d}" for i in (a, mid, b))
        assert (violation.kind, violation.witness) == ("triangle", codes)


@pytest.mark.parametrize("n", [2, 3, CUT - 1, CUT, 32])
def test_random_integer_matrices_agree_with_the_loops(n):
    rng = random.Random(n)
    for _ in range(3):
        # Entries in [t, 2t) always form a metric; random points on a line
        # give a pseudometric with repeated points; small random entries
        # break triangles almost surely once n passes a handful.
        t = rng.choice([1, 5, 2**20, 2**70])
        assert _check(_symmetric(n, lambda i, j: rng.randrange(t, 2 * t))) == []
        assert _check(_line([rng.randrange(4 * n) for _ in range(n)])) == []
        _check(_symmetric(n, lambda i, j: rng.randrange(6)))


def _permuted(num: list[list[int]], order) -> list[list[int]]:
    return [[num[a][b] for b in order] for a in order]


def test_entries_at_field_boundaries():
    # Two points at distance 0 and a third at distance t from both fill a
    # field with 2t, just below the guard bit when t is 2^k - 1; each field
    # width, byte-sized and wider, is reached at one of t = 2^k, 2^k - 1.
    for k in range(1, 131):
        for t in (2**k, 2**k - 1):
            assert _packed(_line([0, 0, t, t - 1, t // 2]))
            # d(x0,x2) = t > (t - 1) + 0: one break by one unit, in every
            # order of the three points.
            broken = [[0, t - 1, t], [t - 1, 0, 0], [t, 0, 0]]
            for order in permutations(range(3)):
                assert _packed(_permuted(_line([0, 0, t]), order))
                assert not _packed(_permuted(broken, order))


@pytest.mark.parametrize("k", [3, 7, 8, 15, 31, 63, 64, 100])
def test_field_boundaries_through_the_validator(k):
    t = 2**k - 1
    rng = random.Random(k)
    positions = [0, 0, t, t] + [rng.randrange(t + 1) for _ in range(CUT - 4)]
    assert _check(_line(positions)) == []
    broken = _line(positions)
    broken[0][2] = broken[2][0] = t - 1  # x0 and x1 coincide, x2 at t from x1
    assert _check(broken)


def test_all_zero_matrix_passes():
    for n in (1, CUT):
        assert _check([[0] * n for _ in range(n)]) == []


def test_one_asymmetric_entry_goes_to_the_loops():
    num = _line(list(range(0, 3 * CUT, 3)))
    num[9][5] += 1  # a back entry: the forward entries stay a metric
    report = _check(num)
    assert [v.kind for v in report] == ["symmetry"]


def test_nonzero_diagonal_goes_to_the_loops():
    num = _line(list(range(CUT)))
    num[4][4] = 1
    assert [v.kind for v in _check(num)][:1] == ["identity"]


def test_negative_entries_go_to_the_loops():
    # The evaluator refuses the negative entry, so validate_pseudometric
    # raises before either test runs; handed the raw integers, the packed
    # test refuses them itself.
    num = _line(list(range(CUT)))
    num[2][7] = num[7][2] = -1
    with pytest.raises(EvaluatorError, match=r"^distance evaluator returned negative -1 "
                                             r"for \('x002', 'x007'\)$"):
        validate_pseudometric(_mapping(num), CUT)
    assert not _packed(num)
    assert not _packed([[0, -1], [-1, 0]])
    assert not _packed([[0, -1, 0], [-1, 0, 0], [0, 0, 0]])


@st.composite
def _tables(draw):
    """A small integer table: symmetric with zero diagonal and entries
    0..6, scaled to some field width, then up to three entries overwritten
    one way (asymmetry, a nonzero diagonal, a negative value)."""
    n = draw(st.integers(1, 7))
    scale = draw(st.sampled_from([1, 3, 2**7 - 1, 2**15, 2**31 - 1, 2**62, 2**64 + 1]))
    pairs = {(i, j): draw(st.integers(0, 6)) * scale for i, j in combinations(range(n), 2)}
    num = _symmetric(n, lambda i, j: pairs[(i, j)])
    index = st.integers(0, n - 1)
    edits = st.tuples(index, index, st.integers(-1, 7 * scale))
    for i, j, v in draw(st.lists(edits, max_size=3)):
        num[i][j] = v
    return num


@settings(max_examples=400, deadline=None, derandomize=True)
@given(num=_tables())
def test_packed_test_matches_the_oracle_on_small_tables(num):
    # True exactly when the oracle finds nothing; a negative entry makes
    # the oracle's evaluator raise, and the packed test False.
    if min(map(min, num)) < 0:
        with pytest.raises(EvaluatorError, match="returned negative -1"):
            pseudometric_violations(_mapping(num), len(num))
        assert not _packed(num)
        return
    oracle = pseudometric_violations(_mapping(num), len(num))
    assert _packed(num) is (oracle == [])
