"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS` line after its asserts
succeed; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from itertools import combinations

import pytest

from mapcomplete.base_topology import BasePoint, FiniteBase, OnePointBase
from mapcomplete.cli import run_command
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
from mapcomplete.finite_oracle import (
    finite_completion,
    is_complete_filter,
    is_complete_net,
    lemma2_check,
    random_instance,
)
from mapcomplete.metric_mapping import (
    CarrierPoint,
    RationalIntervalCarrier,
    abs_diff_mapping,
    closure_finite,
)
from mapcomplete.tied_cauchy import const_seq, newton_sqrt_seq, table_seq

from oracles import SQRT2_GAP_TO_3_2

SEEDS = range(200)
EPS9 = Fraction(1, 10**9)
# The decimal anchor for |sqrt(2) - 3/2|, good to ~17 digits; the frozen
# 50-digit oracle value confirms it well inside the 10^-6 tolerance.
ANCHOR = Fraction(85786437626904954, 10**18)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def suite():
    return {seed: random_instance(seed, 6, 3) for seed in SEEDS}


@pytest.fixture(scope="module")
def interval():
    return abs_diff_mapping(
        RationalIntervalCarrier(Fraction(0), Fraction(3)),
        OnePointBase("o"),
        lambda x: BasePoint("o"),
    )


def test_01_isometry_exact(suite):
    start = time.monotonic()
    checked = 0
    for m in suite.values():
        for x, x2 in combinations(m.points(), 2):
            expected = m.distance(x, x2)
            for eps in (Fraction(1), EPS9):
                assert dstar_approx(embed(m, x), embed(m, x2), eps) == expected
                checked += 1
    elapsed = time.monotonic() - start
    assert checked > 0
    assert elapsed < 10.0, f"isometry sweep took {elapsed:.1f}s"
    _passed(1, "embedding isometry exact on 200 instances")


def test_02_projection_identity(suite):
    for m in suite.values():
        for x in m.points():
            assert fstar(embed(m, x)) == m.fiber_of(x)
    _passed(2, "projection identity on 200 instances")


def test_03_sqrt2_anchor(interval):
    start = time.monotonic()
    p = CompletionPoint(newton_sqrt_seq(interval, Fraction(2)))
    q = embed(interval, CarrierPoint(Fraction(3, 2)))
    eps = Fraction(1, 10**6)
    value = dstar_approx(p, q, eps)
    assert abs(value - SQRT2_GAP_TO_3_2) <= eps
    assert abs(value - ANCHOR) <= eps
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"anchor took {elapsed:.2f}s"
    _passed(3, "sqrt(2) anchor within 1e-6")


def _triple_pool(interval):
    emb = [embed(interval, CarrierPoint(Fraction(k, 7))) for k in range(1, 9)]
    tables = [
        CompletionPoint(
            table_seq(
                interval,
                [CarrierPoint(t + Fraction(1, 3)), CarrierPoint(t + Fraction(1, 5))],
                CarrierPoint(t),
            )
        )
        for t in (
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(1),
            Fraction(5, 4),
            Fraction(3, 2),
            Fraction(2),
        )
    ]
    roots = [
        CompletionPoint(newton_sqrt_seq(interval, a))
        for a in (
            Fraction(1),
            Fraction(5, 4),
            Fraction(3, 2),
            Fraction(2),
            Fraction(9, 4),
            Fraction(3),
        )
    ]
    return emb + tables + roots


def test_04_dstar_pseudometric_at_1e9(interval):
    pool = _triple_pool(interval)
    triples = list(combinations(pool, 3))
    assert len(triples) >= 1000
    for p, q, r in triples:
        d_pr = dstar_approx(p, r, EPS9)
        d_pq = dstar_approx(p, q, EPS9)
        d_qr = dstar_approx(q, r, EPS9)
        assert d_pr <= d_pq + d_qr + 3 * EPS9
        assert abs(d_pq - dstar_approx(q, p, EPS9)) <= 2 * EPS9
    _passed(4, f"pseudometric over {len(triples)} triples at eps=1e-9")


def test_05_completeness_crosscheck(suite):
    start = time.monotonic()
    for seed, m in suite.items():
        assert is_complete_filter(m).ok == is_complete_net(m).ok, f"seed {seed}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"crosscheck took {elapsed:.1f}s"
    _passed(5, "filter and sequence completeness agree on 200 instances")


def test_06_cluster_limit_identity(suite):
    for seed, m in suite.items():
        assert lemma2_check(m).ok, f"seed {seed}"
    _passed(6, "cluster/limit identity holds on 200 instances")


def test_07_completion_is_complete_isometric_dense(suite):
    for seed, m in suite.items():
        comp = finite_completion(m)
        star = comp.instance
        assert is_complete_filter(star).ok, f"seed {seed}"
        for x, x2 in combinations(m.points(), 2):
            assert star.distance(comp.embedding[x], comp.embedding[x2]) == m.distance(
                x, x2
            ), f"seed {seed}"
        image = frozenset(comp.embedding[x] for x in m.points())
        assert closure_finite(star, image) == frozenset(star.points()), f"seed {seed}"
    _passed(7, "finite completions complete, isometric, dense on 200 instances")


def test_08_worked_incomplete_instance():
    base = FiniteBase.of(["a", "b"], [["b"], ["a", "b"]])
    from mapcomplete.metric_mapping import table_mapping

    m = table_mapping(base, {"x_b": "b"}, {})
    verdict = is_complete_filter(m)
    assert not verdict.ok
    y, tied = verdict.certificate
    assert y == BasePoint("a")
    assert {p.code for p in tied} == {"x_b"}
    comp = finite_completion(m)
    star_points = comp.instance.points()
    assert len(star_points) == 2
    assert comp.instance.distance(*star_points) == 0
    assert is_complete_filter(comp.instance).ok
    _passed(8, "worked incomplete instance and its 2-point completion")


def test_09_density_witness_contract(suite, interval):
    epsilons = (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
    trials = 0

    def run_trial(p, basic_open):
        nonlocal trials
        m = p.mapping
        for eps in epsilons:
            x = density_witness(p, eps, basic_open)
            assert dstar_approx(p, embed(m, x), eps / 4) <= eps + eps / 4
            if isinstance(m.base, FiniteBase):
                assert m.fiber_of(x).id in basic_open
            else:
                assert m.base.open_contains(basic_open, m.fiber_of(x))
            trials += 1

    for seed in range(32):
        m = suite[seed]
        x0 = m.points()[0]
        open_of = next(o for o in m.base.basis if m.fiber_of(x0).id in o)
        run_trial(embed(m, x0), open_of)
        partner = next(
            (v for v in m.points()[1:] if m.distance(x0, v) <= 1), None
        )
        if partner is not None:
            p = CompletionPoint(table_seq(m, [partner], x0))
            run_trial(p, open_of)

    whole = interval.base.opens_around(BasePoint("o"), 1)[0]
    run_trial(CompletionPoint(newton_sqrt_seq(interval, Fraction(2))), whole)
    run_trial(CompletionPoint(newton_sqrt_seq(interval, Fraction(3))), whole)
    run_trial(
        CompletionPoint(
            table_seq(interval, [CarrierPoint(Fraction(4, 3))], CarrierPoint(Fraction(1)))
        ),
        whole,
    )
    assert trials >= 100
    _passed(9, f"density witness contract over {trials} trials")


def test_10_limit_point_convergence(suite, interval):
    sequences = [
        lift_seq(newton_sqrt_seq(interval, Fraction(2))),
        lift_seq(newton_sqrt_seq(interval, Fraction(3))),
        lift_seq(
            table_seq(interval, [CarrierPoint(Fraction(4, 3))], CarrierPoint(Fraction(1)))
        ),
        const_completion_seq(CompletionPoint(newton_sqrt_seq(interval, Fraction(2)))),
        const_completion_seq(embed(interval, CarrierPoint(Fraction(1, 2)))),
    ]
    for seed in range(15):
        m = suite[seed]
        sequences.append(lift_seq(const_seq(m, m.points()[0])))
    assert len(sequences) == 20
    for psi in sequences:
        limit = limit_point(psi)
        for k in range(1, 21):
            measured = dstar_approx(psi.at(k), limit, Fraction(1, 4 * k))
            assert measured <= Fraction(1, k) + Fraction(1, 4 * k)
    _passed(10, "limit point convergence for 20 sequences, k = 1..20")


def test_11_cli_round_trip(tmp_path, capsys):
    incomplete = {
        "base": {"kind": "finite", "points": ["a", "b"], "basis": [["b"], ["a", "b"]]},
        "carrier": {"kind": "finite", "points": ["x_b"]},
        "fiber_map": {"kind": "table", "entries": {"x_b": "b"}},
        "distance": {"kind": "table", "entries": []},
    }
    src = tmp_path / "incomplete.json"
    src.write_text(json.dumps(incomplete), encoding="utf-8")
    out = tmp_path / "completed.json"

    assert run_command(["complete-construct", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_command(["validate", str(out)]) == 0
    capsys.readouterr()
    assert run_command(["complete-check", str(out)]) == 0
    assert "PROP complete_check PASS COMPLETE" in capsys.readouterr().out

    malformed = dict(incomplete)
    malformed["distance"] = {"kind": "table", "entries": [["x_b", "x_b", "0.5"]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malformed), encoding="utf-8")
    assert run_command(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "$.distance.entries[0]" in err
    _passed(11, "CLI round-trip and malformed-input diagnostics")
