"""Tests of the benchmark's own generator, reference verdict and checks.

    PYTHONPATH=src python3 -m pytest -q benchmark

The reference verdict must agree with both of the package's deciders,
and every check must accept the CLI's real output and reject a tampered
one.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import json  # noqa: E402

import pytest  # noqa: E402

from mapcomplete import cli  # noqa: E402
from mapcomplete.base_topology import validate_basis  # noqa: E402
from mapcomplete.cli_io import parse_instance  # noqa: E402
from mapcomplete.finite_oracle import (  # noqa: E402
    is_complete_filter,
    is_complete_net,
    random_instance,
)
from mapcomplete.metric_mapping import (  # noqa: E402
    validate_fiberwise_metric,
    validate_pseudometric,
)
from run import _invoke  # noqa: E402
from workloads import (  # noqa: E402
    INTERVAL,
    OK,
    TOP_RUNG,
    WORKLOADS,
    WRONG,
    Invocation,
    dstar_op,
    dstar_value_ok,
    finite_tables,
    finite_tables_with_verdict,
    reference_complete,
    tables_of,
    valid_certificate,
)


def _mapping(t):
    return parse_instance(json.dumps(t.document()))


def test_generated_instances_are_valid_and_reference_matches_net_decider():
    rng = random.Random(0)
    for i in range(48):
        n, m = 3 + i % 14, 3 + i % 2
        t = finite_tables(rng, n, m)
        mm = _mapping(t)
        assert not validate_basis(mm.base)
        assert not validate_pseudometric(mm, n)
        assert not validate_fiberwise_metric(mm, n)
        assert reference_complete(t) == is_complete_net(mm).ok


@pytest.mark.parametrize("complete", [True, False])
def test_reference_matches_filter_decider_and_its_certificates(complete):
    rng = random.Random(1)
    for n in range(4, 11):
        t = finite_tables_with_verdict(rng, n, 3 + n % 2, complete)
        verdict = is_complete_filter(_mapping(t))
        assert verdict.ok == complete
        if not complete:
            y, tied = verdict.certificate
            assert valid_certificate(t, y.id, frozenset(p.code for p in tied))


def test_reference_matches_deciders_on_suite_instances():
    for seed in range(120):
        m = random_instance(seed, 6, 3)
        expected = reference_complete(tables_of(m))
        assert is_complete_filter(m).ok == expected
        assert is_complete_net(m).ok == expected


def test_certificate_check_rejects_non_witnesses():
    t = finite_tables_with_verdict(random.Random(2), 8, 3, False)
    y, tied = is_complete_filter(_mapping(t)).certificate
    tied = frozenset(p.code for p in tied)
    assert valid_certificate(t, y.id, tied)
    assert not valid_certificate(t, y.id, frozenset())
    assert not valid_certificate(t, "nowhere", tied)
    over_y = next(x for x, fy in t.fibers.items() if fy == y.id)
    assert not valid_certificate(t, y.id, frozenset({over_y}))


def test_dstar_value_check_is_exact():
    u = Fraction(3, 2)
    for _ in range(8):
        u = u / 2 + 1 / u  # upper bounds of sqrt(2), within 10^-100 after 8 steps
    gap = Fraction(3, 2) - u  # just below 3/2 - sqrt(2)
    eps = Fraction(1, 10**50)
    assert dstar_value_ok(gap, eps)
    assert dstar_value_ok(gap + eps / 2, eps)
    assert not dstar_value_ok(gap + 2 * eps, eps)
    assert not dstar_value_ok(gap - 2 * eps, eps)


def _tampered(r: Invocation) -> Invocation:
    lines = r.out.splitlines()
    lines[-1] = "SUMMARY 0/0"
    return r._replace(out="\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_real_output_and_reject_tampered(name, tmp_path):
    ops = WORKLOADS[name].prepare(0, tmp_path)
    for op in ops[:2]:
        results = [_invoke(cli, argv)[0] for argv in op.argvs]
        assert op.check(results) == OK, op.size
        assert op.check([_tampered(r) for r in results]) == WRONG
        assert op.check([r._replace(code=2) for r in results]) == WRONG


def test_dstar_ladder_reaches_the_highest_eps_the_cli_accepts(tmp_path):
    ops = {op.size: op for op in WORKLOADS["dstar-ladder"].prepare(0, tmp_path)}
    assert len(ops) == 64 and "k=9" in ops and f"k={TOP_RUNG}" in ops
    assert TOP_RUNG + 1 == sys.get_int_max_str_digits()
    for size in ("k=9", f"k={TOP_RUNG}"):
        results = [_invoke(cli, argv)[0] for argv in ops[size].argvs]
        assert ops[size].check(results) == OK, size


@pytest.mark.xfail(strict=True, reason="parse_rational refuses an --eps of more than 4300 "
                   "digits (Python's int-string limit); extend the ladder when this passes")
@pytest.mark.parametrize("k", [TOP_RUNG + 1, 10000])
def test_dstar_past_the_int_string_limit(k, tmp_path):
    path = str(tmp_path / "interval.json")
    (tmp_path / "interval.json").write_text(json.dumps(INTERVAL), encoding="utf-8")
    op = dstar_op(path, k)
    assert op.check([_invoke(cli, argv)[0] for argv in op.argvs]) == OK
