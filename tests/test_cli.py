from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mapcomplete.cli import run_command
from mapcomplete.cli_io import Report, instance_document, parse_instance, parse_point_spec
from mapcomplete.errors import InputError

SIERPINSKI_DOC = {
    "base": {"kind": "finite", "points": ["a", "b"], "basis": [["a"], ["a", "b"]]},
    "carrier": {"kind": "finite", "points": ["x_a", "x_b"]},
    "fiber_map": {"kind": "table", "entries": {"x_a": "a", "x_b": "b"}},
    "distance": {"kind": "table", "entries": [["x_a", "x_b", "0"]]},
}

INCOMPLETE_DOC = {
    "base": {"kind": "finite", "points": ["a", "b"], "basis": [["b"], ["a", "b"]]},
    "carrier": {"kind": "finite", "points": ["x_b"]},
    "fiber_map": {"kind": "table", "entries": {"x_b": "b"}},
    "distance": {"kind": "table", "entries": []},
}

INTERVAL_DOC = {
    "base": {"kind": "one_point", "point": "o"},
    "carrier": {"kind": "rational_interval", "lo": "0", "hi": "3"},
    "fiber_map": {"kind": "constant", "to": "o"},
    "distance": {"kind": "abs_diff"},
}

GRID_DOC = {
    "base": {"kind": "one_point", "point": "o"},
    "carrier": {"kind": "rational_grid", "step": "1/2", "lo": "0", "hi": "1"},
    "fiber_map": {"kind": "constant", "to": "o"},
    "distance": {"kind": "max_metric"},
}


GOLDEN_INTERVAL = Path(__file__).parent / "golden" / "interval.json"


def _write(tmp_path: Path, doc: dict, name: str = "instance.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_instance_sierpinski():
    m = parse_instance(json.dumps(SIERPINSKI_DOC))
    assert [p.code for p in m.points()] == ["x_a", "x_b"]
    assert m.distance(*m.points()) == 0


def test_parse_rejects_decimal_distance():
    doc = json.loads(json.dumps(SIERPINSKI_DOC))
    doc["distance"]["entries"] = [["x_a", "x_b", "0.5"]]
    with pytest.raises(InputError) as err:
        parse_instance(json.dumps(doc))
    assert "$.distance.entries[0]" in str(err.value)


def test_parse_rejects_dangling_fiber_target():
    doc = json.loads(json.dumps(SIERPINSKI_DOC))
    doc["fiber_map"]["entries"]["x_a"] = "zz"
    with pytest.raises(InputError) as err:
        parse_instance(json.dumps(doc))
    assert "zz" in str(err.value) and "$.fiber_map" in str(err.value)


def test_parse_rejects_asymmetric_table():
    doc = json.loads(json.dumps(SIERPINSKI_DOC))
    doc["distance"]["entries"] = [["x_a", "x_b", "1"], ["x_b", "x_a", "2"]]
    with pytest.raises(InputError) as err:
        parse_instance(json.dumps(doc))
    assert "non-symmetric" in str(err.value)


def test_parse_rejects_unknown_fields():
    doc = json.loads(json.dumps(SIERPINSKI_DOC))
    doc["extra"] = 1
    with pytest.raises(InputError) as err:
        parse_instance(json.dumps(doc))
    assert "$.extra" in str(err.value)


def test_parse_rejects_missing_pair():
    doc = json.loads(json.dumps(SIERPINSKI_DOC))
    doc["distance"]["entries"] = []
    with pytest.raises(InputError) as err:
        parse_instance(json.dumps(doc))
    assert "missing distance entry" in str(err.value)


def test_point_spec_const_and_table():
    m = parse_instance(json.dumps(SIERPINSKI_DOC))
    p = parse_point_spec("const(x_a)", m, 64)
    assert p.y.id == "a"
    # x_a lies over a, and every open around b holds a: a true claim.
    q = parse_point_spec("const(x_a)@b", m, 64)
    assert q.y.id == "b"
    # x_b lies over b, outside the open {a}: a false one.
    with pytest.raises(InputError, match=r"^tie claim 'const\(x_b\)@a' is false: \[tying\] "):
        parse_point_spec("const(x_b)@a", m, 64)
    m2 = parse_instance(json.dumps(INTERVAL_DOC))
    r = parse_point_spec("table(1/2,1/3;tail=1/3)", m2, 64)
    assert r.rep.at(1).code == Fraction(1, 2)
    assert r.rep.at(9).code == Fraction(1, 3)


def test_point_spec_newton():
    m = parse_instance(json.dumps(INTERVAL_DOC))
    p = parse_point_spec("newton_sqrt(2)", m, 64)
    assert p.y.id == "o"


def test_point_spec_errors():
    m = parse_instance(json.dumps(SIERPINSKI_DOC))
    with pytest.raises(InputError):
        parse_point_spec("bogus(x_a)", m, 64)
    with pytest.raises(InputError):
        parse_point_spec("const(nope)", m, 64)
    with pytest.raises(InputError):
        parse_point_spec("const(x_a)@zz", m, 64)


def test_grid_document_and_point_specs():
    m = parse_instance(json.dumps(GRID_DOC))
    assert len(m.points()) == 9
    p = parse_point_spec("const(1/2 0)", m, 64)
    q = parse_point_spec("const(1 1)", m, 64)
    from mapcomplete.completion import dstar_approx

    assert dstar_approx(p, q, Fraction(1, 10)) == 1


def test_finite_carrier_over_rational_order_base():
    # Unusual but legal: finitely many points mapped to rational base
    # points; fiber targets parse as exact rationals.
    doc = {
        "base": {"kind": "rational_order"},
        "carrier": {"kind": "finite", "points": ["u", "v"]},
        "fiber_map": {"kind": "table", "entries": {"u": "1/2", "v": "2"}},
        "distance": {"kind": "table", "entries": [["u", "v", "1"]]},
    }
    m = parse_instance(json.dumps(doc))
    u = m.points()[0]
    assert m.fiber_of(u).id == Fraction(1, 2)


def test_report_rendering_and_exit_code():
    report = Report()
    report.add("alpha", True, "ok")
    report.add("beta", False, "details")
    assert report.render().splitlines() == [
        "PROP alpha PASS ok",
        "PROP beta FAIL details",
        "SUMMARY 1/2",
    ]
    assert report.exit_code == 1


def test_cli_validate(tmp_path, capsys):
    path = _write(tmp_path, SIERPINSKI_DOC)
    assert run_command(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "SUMMARY 3/3" in out


def test_cli_complete_check_incomplete(tmp_path, capsys):
    path = _write(tmp_path, INCOMPLETE_DOC)
    assert run_command(["complete-check", path]) == 1
    out = capsys.readouterr().out
    assert "PROP complete_check FAIL INCOMPLETE certificate=(a,{x_b})" in out


def test_cli_dstar_anchor(tmp_path, capsys):
    path = _write(tmp_path, INTERVAL_DOC)
    code = run_command(
        ["dstar", path, "--point", "newton_sqrt(2)", "--point", "const(3/2)",
         "--eps", "1/1000000"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "value=40391/470832" in out


def test_cli_density(tmp_path, capsys):
    path = _write(tmp_path, INTERVAL_DOC)
    assert run_command(
        ["density", path, "--point", "newton_sqrt(2)", "--eps", "1/1000"]
    ) == 0
    assert "PROP density_witness PASS" in capsys.readouterr().out


def test_cli_suites_are_deterministic(tmp_path, capsys):
    assert run_command(["theorem3", "--seed", "7", "--count", "6"]) == 0
    first = capsys.readouterr().out
    assert run_command(["theorem3", "--seed", "7", "--count", "6"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.strip().splitlines()[-1] == "SUMMARY 6/6"
    assert "theorem3[seed=7]" in first


def test_cli_lemma2_suite(capsys):
    assert run_command(["lemma2", "--seed", "3", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "SUMMARY 5/5"


@pytest.mark.parametrize("command", ["theorem3", "lemma2"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_cli_suite_needs_a_positive_count(capsys, command, count):
    # SUMMARY 0/0 with exit 0 would be a pass with nothing checked.
    assert run_command([command, "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR --count must be at least 1, got {count}\n"


@pytest.mark.parametrize("command", ["theorem3", "lemma2"])
def test_cli_suite_count_has_an_upper_bound(capsys, command):
    # Only the first value past the bound: the bound itself is minutes of work.
    assert run_command([command, "--count", "100001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR --count must be at most 100000, got 100001\n"


@pytest.mark.parametrize("command", ["theorem3", "lemma2"])
@pytest.mark.parametrize("flag, value", [("--maxx", "65"), ("--maxy", "13")])
def test_cli_suite_generator_sizes_have_an_upper_bound(monkeypatch, capsys, command, flag, value):
    # Refused before any instance is generated.
    from mapcomplete import cli

    calls = []
    monkeypatch.setattr(cli, "random_instance", lambda *args: calls.append(args))
    assert run_command([command, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {flag} must be at most {int(value) - 1}, got {value}\n"
    assert calls == []


@pytest.mark.parametrize("command", ["theorem3", "lemma2"])
@pytest.mark.parametrize("flag", ["--maxx", "--maxy"])
def test_cli_suite_generator_sizes_have_a_lower_bound(monkeypatch, capsys, command, flag):
    # The same message as every other bounded option, before any instance.
    from mapcomplete import cli

    calls = []
    monkeypatch.setattr(cli, "random_instance", lambda *args: calls.append(args))
    assert run_command([command, flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {flag} must be at least 1, got 0\n"
    assert calls == []


@pytest.mark.parametrize("target, reason", [
    (".", "Is a directory"), ("missing/star.json", "No such file or directory"),
], ids=["directory", "missing-directory"])
def test_cli_complete_construct_unwritable_out_is_an_input_error(tmp_path, capsys, target, reason):
    out = str(tmp_path / target)
    assert run_command(["complete-construct", str(GOLDEN_INTERVAL.parent / "sierpinski.json"),
                        "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR cannot write {out!r}: {reason}\n"


@pytest.mark.parametrize("seed", [0, 3])
def test_cli_complete_check_decides_40_points(tmp_path, capsys, monkeypatch, seed):
    # 2^40 candidate sets would never finish; the decider closes at most
    # one singleton per carrier point.
    from mapcomplete import finite_oracle
    from oracles import filter_by_subset_sweep, stress_instance

    m = stress_instance(seed, 40, 4)
    path = _write(tmp_path, instance_document(m))
    closures = []
    closure_mask = finite_oracle._closure_mask
    monkeypatch.setattr(
        finite_oracle, "_closure_mask",
        lambda nbhds, region: closures.append(region) or closure_mask(nbhds, region),
    )
    ok, cert = filter_by_subset_sweep(m)
    assert run_command(["complete-check", path]) == (0 if ok else 1)
    last = capsys.readouterr().out.splitlines()[-2]
    if ok:
        assert last == "PROP complete_check PASS COMPLETE"
    else:
        y, tied = cert
        members = ",".join(sorted(p.code for p in tied))
        assert last == f"PROP complete_check FAIL INCOMPLETE certificate=({y.id},{{{members}}})"
    assert 0 < len(closures) <= 40


def test_cli_complete_check_decides_512_points(tmp_path, capsys):
    # The most points a finite document may have; the ordered triangle
    # loops alone take seconds here, the packed test a fraction of one.
    from oracles import stress_instance

    path = _write(tmp_path, instance_document(stress_instance(1, 512, 4, coarse=True)))
    assert run_command(["complete-check", path]) == 1
    assert capsys.readouterr().out == (
        "PROP basis_axioms PASS 2 basic opens\n"
        "PROP pseudometric_axioms PASS budget=64\n"
        "PROP fiberwise_metric PASS budget=64\n"
        "PROP complete_check FAIL INCOMPLETE certificate=(y0,{x04})\n"
        "SUMMARY 3/4\n"
    )


def test_cli_report_is_the_same_without_the_packed_test(tmp_path, capsys, monkeypatch):
    from mapcomplete import metric_mapping
    from oracles import stress_instance

    path = _write(tmp_path, instance_document(stress_instance(1, 256, 4, coarse=True)))
    decided = []
    packed = metric_mapping._no_pseudometric_break
    monkeypatch.setattr(metric_mapping, "_no_pseudometric_break",
                        lambda dm: decided.append(packed(dm)) or decided[-1])
    assert run_command(["complete-check", path]) == 1
    out = capsys.readouterr().out
    assert decided == [True]
    monkeypatch.setattr(metric_mapping, "_no_pseudometric_break", lambda dm: False)
    assert run_command(["complete-check", path]) == 1
    assert capsys.readouterr().out == out


def test_each_matrix_row_is_scanned_for_zeros_once(tmp_path, capsys, monkeypatch):
    # The validators, the finite gate and the deciders all read the zero
    # masks that the matrix computed when it was built.
    from mapcomplete import metric_mapping
    from mapcomplete.finite_oracle import random_instance
    from oracles import stress_instance

    path = _write(tmp_path, instance_document(stress_instance(1, 16, 4)))
    n = len(random_instance(3).points())
    scanned = []
    zero_mask = metric_mapping._zero_mask
    monkeypatch.setattr(metric_mapping, "_zero_mask",
                        lambda row, *rest: scanned.append(row) or zero_mask(row, *rest))
    assert run_command(["complete-check", path]) in (0, 1)
    assert len(scanned) == 16
    for suite in ("theorem3", "lemma2"):
        scanned.clear()
        assert run_command([suite, "--seed", "3", "--count", "1"]) == 0
        assert len(scanned) == n == 4
    capsys.readouterr()


def _grid_doc(step: str) -> dict:
    return {**GRID_DOC, "carrier": {**GRID_DOC["carrier"], "step": step}}


def test_validate_countable_passes_by_the_packed_test(tmp_path, capsys, monkeypatch):
    # validate at --depth 64 on the interval and on an 8 x 8 grid: both
    # pass, and the packed test, not the ordered loops, must decide it.
    from mapcomplete import metric_mapping

    decided = []
    packed = metric_mapping._no_pseudometric_break
    monkeypatch.setattr(metric_mapping, "_no_pseudometric_break",
                        lambda dm: decided.append(packed(dm)) or decided[-1])
    for path in (str(GOLDEN_INTERVAL), _write(tmp_path, _grid_doc("1/7"))):
        assert run_command(["validate", path, "--depth", "64"]) == 0
    capsys.readouterr()
    assert decided == [True, True]


def test_validate_at_depth_64_enumerates_64_interval_points(capsys, monkeypatch):
    # Every module binding of nth_unit_rational is wrapped, as a tracer
    # wrapping it by name would be, so no call can go around the count.
    from mapcomplete import rationals

    calls = []
    original = rationals.nth_unit_rational

    def counted(n):
        calls.append(n)
        return original(n)

    for name, module in list(sys.modules.items()):
        if name == "mapcomplete" or name.startswith("mapcomplete."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    assert run_command(["validate", str(GOLDEN_INTERVAL), "--depth", "64"]) == 0
    capsys.readouterr()
    assert calls == list(range(64))


def test_cli_validate_on_the_largest_square_grid(tmp_path, capsys):
    # 22 x 22 = 484 points, the largest square grid a finite carrier may
    # have: every distance is checked, whatever the budget says.
    assert run_command(["validate", _write(tmp_path, _grid_doc("1/21"))]) == 0
    assert capsys.readouterr().out == (
        "PROP pseudometric_axioms PASS budget=64\n"
        "PROP fiberwise_metric PASS budget=64\n"
        "SUMMARY 2/2\n"
    )


def test_each_distinct_distance_text_is_parsed_once(monkeypatch):
    from mapcomplete import cli_io
    from oracles import stress_instance

    m = stress_instance(1, 64, 4, coarse=True)
    doc = instance_document(m)
    texts = [raw for _, _, raw in doc["distance"]["entries"]]
    parsed = []
    parse = cli_io.parse_rational
    monkeypatch.setattr(cli_io, "parse_rational",
                        lambda text, path=None: parsed.append(text) or parse(text, path=path))
    again = parse_instance(json.dumps(doc))
    assert sorted(parsed) == sorted(set(texts)) and len(parsed) < len(texts) // 4
    assert again.dist.num == m.dist.num and again.dist.den == m.dist.den


def test_cli_round_trip(tmp_path, capsys):
    src = _write(tmp_path, INCOMPLETE_DOC)
    out_path = str(tmp_path / "completed.json")
    assert run_command(["complete-construct", src, "--out", out_path]) == 0
    capsys.readouterr()
    assert run_command(["validate", out_path]) == 0
    capsys.readouterr()
    assert run_command(["complete-check", out_path]) == 0
    out = capsys.readouterr().out
    assert "PROP complete_check PASS COMPLETE" in out


def test_cli_validate_reports_axiom_failures(tmp_path, capsys):
    # Well-formed document whose distances break the triangle inequality:
    # parse succeeds, validation fails, exit code 1.
    doc = {
        "base": {"kind": "finite", "points": ["a"], "basis": [["a"]]},
        "carrier": {"kind": "finite", "points": ["u", "v", "w"]},
        "fiber_map": {"kind": "table", "entries": {"u": "a", "v": "a", "w": "a"}},
        "distance": {
            "kind": "table",
            "entries": [["u", "v", "1"], ["v", "w", "1"], ["u", "w", "3"]],
        },
    }
    path = _write(tmp_path, doc)
    assert run_command(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "PROP pseudometric_axioms FAIL" in out and "triangle" in out


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(SIERPINSKI_DOC))
    doc["distance"]["entries"] = [["x_a", "x_b", "0.5"]]
    path = _write(tmp_path, doc)
    assert run_command(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "$.distance.entries[0]" in err


def test_cli_missing_file_exits_2(tmp_path, capsys):
    assert run_command(["validate", str(tmp_path / "nope.json")]) == 2


def test_reports_byte_identical_across_processes(tmp_path):
    # Hash randomization differs per process; reports must not depend on
    # set iteration order anywhere.
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    outputs = []
    for hash_seed in ("1", "4242"):
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-m", "mapcomplete.cli", "theorem3", "--seed", "11", "--count", "8"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_cli_limit_demo(tmp_path, capsys):
    path = _write(tmp_path, INTERVAL_DOC)
    assert run_command(
        ["limit-demo", path, "--point", "newton_sqrt(2)", "--depth", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "limit_converge[k=4]" in out


DISCRETE_DOC = {
    "base": {"kind": "finite", "points": ["a", "b"], "basis": [["a"], ["b"]]},
    "carrier": {"kind": "finite", "points": ["x_a", "x_b"]},
    "fiber_map": {"kind": "table", "entries": {"x_a": "a", "x_b": "b"}},
    "distance": {"kind": "table", "entries": [["x_a", "x_b", "0"]]},
}


@pytest.mark.parametrize("argv", [
    ["density", "--point", "table(x_a;tail=x_b)@a", "--open", "a"],
    ["limit-demo", "--point", "table(x_a;tail=x_b)@a"],
])
def test_cli_unreachable_tie_claim_exits_2(tmp_path, capsys, argv):
    # The tail lies over b, so the tying witness has no index for {a}.
    path = _write(tmp_path, DISCRETE_DOC)
    assert run_command([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR ") and "never enters {a}" in captured.err


def test_cli_density_fails_when_witness_fiber_is_outside_the_open(tmp_path, capsys, monkeypatch):
    # The claim check refutes the false tie first; with it out of the way
    # the density report's own fiber check still catches the witness.
    from mapcomplete import cli_io

    path = _write(tmp_path, DISCRETE_DOC)
    argv = ["density", path, "--point", "const(x_b)@a", "--open", "a"]
    assert run_command(argv) == 2
    assert "tie claim 'const(x_b)@a' is false" in capsys.readouterr().err
    monkeypatch.setattr(cli_io, "check_tying", lambda s, depth: [])
    assert run_command(argv) == 1
    out = capsys.readouterr().out
    assert "PROP density_witness FAIL witness=x_b open={a}" in out


def test_cli_complete_construct_codes_with_stars(tmp_path, capsys):
    # Unescaped, both star points would be named 'a*c*b'.
    doc = {
        "base": {"kind": "finite", "points": ["b", "c*b"], "basis": [["b"], ["c*b"]]},
        "carrier": {"kind": "finite", "points": ["a*c", "a"]},
        "fiber_map": {"kind": "table", "entries": {"a*c": "b", "a": "c*b"}},
        "distance": {"kind": "table", "entries": [["a*c", "a", "1"]]},
    }
    path = _write(tmp_path, doc)
    assert run_command(["complete-construct", path]) == 0
    out = capsys.readouterr().out
    assert "PROP completion_complete PASS points=2" in out
    assert "PROP embedding_isometric PASS exact" in out
    assert '"a\\\\*c*b"' in out and '"a*c\\\\*b"' in out


def test_cli_complete_construct_fails_a_non_dense_image(tmp_path, monkeypatch, capsys):
    # A completion with a point at distance 1 from the image, in the same
    # fiber: its zero class misses the image, so the closure leaves it out.
    from mapcomplete import cli
    from mapcomplete.finite_oracle import FiniteCompletion
    from mapcomplete.metric_mapping import table_mapping

    def padded(m):
        star = table_mapping(m.base, {"x_b": "b", "z": "b"}, {("x_b", "z"): 1})
        return FiniteCompletion(star, {x: star.points()[0] for x in m.points()})

    monkeypatch.setattr(cli, "finite_completion", padded)
    path = _write(tmp_path, INCOMPLETE_DOC)
    assert run_command(["complete-construct", path, "--out", str(tmp_path / "star.json")]) == 1
    out = capsys.readouterr().out
    assert "PROP embedding_isometric PASS exact" in out
    assert "PROP embedding_dense FAIL closure=1/2" in out


def test_cli_suite_reports_invalid_instance_as_fail(monkeypatch, capsys):
    from mapcomplete import cli
    from mapcomplete.base_topology import FiniteBase
    from mapcomplete.metric_mapping import table_mapping

    # One instance per validator, each also breaking the fiberwise metric:
    # the first validator in the validators' order that finds a violation
    # names the detail.
    cases = [
        ([["a", "b"], ["b", "c"]], {"u": "a", "v": "a"}, {("u", "v"): 0},
         "[intersection] no basis set contains 'b' inside {a,b} & {b,c}"),
        ([["a"], ["b"], ["c"]], {"u": "a", "v": "a", "w": "a", "x": "a"},
         {("u", "v"): 1, ("v", "w"): 1, ("u", "w"): 3, ("u", "x"): 0, ("v", "x"): 1,
          ("w", "x"): 3},
         "[triangle] d('u','w') = 3 > 1 + 1 via 'v'"),
        ([["a"], ["b"], ["c"]], {"u": "a", "v": "a"}, {("u", "v"): 0},
         "[fiberwise] distinct points 'u' and 'v' share fiber 'a' at distance 0"),
    ]
    for basis, fibers, distances, detail in cases:
        broken = table_mapping(FiniteBase.of(["a", "b", "c"], basis), fibers, distances)
        monkeypatch.setattr(cli, "random_instance", lambda seed, max_x, max_y: broken)
        assert run_command(["theorem3", "--seed", "4", "--count", "1"]) == 1
        assert capsys.readouterr().out == (
            f"PROP theorem3[seed=4] FAIL invalid instance {detail}\nSUMMARY 0/1\n"
        )


RATIONAL_IDENTITY_DOC = {
    "base": {"kind": "rational_order"},
    "carrier": {"kind": "rational_interval", "lo": "0", "hi": "3"},
    "fiber_map": {"kind": "identity"},
    "distance": {"kind": "abs_diff"},
}


@pytest.mark.parametrize("argv", [
    ["limit-demo", "--point", "const(x_b)@a"],
    ["dstar", "--point", "const(x_b)@a", "--point", "const(x_a)"],
    ["density", "--point", "const(x_b)@a"],
])
def test_cli_false_tie_claim_exits_2(tmp_path, capsys, argv):
    # x_b lies over b, outside the basic open {a} around the claimed target.
    path = _write(tmp_path, SIERPINSKI_DOC)
    assert run_command([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ERROR tie claim 'const(x_b)@a' is false: [tying] fiber of at(1) is 'b', "
        "outside {a} despite witness index 1\n"
    )


def test_cli_true_tie_claim_is_accepted(tmp_path, capsys):
    # x_a lies over a, inside {a,b}, the only basic open around b.
    path = _write(tmp_path, SIERPINSKI_DOC)
    assert run_command(["dstar", path, "--point", "const(x_a)@b", "--point", "const(x_b)"]) == 0
    assert "PROP dstar PASS value=0" in capsys.readouterr().out


def test_cli_tie_claim_beyond_the_checked_opens_exits_2(tmp_path, capsys):
    # No basic open among the first 64 lies around 1000, so nothing could
    # refute the claim; that is no evidence for it either.
    path = _write(tmp_path, RATIONAL_IDENTITY_DOC)
    argv = ["dstar", path, "--point", "const(1/2)@1000", "--point", "const(1)"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ERROR tie claim 'const(1/2)@1000' is false: "
        "[depth] no basic open around '1000' to check at depth 64\n"
    )


def test_cli_tie_claim_errors_print_rational_ids_as_written(tmp_path, capsys):
    path = _write(tmp_path, RATIONAL_IDENTITY_DOC)
    argv = ["dstar", path, "--point", "const(1/2)@1/3", "--point", "const(1)"]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert "fiber of at(1) is '1/2', outside (-1/2,1/2)" in err
    assert "Fraction" not in err


@pytest.mark.parametrize("argv", [
    ["dstar", "--point", "newton_sqrt(2)", "--point", "const(1)"],
    ["density", "--point", "newton_sqrt(2)"],
])
def test_cli_newton_needs_the_one_point_base(tmp_path, capsys, argv):
    # Over the identity fiber the terms move between fibers, so the default
    # tie at index 1 would be false.
    path = _write(tmp_path, RATIONAL_IDENTITY_DOC)
    assert run_command([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ERROR newton_sqrt needs the one-point base")
    assert "RationalOrderBase" in captured.err


def test_parse_rejects_negative_distance_naming_the_pair():
    doc = json.loads(json.dumps(SIERPINSKI_DOC))
    doc["distance"]["entries"] = [["x_a", "x_b", "-1"]]
    with pytest.raises(InputError) as err:
        parse_instance(json.dumps(doc))
    assert str(err.value) == "$.distance.entries[0]: negative distance -1 for ('x_a', 'x_b')"


def test_parse_reports_a_constant_fiber_target_at_its_field():
    doc = json.loads(json.dumps(SIERPINSKI_DOC))
    doc["fiber_map"] = {"kind": "constant", "to": "zz"}
    with pytest.raises(InputError) as err:
        parse_instance(json.dumps(doc))
    assert str(err.value).startswith("$.fiber_map.to: ") and "'zz'" in str(err.value)


def test_cli_non_string_code_in_distance_entry_exits_2(tmp_path, capsys):
    # A list is unhashable: looked up as a code it raised TypeError.
    doc = json.loads(json.dumps(SIERPINSKI_DOC))
    doc["distance"]["entries"] = [[["x_a"], "x_b", "0"]]
    path = _write(tmp_path, doc)
    assert run_command(["validate", path]) == 2
    assert capsys.readouterr().err.startswith("ERROR $.distance.entries[0]: expected [x, y, value]")


def _count_distance_calls(monkeypatch) -> list:
    from mapcomplete.metric_mapping import MetricMapping

    calls = []
    distance = MetricMapping.distance
    monkeypatch.setattr(
        MetricMapping, "distance", lambda m, x, x2: calls.append(1) or distance(m, x, x2)
    )
    return calls


@pytest.mark.parametrize("name", ["interval.json", "grid.json"])
def test_cli_validate_makes_no_evaluator_calls_on_coordinate_kinds(monkeypatch, capsys, name):
    # abs_diff and max_metric distances are computed from the codes.
    calls = _count_distance_calls(monkeypatch)
    assert run_command(["validate", str(GOLDEN_INTERVAL.parent / name), "--depth", "64"]) == 0
    assert calls == []


def test_validators_evaluate_each_ordered_pair_once(monkeypatch, interval_mapping):
    # On an evaluator kind both validators read one matrix: the diagonal
    # plus both orders of each of the C(64, 2) pairs.
    from mapcomplete.metric_mapping import validate_fiberwise_metric, validate_pseudometric

    m = dataclasses.replace(interval_mapping, dist_kind="custom")
    calls = _count_distance_calls(monkeypatch)
    assert validate_pseudometric(m, 64) == []
    assert validate_fiberwise_metric(m, 64) == []
    assert len(calls) == 64 + 2 * (64 * 63 // 2)


def _load_custom_copy(monkeypatch) -> None:
    # The loaded table mapping, relabelled so that its matrix calls the
    # evaluator: the table kind reads its checked integers instead.
    from mapcomplete import cli

    load = cli._load_instance
    monkeypatch.setattr(
        cli, "_load_instance", lambda path: dataclasses.replace(load(path), dist_kind="custom")
    )


def test_cli_complete_check_evaluates_each_ordered_pair_once(tmp_path, capsys, monkeypatch):
    from oracles import stress_instance

    n = 16
    path = _write(tmp_path, instance_document(stress_instance(1, n, 4)))
    _load_custom_copy(monkeypatch)
    calls = _count_distance_calls(monkeypatch)
    assert run_command(["complete-check", path]) in (0, 1)
    assert "complete_check" in capsys.readouterr().out
    assert len(calls) == n + n * (n - 1)


def test_cli_complete_construct_evaluates_each_ordered_pair_once(tmp_path, monkeypatch):
    # The validators, the completion's distance table and the isometry
    # check all read the one matrix of the input; the completed instance
    # is a table, so it and its document make no call.
    from mapcomplete.metric_mapping import MetricMapping
    from oracles import stress_instance

    n = 16
    path = _write(tmp_path, instance_document(stress_instance(1, n, 4)))
    _load_custom_copy(monkeypatch)
    callers = []
    distance = MetricMapping.distance
    monkeypatch.setattr(
        MetricMapping, "distance", lambda m, x, x2: callers.append(m) or distance(m, x, x2)
    )
    assert run_command(["complete-construct", path, "--out", str(tmp_path / "star.json")]) == 0
    m = callers[0]
    assert len(m.points()) == n and m.dist_kind == "custom"
    assert len(callers) == n + n * (n - 1)
    assert all(c is m for c in callers)


@pytest.mark.parametrize("argv", [
    ["complete-check"],
    ["complete-construct"],
    ["theorem3", "--count", "30", "--maxx", "12"],
    ["lemma2", "--count", "30", "--maxx", "12"],
], ids=lambda argv: argv[0])
def test_cli_table_instances_make_no_evaluator_calls(tmp_path, capsys, monkeypatch, argv):
    # Documents and generated instances are tables: every distance is read
    # from the integers table_mapping checked.
    from oracles import stress_instance

    if argv[0].startswith("complete"):
        argv = [*argv, _write(tmp_path, instance_document(stress_instance(1, 16, 4)))]
    calls = _count_distance_calls(monkeypatch)
    assert run_command(argv) in (0, 1)
    assert "PROP" in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize(
    "eps", ["1/1" + "0" * 5000, "1/" + "7" * 5000 + "x"], ids=["past-digit-limit", "malformed"]
)
def test_cli_long_bad_eps_gives_one_short_error_line(capsys, eps):
    # Past Python's int-string limit, and malformed: either way the error
    # echoes only the ends of the argument.
    argv = ["dstar", str(GOLDEN_INTERVAL), "--point", "const(1)", "--point", "const(2)"]
    assert run_command([*argv, "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    [error] = [line for line in lines if "argument --eps" in line]
    assert f"({len(eps)} characters)" in error
    assert max(map(len, lines)) < 200


@pytest.mark.parametrize("command", ["dstar", "density"])
def test_cli_eps_zero_denominator_is_reported_as_one(capsys, command):
    argv = [command, str(GOLDEN_INTERVAL), "--point", "const(1)", "--eps", "1/0"]
    if command == "dstar":
        argv += ["--point", "const(2)"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"mapcomplete {command}: error: argument --eps: zero denominator in '1/0'")


def test_cli_dstar_at_the_top_of_the_ladder(capsys):
    from oracles import sqrt_interval

    radius = "1/1" + "0" * 4299
    eps = Fraction(1, 10**4299)
    argv = ["dstar", str(GOLDEN_INTERVAL), "--point", "newton_sqrt(2)",
            "--point", "const(3/2)", "--eps", radius]
    assert run_command(argv) == 0
    out = capsys.readouterr().out
    assert f" radius={radius}\n" in out
    value = Fraction(out.split("value=")[1].split()[0])
    lo, hi = sqrt_interval(Fraction(2), steps=15)
    assert hi - lo < eps
    # 3/2 - sqrt(2) lies in [3/2 - hi, 3/2 - lo], which lies within eps of value.
    assert value - eps <= Fraction(3, 2) - hi and Fraction(3, 2) - lo <= value + eps


def test_cli_depth_has_an_upper_bound(capsys):
    from mapcomplete.cli import MAX_DEPTH

    # Only the first value past the bound: the bound itself is cubic work.
    depth = MAX_DEPTH + 1
    assert run_command(["validate", str(GOLDEN_INTERVAL), "--depth", str(depth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR --depth must be at most {MAX_DEPTH}, got {depth}\n"


GOLDEN_SIERPINSKI = str(GOLDEN_INTERVAL.parent / "sierpinski.json")

# The arguments each subcommand needs to get past argparse, then the
# options it declares (21 flags in all), each with a value that parses.
REQUIRED = {
    "validate": [GOLDEN_SIERPINSKI],
    "dstar": [GOLDEN_SIERPINSKI, "--point", "const(x_a)", "--point", "const(x_b)"],
    "density": [GOLDEN_SIERPINSKI, "--point", "const(x_b)"],
    "complete-check": [GOLDEN_SIERPINSKI],
    "theorem3": [],
    "lemma2": [],
    "complete-construct": [GOLDEN_SIERPINSKI],
    "limit-demo": [GOLDEN_SIERPINSKI, "--point", "const(x_a)"],
}
SUITE_OPTIONS = {"--seed": "3", "--count": "3", "--maxx": "3", "--maxy": "3"}
OPTIONS = {
    "validate": {"--depth": "3"},
    "dstar": {"--point": "const(x_a)", "--eps": "1/2", "--depth": "3"},
    "density": {"--point": "const(x_b)", "--open": "a,b", "--eps": "1/2", "--depth": "3"},
    "complete-check": {"--depth": "3"},
    "theorem3": SUITE_OPTIONS,
    "lemma2": SUITE_OPTIONS,
    "complete-construct": {"--out": "star.json", "--depth": "3"},
    "limit-demo": {"--point": "const(x_a)", "--depth": "3"},
}
EVERY_OPTION = {flag: value for options in OPTIONS.values() for flag, value in options.items()}
DEPTH_COMMANDS = [c for c in OPTIONS if "--depth" in OPTIONS[c]]


@pytest.mark.parametrize("command", OPTIONS)
def test_cli_help_lists_exactly_the_declared_options(capsys, command):
    import re

    assert run_command([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--?[a-z]+", capsys.readouterr().out))
    assert listed == {"-h", "--help", *OPTIONS[command]}


@pytest.mark.parametrize("command", OPTIONS)
def test_cli_parses_the_options_a_subcommand_declares(command):
    from mapcomplete.cli import _build_parser

    argv = [command, *REQUIRED[command]]
    for flag, value in OPTIONS[command].items():
        argv += [flag, value]
    args = _build_parser(command).parse_args(argv)
    assert args.command == command
    assert getattr(args, "depth", None) == (3 if "--depth" in OPTIONS[command] else None)
    assert getattr(args, "eps", None) == (Fraction(1, 2) if "--eps" in OPTIONS[command] else None)


@pytest.mark.parametrize("command", OPTIONS)
def test_cli_parser_declares_options_on_the_named_subcommand_only(command):
    from mapcomplete.cli import _SUBCOMMANDS, _build_parser

    parser = _build_parser(command)
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(_SUBCOMMANDS) == list(OPTIONS)
    for name, sub in subparsers.choices.items():
        flags = {flag for action in sub._actions for flag in action.option_strings}
        positionals = [action.dest for action in sub._actions if not action.option_strings]
        if name == command:
            assert flags == {"-h", "--help", *OPTIONS[command]}
            assert positionals == (["instance"] if REQUIRED[command] else [])
        else:
            assert flags == {"-h", "--help"} and positionals == []


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in OPTIONS for flag in EVERY_OPTION
    if flag not in OPTIONS[command]
])
def test_cli_rejects_an_option_the_subcommand_does_not_declare(capsys, command, flag):
    # Among them the options no code path read: --eps outside dstar and
    # density, --depth on the suites.
    assert run_command([command, *REQUIRED[command], flag, EVERY_OPTION[flag]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {EVERY_OPTION[flag]}" in captured.err


@pytest.mark.parametrize("command", DEPTH_COMMANDS)
@pytest.mark.parametrize("depth", ["0", "-3"])
def test_cli_depth_has_a_lower_bound(tmp_path, capsys, command, depth):
    out = ["--out", str(tmp_path / "star.json")] if command == "complete-construct" else []
    argv = [command, *REQUIRED[command], *out]
    assert run_command([*argv, "--depth", depth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR --depth must be at least 1, got {depth}\n"
    # The bound itself is accepted: on this finite carrier every command passes.
    assert run_command([*argv, "--depth", "1"]) == 0


@pytest.mark.parametrize("argv, theorem3_digest, lemma2_digest", [
    (["--seed", "0", "--count", "2000"],
     "ac020ae2e12cd26f35638e7256db6a0cc5787784724e4641c0688ffd7aedf38b",
     "bf42382e214a87ebcfaf04d4fa3772b683774ad3c1e1e0e195f6e553ae62e326"),
    (["--seed", "0", "--count", "500", "--maxx", "10", "--maxy", "4"],
     "ac677ba7f13c31e76cfd3c10644defd95770d756cdf520354f5f40fca5a1e888",
     "841fcc9fe726c285d880197786c98e610d581f5f93d65f009dedfad05c39cb2e"),
    # At the generator's bounds, where the palette's zero entries collapse
    # most of the 64 drawn points.
    (["--seed", "0", "--count", "60", "--maxx", "64", "--maxy", "12"],
     "3a2527d1f1399cf9e706fb2c742f7322492ce0b497a772004aca52e91e2b3cdc",
     "03013599f545cc3ef0768cdc3bd8a887f591faa2174bf8ae34ba0f49788861a3"),
])
def test_suite_stdout_digests_are_frozen(capsys, argv, theorem3_digest, lemma2_digest):
    # sha256 of the whole stdout, frozen from the subset-sweep Lemma 2 and
    # the Fraction generator repair: a faster generator or decider must
    # print the same instances, verdicts and certificates.
    import hashlib

    for command, digest in (("theorem3", theorem3_digest), ("lemma2", lemma2_digest)):
        assert run_command([command, *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


@pytest.mark.parametrize("argv, theorem3_digest, lemma2_digest", [
    (["--seed", "0", "--count", "500", "--maxx", "10", "--maxy", "4"],
     "ac677ba7f13c31e76cfd3c10644defd95770d756cdf520354f5f40fca5a1e888",
     "841fcc9fe726c285d880197786c98e610d581f5f93d65f009dedfad05c39cb2e"),
    (["--seed", "0", "--count", "60", "--maxx", "64", "--maxy", "12"],
     "3a2527d1f1399cf9e706fb2c742f7322492ce0b497a772004aca52e91e2b3cdc",
     "03013599f545cc3ef0768cdc3bd8a887f591faa2174bf8ae34ba0f49788861a3"),
])
def test_suite_digests_hold_when_the_generator_tables_empty_midway(
    monkeypatch, capsys, argv, theorem3_digest, lemma2_digest
):
    # The generator's per-size tables and shared bases only save work:
    # emptied every few seeds, mid-run, the suites still print the frozen
    # digests of test_suite_stdout_digests_are_frozen.
    import hashlib

    from mapcomplete import cli, finite_oracle

    def generate(seed, max_x, max_y):
        if seed % 7 == 3:
            finite_oracle._base_table.cache_clear()
            finite_oracle._carrier_table.cache_clear()
            finite_oracle._BASES.clear()
        return finite_oracle.random_instance(seed, max_x, max_y)

    monkeypatch.setattr(cli, "random_instance", generate)
    for command, digest in (("theorem3", theorem3_digest), ("lemma2", lemma2_digest)):
        assert run_command([command, *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_cli_finite_carrier_has_an_upper_bound(tmp_path, capsys, monkeypatch):
    # A finite carrier ignores --depth, so its point count is bounded
    # instead: 23 x 23 = 529 grid points exit 2 before any evaluation.
    from mapcomplete.cli import MAX_DEPTH

    doc = dict(GRID_DOC, carrier={"kind": "rational_grid", "step": "1/22", "lo": "0", "hi": "1"})
    calls = _count_distance_calls(monkeypatch)
    assert run_command(["validate", _write(tmp_path, doc), "--depth", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ERROR finite carrier has 529 points, at most {MAX_DEPTH} can be checked\n"
    )
    assert calls == []


# Python's int-string limit, or 0 where the interpreter has none. The
# cases below are sized for the default limit of 4300 digits.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" + "0" * 5000  # 5001 digits
needs_int_limit = pytest.mark.skipif(INT_DIGITS != 4300, reason="needs the 4300-digit limit")
GOLDEN = GOLDEN_INTERVAL.parent


@needs_int_limit
@pytest.mark.parametrize("doc, path", [
    (dict(INTERVAL_DOC, carrier={"kind": "rational_interval", "lo": "0", "hi": LONG}),
     "$.carrier.hi"),
    (dict(SIERPINSKI_DOC, distance={"kind": "table", "entries": [["x_a", "x_b", LONG]]}),
     "$.distance.entries[0]"),
])
def test_cli_document_past_the_int_string_limit_exits_2(tmp_path, capsys, doc, path):
    assert run_command(["validate", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ERROR {path}: integer of 5001 digits is past Python's limit of "
        f"{INT_DIGITS} digits for integer text\n"
    )


@needs_int_limit
@pytest.mark.parametrize("document, spec", [
    ("interval.json", f"const(1/{LONG})"),
    ("interval.json", f"newton_sqrt({LONG})"),
    ("rational_order.json", f"const(1/2)@{LONG}"),
])
def test_cli_point_spec_past_the_int_string_limit_exits_2(capsys, document, spec):
    argv = ["dstar", str(GOLDEN / document), "--point", spec, "--point", "const(1/2)"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"ERROR integer of 5001 digits is past Python's limit of {INT_DIGITS} digits "
        "for integer text\n"
    )


@needs_int_limit
@pytest.mark.parametrize("a, k", [("499/100", 1000), ("4", INT_DIGITS - 1)])
def test_cli_dstar_value_past_the_int_string_limit_exits_2(capsys, a, k):
    # The value's denominator grows with the Newton term that eps asks for.
    argv = ["dstar", str(GOLDEN_INTERVAL), "--point", f"newton_sqrt({a})",
            "--point", "const(1)", "--eps", f"1/{10**k}"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ERROR rational with a numerator or denominator of more than "
        f"{INT_DIGITS} digits is past Python's limit for integer text\n"
    )


def test_cli_completion_past_the_point_bound_exits_2_before_its_table(
        tmp_path, capsys, monkeypatch):
    # 16 points at distance 1 over a 128-point base with one basis set:
    # every point is tied to every base point, so the completion would have
    # 16 x 128 = 2048 points.
    import mapcomplete.finite_oracle as finite_oracle

    base = [f"y{i}" for i in range(128)]
    codes = [f"x{i}" for i in range(16)]
    doc = {
        "base": {"kind": "finite", "points": base, "basis": [base]},
        "carrier": {"kind": "finite", "points": codes},
        "fiber_map": {"kind": "table", "entries": {x: base[i] for i, x in enumerate(codes)}},
        "distance": {"kind": "table", "entries": [
            [a, b, "1"] for i, a in enumerate(codes) for b in codes[i + 1:]]},
    }
    calls = []
    monkeypatch.setattr(finite_oracle, "_mapping_from_rows",
                        lambda *args: calls.append(args))
    assert run_command(["complete-construct", _write(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR completion has 2048 points, at most 512 can be built\n"
    assert calls == []


def test_cli_quotes_a_rational_point_outside_the_carrier_as_documents_do(capsys):
    # newton_sqrt(100) starts at (100 + 1) / 2, past the interval's hi = 3.
    argv = ["dstar", str(GOLDEN_INTERVAL), "--point", "newton_sqrt(100)", "--point", "const(1)"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR point '101/2' is not in the carrier\n"


@pytest.mark.parametrize("document, spec, message", [
    ("interval.json", "const(5)", "const: point 5 is outside the carrier interval"),
    ("interval.json", "table(1;tail=9)", "table tail: point 9 is outside the carrier interval"),
    ("interval.json", "foo", "cannot parse point spec 'foo'"),
    ("interval.json", "table(1)", "table spec needs ';tail=<point>'"),
    ("interval.json", "table(1;2)", "table spec needs ';tail=<point>'"),
    ("interval.json", "table(1;foo=2)", "table spec needs ';tail=<point>'"),
    ("grid.json", "const(1/7)", "const: grid points are written as two rationals, like '1/2 0'"),
    ("grid.json", "const(1/3 0)", "const: point '1/3 0' is not on the carrier grid"),
])
def test_cli_point_spec_errors_exit_2(capsys, document, spec, message):
    argv = ["dstar", str(GOLDEN / document), "--point", spec, "--point", "const(1)"]
    if document == "grid.json":
        argv[-1] = "const(1 1)"
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {message}\n"


def test_cli_open_on_an_interval_exits_2(capsys):
    argv = ["density", str(GOLDEN_INTERVAL), "--point", "newton_sqrt(2)", "--open", "a"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR --open applies to finite bases only\n"


@pytest.mark.parametrize("command", ["complete-check", "complete-construct"])
@pytest.mark.parametrize("document", ["interval.json", "grid.json"])
def test_cli_finite_commands_name_the_one_gate(capsys, monkeypatch, command, document):
    # The gate refuses the document before any validator runs at --depth.
    from mapcomplete import cli

    def never(*args):
        raise AssertionError("a validator ran before the finite gate")

    for name in ("validate_basis", "validate_pseudometric", "validate_fiberwise_metric"):
        monkeypatch.setattr(cli, name, never)
    assert run_command([command, str(GOLDEN / document), "--depth", "512"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ERROR this oracle needs a finite carrier and a finite base\n"


@pytest.mark.parametrize("command", ["complete-check", "complete-construct"])
def test_cli_finite_commands_report_an_uncovered_basis(capsys, command):
    # The gate also refuses a base point in no basis set, but the finite
    # commands report that basis as validate does (exit 1), not as bad input.
    assert run_command([command, str(GOLDEN / "uncovered.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "PROP basis_axioms FAIL [cover] point 'c' lies in no basis set\n"
        "PROP pseudometric_axioms PASS budget=64\n"
        "PROP fiberwise_metric PASS budget=64\n"
        "SUMMARY 2/3\n"
    )
    assert captured.err == ""


def test_only_finite_table_instances_are_serialized():
    m = parse_instance(json.dumps(INTERVAL_DOC))
    with pytest.raises(InputError, match=r"^only finite table instances can be serialized$"):
        instance_document(m)
