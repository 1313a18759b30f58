from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from mapcomplete.cli import run_command
from mapcomplete.cli_io import Report, parse_instance, parse_point_spec
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
    p = parse_point_spec("const(x_a)", m)
    assert p.y.id == "a"
    q = parse_point_spec("const(x_b)@a", m)
    assert q.y.id == "a"
    m2 = parse_instance(json.dumps(INTERVAL_DOC))
    r = parse_point_spec("table(1/2,1/3;tail=1/3)", m2)
    assert r.rep.at(1).code == Fraction(1, 2)
    assert r.rep.at(9).code == Fraction(1, 3)


def test_point_spec_newton():
    m = parse_instance(json.dumps(INTERVAL_DOC))
    p = parse_point_spec("newton_sqrt(2)", m)
    assert p.y.id == "o"


def test_point_spec_errors():
    m = parse_instance(json.dumps(SIERPINSKI_DOC))
    with pytest.raises(InputError):
        parse_point_spec("bogus(x_a)", m)
    with pytest.raises(InputError):
        parse_point_spec("const(nope)", m)
    with pytest.raises(InputError):
        parse_point_spec("const(x_a)@zz", m)


def test_grid_document_and_point_specs():
    m = parse_instance(json.dumps(GRID_DOC))
    assert len(m.points()) == 9
    p = parse_point_spec("const(1/2 0)", m)
    q = parse_point_spec("const(1 1)", m)
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


def test_cli_density_fails_when_witness_fiber_is_outside_the_open(tmp_path, capsys):
    path = _write(tmp_path, DISCRETE_DOC)
    assert run_command(["density", path, "--point", "const(x_b)@a", "--open", "a"]) == 1
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


def test_cli_suite_reports_invalid_instance_as_fail(monkeypatch, capsys):
    from mapcomplete import cli
    from mapcomplete.base_topology import FiniteBase
    from mapcomplete.metric_mapping import table_mapping

    broken = table_mapping(
        FiniteBase.of(["a"], [["a"]]),
        {"u": "a", "v": "a", "w": "a"},
        {("u", "v"): Fraction(1), ("v", "w"): Fraction(1), ("u", "w"): Fraction(3)},
    )
    monkeypatch.setattr(cli, "random_instance", lambda seed, max_x, max_y: broken)
    assert run_command(["theorem3", "--seed", "4", "--count", "1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("PROP theorem3[seed=4] FAIL invalid instance [triangle]")
