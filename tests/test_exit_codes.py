"""The exit-code contract over mutated instance documents and point specs.

Every invocation of every subcommand returns 0 (all properties pass),
1 (a property failed) or 2 (bad input) and never raises. The documents
start from the golden corpus and get one mutation each: a field dropped or
retyped, a kind swapped, a rational corrupted or a code pointed at nothing.
Three documents are refused before any field is read: one that is not
UTF-8, JSON nested past the recursion limit, and an integer literal past
the int-string limit; so is a string with a lone surrogate or a line
break, at its path, a ``--out`` path with either, and an ``--open`` id
with a line break. Rational and integer text in digits other than ASCII
ones is bad input wherever it is read. Exit 2 prints nothing on stdout,
and on stderr either one ERROR line or argparse's usage and error line.
"""

from __future__ import annotations

import copy
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mapcomplete.cli import run_command
from mapcomplete.cli_io import parse_instance
from mapcomplete.errors import InputError

GOLDEN = Path(__file__).parent / "golden"
DOCUMENTS = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in sorted(GOLDEN.glob("*.json"))}

KINDS = ["finite", "one_point", "rational_order", "rational_interval", "rational_grid",
         "table", "constant", "identity", "abs_diff", "max_metric", "bogus"]
# Syntax errors and out-of-range values only: a valid wide grid bound would
# make the cubic validators, not the contract, the subject of the test. The
# last has a denominator of 4301 digits, past Python's int-string limit.
BAD_RATIONALS = ["1/0", "0.5", "x", "-", "1/-2", "", "1//2", "-1/2", "1/1" + "0" * 4300]
# Among them a huge integer (1001 digits, under the int-string limit), a
# lone surrogate and a distance triple with an unknown code.
OTHER_VALUES = [None, 0, -1, 10**1000, 1.5, True, [], {}, "zz", "\ud800", ["zz"],
                ["x_a", "zz", "1"], {"zz": 1}]
DEPTH = "12"


def _nodes(node, path=()):
    """Every (key path, value) of a JSON tree, parents before children."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


def _mutate(doc, rnd):
    doc = copy.deepcopy(doc)
    *head, last = rnd.choice([path for path, _ in _nodes(doc)][1:])
    parent = doc
    for key in head:
        parent = parent[key]
    action = rnd.choice(["drop", "retype", "kind", "rational", "dangle"])
    if action == "drop":
        del parent[last]
    elif action == "retype":
        parent[last] = rnd.choice([v for v in OTHER_VALUES if v != parent[last]])
    elif action == "kind":
        parent[last] = rnd.choice(KINDS)
    elif action == "rational":
        parent[last] = rnd.choice(BAD_RATIONALS)
    else:
        parent[last] = "nowhere"
    return doc


def _tokens(doc) -> list[str]:
    """Strings of the document, as candidate carrier codes and base ids."""
    return sorted({value for _, value in _nodes(doc) if isinstance(value, str)})


def _spec(rnd, tokens) -> str:
    tokens = tokens + ["1/2", "3/2", "1 1", "nope"]
    ctor = rnd.choice(["const", "table", "newton_sqrt", "bogus"])
    if ctor == "table":
        head = ",".join(rnd.choices(tokens, k=rnd.randint(0, 3)))
        spec = f"table({head};tail={rnd.choice(tokens)})"
    elif ctor == "newton_sqrt":
        spec = f"newton_sqrt({rnd.choice(['2', '3', '1/2', 'x'])})"
    else:
        spec = f"{ctor}({rnd.choice(tokens)})"
    if rnd.random() < 0.5:
        spec += "@" + rnd.choice(tokens)
    return spec


# The last line of argparse's usage block: the program, then the error.
_ARGPARSE_ERROR = re.compile(r"mapcomplete(?: [a-z0-9-]+)?: error: ")


def _assert_exit_2_shape(out: str, err: str) -> None:
    """Nothing on stdout; on stderr one ERROR line, or argparse's usage
    block ending in its one error line."""
    assert out == "", err
    lines = err.splitlines()
    assert err.endswith("\n"), err
    if err.startswith("ERROR "):
        assert len(lines) == 1, err
    else:
        assert lines[0].startswith("usage: mapcomplete"), err
        assert _ARGPARSE_ERROR.match(lines[-1]), err
        assert not any(_ARGPARSE_ERROR.match(line) for line in lines[:-1]), err


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(argv)
    out.getvalue().encode("utf-8")  # raises on a lone surrogate
    # A flag the subcommand does not declare stops every example in
    # argparse, before any document is read.
    assert "unrecognized arguments" not in err.getvalue(), argv
    if code == 2:
        _assert_exit_2_shape(out.getvalue(), err.getvalue())
    return code


def _loads(doc) -> bool:
    try:
        parse_instance(json.dumps(doc))
    except InputError:
        return False
    return True


# Unmutated documents over a finite base and a finite carrier that load:
# a density example on one of them, with a point of its carrier, reaches
# the --open checks.
OPEN_DOCUMENTS = sorted(name for name, doc in DOCUMENTS.items()
                        if doc["base"]["kind"] == doc["carrier"]["kind"] == "finite"
                        and _loads(doc))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rnd=st.randoms(use_true_random=False))
def test_every_document_command_exits_0_1_or_2(tmp_path, rnd):
    doc = DOCUMENTS[rnd.choice(sorted(DOCUMENTS))]
    if rnd.random() < 0.75:
        doc = _mutate(doc, rnd)
    command = rnd.choice(
        ["validate", "dstar", "density", "complete-check", "complete-construct", "limit-demo"]
    )
    # A share of density examples take a document, a point and an --eps
    # that are valid, and draw only their --open ids: from the base's own
    # ids, an unknown one and one with a line break.
    open_only = command == "density" and rnd.random() < 0.3
    if open_only:
        doc = DOCUMENTS[rnd.choice(OPEN_DOCUMENTS)]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tokens = _tokens(doc)
    argv = [command, str(path), "--depth", DEPTH]
    if open_only:
        ids = doc["base"]["points"] + ["zz", "a\nb"]
        argv += ["--point", f"const({rnd.choice(doc['carrier']['points'])})", "--eps", "1/1000",
                 "--open", ",".join(rnd.choices(ids, k=rnd.randint(1, 2)))]
    else:
        if command in ("dstar", "density", "limit-demo"):
            # Most examples give the count of specs the command needs, and
            # below a valid --eps, so they get past argparse to the document.
            needed = 2 if command == "dstar" else 1
            for _ in range(needed if rnd.random() < 0.8 else rnd.randint(0, 2)):
                argv += ["--point", _spec(rnd, tokens)]
        if command in ("dstar", "density"):
            bad_eps = rnd.random() >= 0.8
            argv += ["--eps", rnd.choice(["0", "x"] if bad_eps else ["1/1000", "1/3"])]
        if command == "density" and rnd.random() < 0.5:
            argv += ["--open", ",".join(rnd.choices(tokens + ["zz", "a\nb"],
                                                    k=rnd.randint(0, 2)))]
    assert _run(argv) in (0, 1, 2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["theorem3", "lemma2"]),
    seed=st.integers(-5, 10**6),
    count=st.integers(-1, 2),
    maxx=st.integers(-1, 7),
    maxy=st.integers(-1, 4),
)
def test_every_suite_run_exits_0_1_or_2(command, seed, count, maxx, maxy):
    argv = [command, "--seed", str(seed), "--count", str(count),
            "--maxx", str(maxx), "--maxy", str(maxy)]
    assert _run(argv) in (0, 1, 2)


_needs_int_limit = pytest.mark.skipif(
    sys.get_int_max_str_digits() != 4300, reason="needs the 4300-digit int-string limit")
# Each document's bytes and its whole ERROR line, where {path} is its path.
BAD_DOCUMENTS = [
    pytest.param(b'{"base": "\xe9"}', "cannot read {path!r}: not UTF-8 text at byte 10",
                 id="not-utf-8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000,
                 "$: invalid JSON: nested past Python's recursion limit", id="nested-too-deep"),
    pytest.param(b'{"base": {"kind": 1' + b"0" * 5000 + b"}}",
                 "$: JSON integer past Python's limit of 4300 digits for integer text",
                 id="integer-too-long", marks=_needs_int_limit),
]
DOCUMENT_COMMANDS = {
    "validate": [], "complete-check": [], "complete-construct": [],
    "dstar": ["--point", "const(u)", "--point", "const(v)"],
    "density": ["--point", "const(u)"], "limit-demo": ["--point", "const(u)"],
}


@pytest.mark.parametrize("command", sorted(DOCUMENT_COMMANDS))
@pytest.mark.parametrize("data, message", BAD_DOCUMENTS)
def test_bad_document_exits_2_with_one_error_line(tmp_path, capsys, data, message, command):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert run_command([command, str(path), *DOCUMENT_COMMANDS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {message.format(path=str(path))}\n"


@pytest.mark.parametrize("data, message", BAD_DOCUMENTS[1:])
def test_parse_instance_refuses_bad_json_at_the_root(data, message):
    with pytest.raises(InputError) as info:
        parse_instance(data.decode("utf-8"))
    assert str(info.value) == message


# incomplete.json with its carrier code "x_b" written as a lone-surrogate
# escape. complete-check would print the code in its certificate and
# density in its witness= line, and no UTF-8 stdout can hold it.
LONE_SURROGATE = (GOLDEN / "incomplete.json").read_text(encoding="utf-8").replace(
    '"x_b"', '"\\ud800"')


@pytest.mark.parametrize("argv", [["complete-check"], ["density", "--point", "const(\ud800)"]],
                         ids=["complete-check", "density"])
def test_lone_surrogate_code_exits_2_with_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "doc.json"
    path.write_text(LONE_SURROGATE, encoding="utf-8")
    assert run_command([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ERROR $.carrier.points[0]: string is not UTF-8 text: "
                            "lone surrogate \\ud800 at character 0\n")


def test_lone_surrogate_out_path_exits_2_before_writing(tmp_path, capsys):
    # Undecodable argv bytes arrive as lone surrogates (U+DC80-U+DCFF),
    # which no UTF-8 stdout can print, and the report echoes --out.
    out = f"{tmp_path}/x\udcff.json"
    assert run_command(["complete-construct", str(GOLDEN / "sierpinski.json"), "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR cannot write {out!r}: path is not UTF-8 text\n"
    assert list(tmp_path.iterdir()) == []


def test_parse_instance_takes_a_surrogate_pair_and_refuses_a_raw_surrogate():
    # An escaped pair decodes to one character, which UTF-8 holds; a text
    # that holds a surrogate itself, as only a library caller can pass,
    # is refused like its escape.
    pair = LONE_SURROGATE.replace("\\ud800", "\\ud83d\\ude00")
    assert [p.code for p in parse_instance(pair).points()] == ["\U0001f600"]
    with pytest.raises(InputError, match=r"^\$\.carrier\.points\[0\]: string is not UTF-8"):
        parse_instance(LONE_SURROGATE.replace("\\ud800", "\ud800"))


def test_false_tie_claim_exits_2_with_its_error_line(capsys):
    argv = ["dstar", str(GOLDEN / "rational_order.json"), "--point", "const(1/2)@1/3",
            "--point", "const(1/3)"]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ERROR tie claim 'const(1/2)@1/3' is false: [tying] fiber of at(1) "
                            "is '1/2', outside (-1/2,1/2) despite witness index 1\n")


# Unicode digits that are not ASCII: Arabic-Indic (whose five, "\u0665",
# looks like a zero), fullwidth and mathematical bold. \\d and int() take
# them all.
NON_ASCII_DIGITS = ["\u0661/\u0661\u0660\u0660", "1/\uff12", "\U0001d7cf", "\u0665"]
_INTERVAL = (GOLDEN / "interval.json").read_text(encoding="utf-8")
_EXPECTED = "expected an exact rational like '3' or '1/2', got {text!r}"


@pytest.mark.parametrize("text", NON_ASCII_DIGITS, ids=ascii)
@pytest.mark.parametrize("entry", ["document", "point", "eps"])
def test_non_ascii_digits_exit_2_with_one_error_line(tmp_path, capsys, entry, text):
    path = tmp_path / "doc.json"
    path.write_text(_INTERVAL.replace('"hi": "3"', f'"hi": "{text}"') if entry == "document"
                    else _INTERVAL, encoding="utf-8")
    argv = ["dstar", str(path), "--point", "const(1/2)", "--point", "const(1)"]
    if entry == "point":
        argv[3] = f"const({text})"
    if entry == "eps":
        argv += ["--eps", text]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if entry == "eps":  # argparse's usage, then its error line
        assert captured.err.splitlines()[-1] == (
            "mapcomplete dstar: error: argument --eps: expected an exact rational like "
            f"'1/1000', got {text!r}")
    else:
        where = "$.carrier.hi: " if entry == "document" else ""
        assert captured.err == f"ERROR {where}{_EXPECTED.format(text=text)}\n"


# Every character at which str.splitlines splits, and so every character
# that would split a report line in two.
LINE_BREAKS = ["\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_line_breaks_are_those_of_splitlines():
    assert LINE_BREAKS == [c for c in map(chr, range(sys.maxunicode + 1))
                           if len((c + ".").splitlines()) > 1]


# Each break in a code, as a JSON escape and, where JSON takes it (past
# the control characters), as the character itself.
_BROKEN_CODES = [pytest.param(brk, json.dumps(f"x{brk}b", ensure_ascii=escape),
                              id=f"{ascii(brk)}-{'escaped' if escape else 'raw'}")
                 for escape in (True, False) for brk in LINE_BREAKS if escape or brk >= " "]


@pytest.mark.parametrize("brk, code", _BROKEN_CODES)
@pytest.mark.parametrize("argv", [["complete-check"], ["density", "--point", "const(x_b)"]],
                         ids=["complete-check", "density"])
def test_line_break_in_a_code_exits_2_with_one_error_line(tmp_path, capsys, argv, brk, code):
    # incomplete.json with its carrier code "x_b" holding a line break.
    # complete-check would print the code in its certificate and density
    # in its witness= line.
    path = tmp_path / "doc.json"
    path.write_text((GOLDEN / "incomplete.json").read_text(encoding="utf-8").replace(
        '"x_b"', code), encoding="utf-8")
    assert run_command([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ERROR $.carrier.points[0]: string is not one line: "
                            f"line break {ascii(brk)[1:-1]} at character 1\n")


@pytest.mark.parametrize("edit, line", [
    ({"fiber_map": {"kind": "table", "entries": {"x_b": "b", "y\r\n": "b"}}},
     "$.fiber_map.entries: key is not one line: line break \\r at character 1"),
    ({"base": {"kind": "finite", "points": ["a", "b\u2028"], "basis": [["a"]]}},
     "$.base.points[1]: string is not one line: line break \\u2028 at character 1"),
], ids=["fiber-key", "base-point"])
def test_line_break_in_a_key_or_base_point_exits_2_at_its_path(tmp_path, capsys, edit, line):
    doc = {**DOCUMENTS["incomplete.json"], **edit}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_command(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {line}\n"


@pytest.mark.parametrize("brk", ["\n", "\r", "\x85", "\u2028"], ids=ascii)
def test_line_break_out_path_exits_2_before_writing(tmp_path, capsys, brk):
    # The report echoes --out on its document_written line.
    out = f"{tmp_path}/x{brk}y.json"
    assert run_command(["complete-construct", str(GOLDEN / "sierpinski.json"), "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR cannot write {out!r}: path holds a line break\n"
    assert list(tmp_path.iterdir()) == []


# Each integer option, after a command that takes it and a run of one
# seed or a small document.
_INT_OPTIONS = {"depth": ["validate", str(GOLDEN / "interval.json")],
                "seed": ["theorem3", "--count", "1"], "count": ["theorem3"],
                "maxx": ["lemma2", "--count", "1"], "maxy": ["lemma2", "--count", "1"]}


@pytest.mark.parametrize("text", ["\u0663", "\uff13", "x", "1.5"],
                         ids=["arabic-indic", "fullwidth", "letter", "decimal"])
@pytest.mark.parametrize("option", sorted(_INT_OPTIONS))
def test_non_ascii_integer_option_exits_2_in_argparse(capsys, option, text):
    # A value that is not an integer in ASCII digits. int() takes any
    # Unicode digit: "\u0663" and "\uff13" would both read 3; it refuses
    # "x" and "1.5" itself, and both get the same error line.
    command, *rest = _INT_OPTIONS[option]
    assert run_command([command, *rest, f"--{option}", text]) == 2
    captured = capsys.readouterr()
    _assert_exit_2_shape(captured.out, captured.err)
    assert captured.err.splitlines()[-1] == (
        f"mapcomplete {command}: error: argument --{option}: invalid int value: {text!r}")


@pytest.mark.parametrize("brk", ["\n", "\u2028"], ids=ascii)
def test_line_break_in_an_open_id_exits_2_with_one_error_line(capsys, brk):
    # density echoes the open in its report line and in its errors.
    basic_open = f"a{brk}b"
    argv = ["density", str(GOLDEN / "sierpinski.json"), "--point", "const(x_a)",
            "--open", basic_open]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR --open {basic_open!r} holds a line break\n"


@pytest.mark.parametrize("basic_open, shown", [("a\tb", "{'a\\tb'}"), ("a}b", "{'a}b'}")],
                         ids=ascii)
def test_open_that_is_not_basic_is_echoed_id_by_id(capsys, basic_open, shown):
    argv = ["density", str(GOLDEN / "sierpinski.json"), "--point", "const(x_a)",
            "--open", basic_open]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ERROR {shown} is not a basic open around 'a'\n"


def test_line_break_at_either_end_of_an_open_id_is_stripped(capsys):
    argv = ["density", str(GOLDEN / "sierpinski.json"), "--point", "const(x_a)",
            "--open", "\na\u2028,b\r"]
    assert run_command(argv) == 0
    assert "open={a,b}" in capsys.readouterr().out
