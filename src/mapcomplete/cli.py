"""Command-line verification harness.

Each subcommand declares only the options it reads:

- ``validate``, ``complete-check``: instance, ``--depth``
- ``dstar``: instance, ``--point`` (twice), ``--eps``, ``--depth``
- ``density``: instance, ``--point``, ``--open``, ``--eps``, ``--depth``
- ``complete-construct``: instance, ``--out``, ``--depth``
- ``limit-demo``: instance, ``--point``, ``--depth``
- ``theorem3``, ``lemma2``: ``--seed``, ``--count``, ``--maxx``, ``--maxy``

``--eps`` is the precision of the completed distance d*, which only
``dstar`` and ``density`` evaluate to a requested precision.

``_SUBCOMMANDS`` maps each name to its help line, its handler and the
function that declares its arguments. ``_build_parser(command)``
registers every subcommand by its name and help line, which are all
that the top-level usage, help and errors read, so they list all eight.
Only ``command``'s subparser holds actions (its ``-h``, its arguments
and its handler): an invocation parses one subcommand, and building
the others' actions took most of a fast command's time. The parser is
built afresh on each call. Its class, ``_Parser``, words the error for
an unknown subcommand itself, so that line reads the same on every
Python release.

run_command loads the instance once and owns the report; each handler
only adds its lines. Output is the PROP/SUMMARY report format of cli_io
on stdout; exit code 0 means all PASS, 1 means some FAIL, 2 means input
error (diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .base_topology import FiniteBase, describe_open, format_id, validate_basis
from .cli_io import Report, _line_break_at, instance_document, parse_instance, parse_point_spec
from .completion import (
    dstar_approx,
    density_witness,
    embed,
    fstar,
    lift_seq,
    limit_point,
)
from .errors import InputError, WitnessError
from .finite_oracle import (
    MAX_POINTS,
    finite_completion,
    is_complete_filter,
    is_complete_net,
    lemma2_check,
    random_instance,
)
from .metric_mapping import closure_finite, distance_matrix, require_finite_instance
from .metric_mapping import validate_fiberwise_metric, validate_pseudometric
from .rationals import decimal_approx, format_rational, parse_rational

# The pseudometric check grows fast in the points it checks, and on a
# rational interval its numbers widen with them: validate there takes
# 3.3-3.7 s at depth 512 on one core of a shared 2-core Xeon host, nearly
# all of it in the packed triangle test on 125-bit fields, and that test
# alone takes 16 s at 768 points. --depth shares the bound on a finite
# carrier's points; a finite carrier ignores --depth.
MAX_DEPTH = MAX_POINTS
MAX_COUNT = 100_000
# The suites' generator: its shortest-path repair is cubic in the number
# of zero classes, which the palette's zero entries keep to a few even
# at --maxx 64, and its intersection closure of the basis is quadratic in
# the number of sets it closes, which grows fast in --maxy. Over 300 seeds
# on one core of a shared 2-core Xeon host (the least of three runs per
# seed, in two runs), an instance at --maxx 64 takes 0.13-0.17 ms in the
# median and 0.5-0.7 ms at worst; at --maxy 12 the worst, seed 116, takes
# 4-6 ms (median 0.05 ms), against 60 ms for seed 103 at --maxy 16.
# MAX_SUITE_Y stays at most 21: the generator replays the branch of
# Random.sample that draws from a pool, which sample takes for every
# population of at most 21.
MAX_SUITE_X = 64
MAX_SUITE_Y = 12
# Each integer option a subcommand declares must lie in 1..bound; checked
# in this order.
_BOUNDS = {"depth": MAX_DEPTH, "count": MAX_COUNT, "maxx": MAX_SUITE_X, "maxy": MAX_SUITE_Y}


def _int_arg(text: str) -> int:
    """An integer in ASCII text, as int() reads it: int() alone would also
    take any Unicode digit, such as an Arabic-Indic or a fullwidth one."""
    try:
        if text.isascii():
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _rational_arg(text: str) -> Fraction:
    try:
        value = parse_rational(text)
    except ValueError as e:
        # Malformed, past Python's int-string limit, or a zero denominator:
        # echo a long one by its ends.
        shown = repr(text) if len(text) <= 40 else (
            f"{text[:20] + '...' + text[-10:]!r} ({len(text)} characters)")
        if getattr(e, "message", None) == "zero denominator":
            raise argparse.ArgumentTypeError(f"zero denominator in {shown}") from None
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like '1/1000', got {shown}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive rational")
    return value


def _load_instance(path_text: str):
    path = Path(path_text)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path_text!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path_text!r}: not UTF-8 text at byte {e.start}") from None
    return parse_instance(text)


def _add_validators(report: Report, m, depth: int) -> None:
    """Add the basis, pseudometric and fiberwise lines of ``m`` at ``depth``.

    The basis line is for a finite base only. The finite commands call
    this only once ``require_finite_instance`` has passed, so an instance
    they refuse gets no line at all."""
    if isinstance(m.base, FiniteBase):
        violation = validate_basis(m.base)
        report.add("basis_axioms", violation is None,
                   str(violation) if violation else f"{len(m.base.basis)} basic opens")
    violation = validate_pseudometric(m, depth)
    report.add("pseudometric_axioms", violation is None,
               str(violation) if violation else f"budget={depth}")
    violation = validate_fiberwise_metric(m, depth)
    report.add("fiberwise_metric", violation is None,
               str(violation) if violation else f"budget={depth}")


def _format_certificate(cert) -> str:
    y, tied = cert
    members = ",".join(sorted(str(p.code) for p in tied))
    return f"({y.id},{{{members}}})"


def _cmd_validate(args, m, report: Report) -> None:
    _add_validators(report, m, args.depth)


def _points(args, m, n: int) -> list:
    """The ``n`` --point specs of a command, parsed in order against ``m``,
    with any tie claim checked at --depth."""
    specs = args.point or []
    if len(specs) != n:
        count = "one --point spec" if n == 1 else "two --point specs"
        raise InputError(f"{args.command} needs exactly {count}")
    return [parse_point_spec(spec, m, args.depth) for spec in specs]


def _cmd_dstar(args, m, report: Report) -> None:
    p, q = _points(args, m, 2)
    value = dstar_approx(p, q, args.eps)
    report.add(
        "dstar", True,
        f"value={format_rational(value)} (~{decimal_approx(value)}) "
        f"radius={format_rational(args.eps)}",
    )


def _cmd_density(args, m, report: Report) -> None:
    [p] = _points(args, m, 1)
    if args.basic_open is not None:
        if not isinstance(m.base, FiniteBase):
            raise InputError("--open applies to finite bases only")
        basic = tuple(sorted({s.strip() for s in args.basic_open.split(",") if s.strip()}))
        # No base point id holds a line break; an id with one is refused
        # as such, not as an open that is not basic.
        if any(_line_break_at(i) < len(i) for i in basic):
            raise InputError(f"--open {args.basic_open!r} holds a line break")
    else:
        y = fstar(p)
        basic = next(iter(m.base.opens_around(y, args.depth)), None)
        if basic is None:
            raise InputError(
                f"no basic open among the first {args.depth} contains {format_id(y.id)}"
            )
    x = density_witness(p, args.eps, basic)
    margin = dstar_approx(p, embed(m, x), args.eps / 4)
    ok = margin <= args.eps + args.eps / 4 and m.base.open_contains(basic, m.fiber_of(x))
    report.add(
        "density_witness", ok,
        f"witness={x.code} open={describe_open(basic)} "
        f"margin={format_rational(margin)} bound={format_rational(args.eps + args.eps / 4)}",
    )


def _cmd_complete_check(args, m, report: Report) -> None:
    require_finite_instance(m)
    _add_validators(report, m, args.depth)
    if report.exit_code != 0:
        return
    verdict = is_complete_filter(m)
    if verdict.ok:
        report.add("complete_check", True, "COMPLETE")
    else:
        report.add(
            "complete_check", False,
            f"INCOMPLETE certificate={_format_certificate(verdict.certificate)}",
        )


def _cmd_suite(args, _, report: Report) -> None:
    name = args.command
    for seed in range(args.seed, args.seed + args.count):
        m = random_instance(seed, args.maxx, args.maxy)
        # Every point is checked, in _add_validators' order; the first
        # violation of the first validator that finds one is the detail.
        n = len(m.points())
        violation = (validate_basis(m.base) or validate_pseudometric(m, n)
                     or validate_fiberwise_metric(m, n))
        if violation:
            report.add(f"{name}[seed={seed}]", False, f"invalid instance {violation}")
            continue
        if name == "theorem3":
            filter_side = is_complete_filter(m)
            net_side = is_complete_net(m)
            ok = filter_side.ok == net_side.ok
            detail = (
                f"filter={'COMPLETE' if filter_side.ok else 'INCOMPLETE'} "
                f"net={'COMPLETE' if net_side.ok else 'INCOMPLETE'}"
            )
        else:
            verdict = lemma2_check(m)
            ok = verdict.ok
            detail = "holds" if ok else f"counterexample={_format_certificate(verdict.certificate)}"
        report.add(f"{name}[seed={seed}]", ok, detail)


def _cmd_complete_construct(args, m, report: Report) -> None:
    # The report echoes the path on one line, and neither a lone surrogate
    # (from undecodable argv bytes), which cannot be printed as UTF-8, nor
    # a line break fits there: refuse both before any work.
    if args.out is not None:
        try:
            args.out.encode("utf-8")
        except UnicodeEncodeError:
            raise InputError(f"cannot write {args.out!r}: path is not UTF-8 text") from None
        if _line_break_at(args.out) < len(args.out):
            raise InputError(f"cannot write {args.out!r}: path holds a line break")
    require_finite_instance(m)
    _add_validators(report, m, args.depth)
    if report.exit_code != 0:
        return
    completed = finite_completion(m)
    doc = instance_document(completed.instance)
    text = json.dumps(doc, indent=2, sort_keys=True)
    verdict = is_complete_filter(completed.instance)
    report.add("completion_complete", verdict.ok,
               f"points={len(completed.instance.points())}")
    dm, star = distance_matrix(m), distance_matrix(completed.instance)
    image = [star.index[completed.embedding[x]] for x in dm.points]
    # Each matrix has its own den, so compare numerators cross-multiplied.
    iso_ok = all(
        star.num[a][b] * dm.den == dm.num[i][j] * star.den
        for i, a in enumerate(image)
        for j, b in enumerate(image)
    )
    report.add("embedding_isometric", iso_ok, "exact")
    closure = closure_finite(completed.instance, completed.embedding.values())
    report.add("embedding_dense", len(closure) == len(star.points),
               f"closure={len(closure)}/{len(star.points)}")
    if args.out is not None:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as e:
            raise InputError(f"cannot write {args.out!r}: {e.strerror}") from None
        report.add("document_written", True, args.out)
    else:
        print(text)


def _cmd_limit_demo(args, m, report: Report) -> None:
    [p] = _points(args, m, 1)
    psi = lift_seq(p.rep)
    limit = limit_point(psi)
    report.add("limit_fstar", fstar(limit) == psi.y, f"target={psi.y.id}")
    for k in range(1, min(args.depth, 12) + 1):
        measured = dstar_approx(psi.at(k), limit, Fraction(1, 4 * k))
        bound = Fraction(1, k) + Fraction(1, 4 * k)
        report.add(
            f"limit_converge[k={k}]", measured <= bound,
            f"dstar={format_rational(measured)} bound={format_rational(bound)}",
        )


def _instance_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("instance", help="path to an instance JSON document")
    p.add_argument("--depth", type=_int_arg, default=64,
                   help=f"check depth / enumeration budget (default 64, from 1 to {MAX_DEPTH})")


def _eps_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=_rational_arg, default=Fraction(1, 1_000_000),
                   help="precision of d* as an exact rational (default 1/1000000)")


def _dstar_options(p: argparse.ArgumentParser) -> None:
    _instance_options(p)
    p.add_argument("--point", action="append", required=True,
                   help="completion point spec; give exactly twice")
    _eps_option(p)


def _density_options(p: argparse.ArgumentParser) -> None:
    _instance_options(p)
    p.add_argument("--point", action="append", required=True,
                   help="completion point spec; give exactly once")
    p.add_argument("--open", dest="basic_open", default=None,
                   help="basic open as comma-separated base ids (finite base); "
                        "default: first basic open containing the point's base point")
    _eps_option(p)


def _suite_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_int_arg, default=0, help="first seed (default 0)")
    p.add_argument("--count", type=_int_arg, default=200,
                   help=f"number of instances (default 200, at most {MAX_COUNT})")
    p.add_argument("--maxx", type=_int_arg, default=6,
                   help=f"max carrier size (default 6, at most {MAX_SUITE_X})")
    p.add_argument("--maxy", type=_int_arg, default=3,
                   help=f"max base size (default 3, at most {MAX_SUITE_Y})")


def _construct_options(p: argparse.ArgumentParser) -> None:
    _instance_options(p)
    p.add_argument("--out", default=None, help="write the document here instead of stdout")


def _limit_demo_options(p: argparse.ArgumentParser) -> None:
    _instance_options(p)
    p.add_argument("--point", action="append", required=True,
                   help="completion point spec to lift; give exactly once")


# name -> (help line, handler, declare function), in top-level help order.
_SUBCOMMANDS = {
    "validate": ("run the basis, pseudometric and fiberwise validators",
                 _cmd_validate, _instance_options),
    "dstar": ("certified distance between two completion points", _cmd_dstar, _dstar_options),
    "density": ("carrier point near a completion point, fiber inside a basic open",
                _cmd_density, _density_options),
    "complete-check": ("decide completeness of a finite instance exactly, "
                       "closing each point of T_y for each base point y",
                       _cmd_complete_check, _instance_options),
    "theorem3": ("seeded random-instance suite", _cmd_suite, _suite_options),
    "lemma2": ("seeded random-instance suite", _cmd_suite, _suite_options),
    "complete-construct": ("emit the finite completion as an instance document",
                           _cmd_complete_construct, _construct_options),
    "limit-demo": ("take the limit of a lifted sequence and check convergence "
                   "for k = 1..min(depth, 12)", _cmd_limit_demo, _limit_demo_options),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with the package's own text for an unknown
    subcommand: the choices quoted, as argparse quoted them up to Python
    3.13.0 (later releases list them bare). The subcommand is the one
    argument with choices, so this is the one error it words."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, _SUBCOMMANDS))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")


_INDENT = " " * len("usage: mapcomplete ")
# The top-level usage, written out in the layout argparse gives it up to
# Python 3.12: 3.13 wraps an argparse-made usage differently.
_USAGE = f"mapcomplete [-h]\n{_INDENT}{{{','.join(_SUBCOMMANDS)}}}\n{_INDENT}..."


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The CLI's parser, with arguments declared on ``command`` alone.

    Every subcommand is registered, so the top-level usage, help and
    errors do not depend on ``command``; a parse of an invocation of
    ``command`` reaches no other subparser, so every other subparser
    holds no action, ``-h`` included, and no handler. The subparsers
    take their ``prog`` from ``mapcomplete``, not from the fixed
    top-level usage."""
    parser = _Parser(
        prog="mapcomplete",
        usage=_USAGE,
        description="Validate metric-mapping instances, evaluate certified "
        "completion distances, and run the seeded finite suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="mapcomplete")
    for name, (help_text, handler, declare) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, add_help=name == command)
        if name == command:
            p.set_defaults(handler=handler)
            declare(p)
    return parser


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; prints the report, returns the exit code.

    The one place that loads an instance, once, for the subcommands that
    declare one (the suites get ``None``), and that owns the report: each
    handler only adds its lines to it. The subcommand is the first
    argument that is not an option: the top-level parser takes no option
    with a value, so that is the one argparse dispatches to."""
    parser = _build_parser(next((a for a in argv if not a.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        for option, bound in _BOUNDS.items():
            value = vars(args).get(option)
            if value is None:  # not an option of this subcommand
                continue
            if value < 1:
                raise InputError(f"--{option} must be at least 1, got {value}")
            if value > bound:
                raise InputError(f"--{option} must be at most {bound}, got {value}")
        m = _load_instance(args.instance) if "instance" in args else None
        report = Report()
        args.handler(args, m, report)
    except (InputError, WitnessError) as e:
        print(f"ERROR {e}", file=sys.stderr)
        return 2
    print(report.render())
    return report.exit_code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
