"""Command-line verification harness.

Each subcommand declares only the options it reads:

- ``validate``, ``complete-check``: instance, ``--depth``
- ``dstar``: instance, ``--point`` (twice), ``--eps``, ``--depth``
- ``density``: instance, ``--point``, ``--open``, ``--eps``, ``--depth``
- ``complete-construct``: instance, ``--out``, ``--depth``
- ``limit-demo``: instance, ``--point``, ``--depth``
- ``theorem3``, ``lemma2``: ``--seed``, ``--count``, ``--maxx``, ``--maxy``

``--eps`` is the precision of the completed distance d*, which only
``dstar`` and ``density`` evaluate to a requested precision. Output is the
PROP/SUMMARY report format of cli_io on stdout; exit code 0 means all
PASS, 1 means some FAIL, 2 means input error (diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .base_topology import FiniteBase, describe_open, format_id, validate_basis
from .cli_io import Report, instance_document, names_target, parse_instance, parse_point_spec
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
from .metric_mapping import carrier_is_finite, closure_finite, distance_matrix
from .metric_mapping import validate_fiberwise_metric, validate_pseudometric
from .rationals import decimal_approx, format_rational, parse_rational
from .tied_cauchy import check_tying

# The pseudometric check is cubic in the points it checks: validate on a
# rational interval takes about 6 s at depth 512 (20 s at 768) on one Xeon
# core, nearly all of it in the triangle loop. --depth shares the bound on
# a finite carrier's points; a finite carrier ignores --depth.
MAX_DEPTH = MAX_POINTS
MAX_COUNT = 100_000
# The suites' generator: its shortest-path repair is cubic in the number
# of zero classes, which the palette's zero entries keep to a few even
# at --maxx 64, and its intersection closure of the basis is quadratic in
# the number of sets it closes, which grows fast in --maxy. Over 300 seeds
# on one core of a shared 2-core Xeon host, an instance at --maxx 64 takes
# 0.6 ms in the median and 5 ms at worst; at --maxy 12 the worst takes
# 12 ms (median 0.2 ms), against 0.13 s at --maxy 16.
MAX_SUITE_X = 64
MAX_SUITE_Y = 12
# Each integer option a subcommand declares must lie in 1..bound; checked
# in this order.
_BOUNDS = {"depth": MAX_DEPTH, "count": MAX_COUNT, "maxx": MAX_SUITE_X, "maxy": MAX_SUITE_Y}


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapcomplete",
        description="Validate metric-mapping instances, evaluate certified "
        "completion distances, and run the seeded finite suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("instance", help="path to an instance JSON document")
        p.add_argument("--depth", type=int, default=64,
                       help=f"check depth / enumeration budget (default 64, from 1 to {MAX_DEPTH})")
        return p

    eps = dict(type=_rational_arg, default=Fraction(1, 1_000_000),
               help="precision of d* as an exact rational (default 1/1000000)")

    add("validate", "run the basis, pseudometric and fiberwise validators", _cmd_validate)

    p = add("dstar", "certified distance between two completion points", _cmd_dstar)
    p.add_argument("--point", action="append", required=True,
                   help="completion point spec; give exactly twice")
    p.add_argument("--eps", **eps)

    p = add("density", "carrier point near a completion point, fiber inside a basic open",
            _cmd_density)
    p.add_argument("--point", action="append", required=True,
                   help="completion point spec; give exactly once")
    p.add_argument("--open", dest="basic_open", default=None,
                   help="basic open as comma-separated base ids (finite base); "
                        "default: first basic open containing the point's base point")
    p.add_argument("--eps", **eps)

    add("complete-check", "decide completeness of a finite instance exactly, "
        "closing each point of T_y for each base point y", _cmd_complete_check)

    for name in ("theorem3", "lemma2"):
        p = sub.add_parser(name, help="seeded random-instance suite")
        p.set_defaults(handler=_cmd_suite)
        p.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
        p.add_argument("--count", type=int, default=200,
                       help=f"number of instances (default 200, at most {MAX_COUNT})")
        p.add_argument("--maxx", type=int, default=6,
                       help=f"max carrier size (default 6, at most {MAX_SUITE_X})")
        p.add_argument("--maxy", type=int, default=3,
                       help=f"max base size (default 3, at most {MAX_SUITE_Y})")

    p = add("complete-construct", "emit the finite completion as an instance document",
            _cmd_complete_construct)
    p.add_argument("--out", default=None, help="write the document here instead of stdout")

    p = add("limit-demo", "take the limit of a lifted sequence and check convergence "
            "for k = 1..min(depth, 12)", _cmd_limit_demo)
    p.add_argument("--point", action="append", required=True,
                   help="completion point spec to lift; give exactly once")
    return parser


def _load_instance(path_text: str):
    path = Path(path_text)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path_text!r}: {e.strerror}") from None
    m = parse_instance(text)
    if carrier_is_finite(m.carrier) and m.carrier.size > MAX_POINTS:
        raise InputError(
            f"finite carrier has {m.carrier.size} points, at most {MAX_POINTS} can be checked"
        )
    return m


def _validators_report(m, depth: int, report: Report) -> None:
    if isinstance(m.base, FiniteBase):
        violations = validate_basis(m.base)
        report.add("basis_axioms", not violations,
                   str(violations[0]) if violations else f"{len(m.base.basis)} basic opens")
    violations = validate_pseudometric(m, depth)
    report.add("pseudometric_axioms", not violations,
               str(violations[0]) if violations else f"budget={depth}")
    violations = validate_fiberwise_metric(m, depth)
    report.add("fiberwise_metric", not violations,
               str(violations[0]) if violations else f"budget={depth}")


def _format_certificate(cert) -> str:
    y, tied = cert
    members = ",".join(sorted(str(p.code) for p in tied))
    return f"({y.id},{{{members}}})"


def _cmd_validate(args) -> Report:
    report = Report()
    _validators_report(_load_instance(args.instance), args.depth, report)
    return report


def _points(args, m, n: int) -> list:
    """The ``n`` --point specs of a command, parsed against ``m``.

    A spec that names its target with ``@y`` is a claim; it is run through
    check_tying at --depth, and the first violation refutes it.
    """
    specs = args.point or []
    if len(specs) != n:
        count = "one --point spec" if n == 1 else "two --point specs"
        raise InputError(f"{args.command} needs exactly {count}")
    points = []
    for spec in specs:
        p = parse_point_spec(spec, m)
        if names_target(spec):
            violations = check_tying(p.rep, args.depth)
            if violations:
                raise InputError(f"tie claim {spec!r} is false: {violations[0]}")
        points.append(p)
    return points


def _cmd_dstar(args) -> Report:
    m = _load_instance(args.instance)
    p, q = _points(args, m, 2)
    value = dstar_approx(p, q, args.eps)
    report = Report()
    report.add(
        "dstar", True,
        f"value={format_rational(value)} (~{decimal_approx(value)}) "
        f"radius={format_rational(args.eps)}",
    )
    return report


def _cmd_density(args) -> Report:
    m = _load_instance(args.instance)
    [p] = _points(args, m, 1)
    if args.basic_open is not None:
        if not isinstance(m.base, FiniteBase):
            raise InputError("--open applies to finite bases only")
        ids = tuple(sorted({s.strip() for s in args.basic_open.split(",") if s.strip()}))
        basic = ids
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
    report = Report()
    report.add(
        "density_witness", ok,
        f"witness={x.code} open={describe_open(basic)} "
        f"margin={format_rational(margin)} bound={format_rational(args.eps + args.eps / 4)}",
    )
    return report


def _cmd_complete_check(args) -> Report:
    m = _load_instance(args.instance)
    report = Report()
    _validators_report(m, args.depth, report)
    if report.exit_code != 0:
        return report
    verdict = is_complete_filter(m)
    if verdict.ok:
        report.add("complete_check", True, "COMPLETE")
    else:
        report.add(
            "complete_check", False,
            f"INCOMPLETE certificate={_format_certificate(verdict.certificate)}",
        )
    return report


def _instance_violations(m) -> list:
    n = len(m.points())
    return (
        validate_basis(m.base)
        + validate_pseudometric(m, n)
        + validate_fiberwise_metric(m, n)
    )


def _cmd_suite(args) -> Report:
    name = args.command
    report = Report()
    for seed in range(args.seed, args.seed + args.count):
        m = random_instance(seed, args.maxx, args.maxy)
        violations = _instance_violations(m)
        if violations:
            report.add(f"{name}[seed={seed}]", False, f"invalid instance {violations[0]}")
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
    return report


def _cmd_complete_construct(args) -> Report:
    m = _load_instance(args.instance)
    report = Report()
    _validators_report(m, args.depth, report)
    if report.exit_code != 0:
        return report
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
    return report


def _cmd_limit_demo(args) -> Report:
    m = _load_instance(args.instance)
    [p] = _points(args, m, 1)
    psi = lift_seq(p.rep)
    limit = limit_point(psi)
    report = Report()
    report.add("limit_fstar", fstar(limit) == psi.y, f"target={psi.y.id}")
    for k in range(1, min(args.depth, 12) + 1):
        measured = dstar_approx(psi.at(k), limit, Fraction(1, 4 * k))
        bound = Fraction(1, k) + Fraction(1, 4 * k)
        report.add(
            f"limit_converge[k={k}]", measured <= bound,
            f"dstar={format_rational(measured)} bound={format_rational(bound)}",
        )
    return report


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; prints the report, returns the exit code."""
    parser = _build_parser()
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
        report = args.handler(args)
    except (InputError, WitnessError) as e:
        print(f"ERROR {e}", file=sys.stderr)
        return 2
    print(report.render())
    return report.exit_code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
