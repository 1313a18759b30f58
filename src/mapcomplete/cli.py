"""Command-line verification harness.

Subcommands: validate, dstar, density, complete-check, theorem3, lemma2,
complete-construct, limit-demo. Output is the PROP/SUMMARY report format
of cli_io on stdout; exit code 0 means all PASS, 1 means some FAIL, 2
means input error (diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .base_topology import (
    FiniteBase,
    describe_open,
    neighborhood_basis,
    open_contains,
    validate_basis,
)
from .cli_io import Report, instance_document, parse_instance, parse_point_spec
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
    finite_completion,
    is_complete_filter,
    is_complete_net,
    lemma2_check,
    random_instance,
)
from .metric_mapping import validate_fiberwise_metric, validate_pseudometric
from .rationals import decimal_approx, format_rational, parse_rational


def _rational_arg(text: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive rational")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapcomplete",
        description="Validate metric-mapping instances, evaluate certified "
        "completion distances, and run the finite brute-force suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, with_file: bool = True):
        p = sub.add_parser(name, help=help_text)
        if with_file:
            p.add_argument("instance", help="path to an instance JSON document")
        p.add_argument("--eps", type=_rational_arg, default=Fraction(1, 1_000_000),
                       help="precision as an exact rational (default 1/1000000)")
        p.add_argument("--depth", type=int, default=64,
                       help="check depth / enumeration budget (default 64)")
        return p

    add("validate", "run the basis, pseudometric and fiberwise validators")

    p = add("dstar", "certified distance between two completion points")
    p.add_argument("--point", action="append", required=True,
                   help="completion point spec; give exactly twice")

    p = add("density", "carrier point near a completion point, fiber inside a basic open")
    p.add_argument("--point", action="append", required=True,
                   help="completion point spec; give exactly once")
    p.add_argument("--open", dest="basic_open", default=None,
                   help="basic open as comma-separated base ids (finite base); "
                        "default: first basic open containing the point's base point")

    add("complete-check", "decide completeness of a finite instance by brute force")

    for name in ("theorem3", "lemma2"):
        p = add(name, "seeded random-instance suite", with_file=False)
        p.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
        p.add_argument("--count", type=int, default=200, help="number of instances (default 200)")
        p.add_argument("--maxx", type=int, default=6, help="max carrier size (default 6)")
        p.add_argument("--maxy", type=int, default=3, help="max base size (default 3)")

    p = add("complete-construct", "emit the finite completion as an instance document")
    p.add_argument("--out", default=None, help="write the document here instead of stdout")

    p = add("limit-demo", "take the limit of a lifted sequence and check convergence")
    p.add_argument("--point", action="append", required=True,
                   help="completion point spec to lift; give exactly once")
    return parser


def _load_instance(path_text: str):
    path = Path(path_text)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path_text!r}: {e.strerror}") from None
    return parse_instance(text)


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


def _two_points(args, m):
    specs = args.point or []
    if len(specs) != 2:
        raise InputError("dstar needs exactly two --point specs")
    return parse_point_spec(specs[0], m), parse_point_spec(specs[1], m)


def _cmd_dstar(args) -> Report:
    m = _load_instance(args.instance)
    p, q = _two_points(args, m)
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
    specs = args.point or []
    if len(specs) != 1:
        raise InputError("density needs exactly one --point spec")
    p = parse_point_spec(specs[0], m)
    if args.basic_open is not None:
        if not isinstance(m.base, FiniteBase):
            raise InputError("--open applies to finite bases only")
        ids = tuple(sorted({s.strip() for s in args.basic_open.split(",") if s.strip()}))
        basic = ids
    else:
        y = fstar(p)
        basic = next(iter(neighborhood_basis(m.base, y)), None)
        if basic is None:
            raise InputError(f"no basic open contains {y.id!r}")
    x = density_witness(p, args.eps, basic)
    margin = dstar_approx(p, embed(m, x), args.eps / 4)
    ok = margin <= args.eps + args.eps / 4 and open_contains(m.base, basic, m.fiber_of(x))
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


def _cmd_suite(args, name: str) -> Report:
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


def _cmd_complete_construct(args) -> tuple[Report, int]:
    m = _load_instance(args.instance)
    report = Report()
    _validators_report(m, args.depth, report)
    if report.exit_code != 0:
        return report, 1
    completed = finite_completion(m)
    doc = instance_document(completed.instance)
    text = json.dumps(doc, indent=2, sort_keys=True)
    verdict = is_complete_filter(completed.instance)
    report.add("completion_complete", verdict.ok,
               f"points={len(completed.instance.points())}")
    iso_ok = all(
        completed.instance.distance(completed.embedding[a], completed.embedding[b])
        == m.distance(a, b)
        for a in m.points()
        for b in m.points()
    )
    report.add("embedding_isometric", iso_ok, "exact")
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        report.add("document_written", True, args.out)
        return report, report.exit_code
    print(text)
    return report, report.exit_code


def _cmd_limit_demo(args) -> Report:
    m = _load_instance(args.instance)
    specs = args.point or []
    if len(specs) != 1:
        raise InputError("limit-demo needs exactly one --point spec")
    p = parse_point_spec(specs[0], m)
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
        if args.command == "validate":
            report = _cmd_validate(args)
        elif args.command == "dstar":
            report = _cmd_dstar(args)
        elif args.command == "density":
            report = _cmd_density(args)
        elif args.command == "complete-check":
            report = _cmd_complete_check(args)
        elif args.command in ("theorem3", "lemma2"):
            report = _cmd_suite(args, args.command)
        elif args.command == "complete-construct":
            report, code = _cmd_complete_construct(args)
            print(report.render())
            return code
        elif args.command == "limit-demo":
            report = _cmd_limit_demo(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise InputError(f"unknown command {args.command!r}")
    except (InputError, WitnessError) as e:
        print(f"ERROR {e}", file=sys.stderr)
        return 2
    print(report.render())
    return report.exit_code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
