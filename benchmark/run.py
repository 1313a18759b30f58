"""Benchmark of the mapcomplete CLI, run in process.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``. Each op calls ``mapcomplete.cli.run_command(argv)``, which is
what the ``mapcomplete`` entry point runs, with stdout and stderr
captured, in a closed loop: one client, one process, the next op starts
when the previous one returns. Every op's output is checked.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no wrappers installed and scaled to a reference host speed (see
``PROBES``). With ``--trace 1`` it alternates each op untraced
and traced (see tracing.py) and reports the per-layer metrics, with
call counts taken over the first whole pass so they repeat exactly. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import cycle
from pathlib import Path
from time import perf_counter

from workloads import OK, WORKLOADS, Invocation, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run, one per measured segment; setup_s is their median
PROBE_EVERY_S = 0.2  # host-speed probe interval during the timed phase

# Host-speed probes. A shared host's speed can change by a factor of two
# within seconds, for the package and a probe alike. A probe is a fixed
# piece of work that imitates a workload's ops and never calls the
# package, so a change to the package cannot move it. The timed run
# scales each time by the probes taken just before and after it (see
# ``measure``), so an op on a slow stretch of the host reads like one on
# a fast stretch. Different code slows by different amounts, so each
# workload has the probe closest to its ops.

_PROBE_POINTS = tuple(Fraction(k * k, 7) for k in range(8))


def _probe_exact() -> float:
    """Seconds taken by a Fraction triangle check, frozenset algebra over
    subsets, and Newton steps on a small rational, the work of the
    validators and deciders."""
    start = perf_counter()
    pts = _PROBE_POINTS
    bad = sum(abs(a - b) > abs(a - c) + abs(c - b) for a in pts for b in pts for c in pts)
    sets = [frozenset(i for i in range(8) if mask >> i & 1) for mask in range(256)]
    meets = len({a & b for a in sets[::7] for b in sets[::5]})
    u = Fraction(3, 2)
    for _ in range(7):
        u = u / 2 + 1 / u
    digits = len(str(u.denominator))
    seconds = perf_counter() - start
    if (bad, meets, digits) != (0, 202, 98):
        raise RuntimeError(f"host-speed probe computed {(bad, meets, digits)}")
    return seconds


_PROBE_ARGV = ["dstar", "instance.json", "--point", "newton_sqrt(2)", "--point", "const(3/2)",
               "--eps", "1/1" + "0" * 400]
_PROBE_DOC = json.dumps({"base": {"kind": "one_point", "point": "o"},
                         "carrier": {"kind": "rational_interval", "lo": "0", "hi": "3"}})
_PROBE_SPEC = re.compile(r"(\w+)\((\d+)/(\d+)\)")


def _probe_cli() -> float:
    """Seconds taken by what one dstar op does around its arithmetic:
    build an argument parser and parse an argument list, parse JSON and a
    point spec, then Newton steps on a big rational and its decimal text."""
    start = perf_counter()
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("validate", "complete-check", "theorem3", "lemma2", "dstar"):
            command = sub.add_parser(name, help=name)
            command.add_argument("instance")
            command.add_argument("--point", action="append")
            command.add_argument("--eps", type=Fraction)
        args = parser.parse_args(_PROBE_ARGV)
        base = json.loads(_PROBE_DOC)["base"]["point"]
        m = _PROBE_SPEC.fullmatch(args.point[1])
        u = Fraction(int(m[2]), int(m[3]))
        while u.denominator ** 2 * args.eps < 1:
            u = u / 2 + 1 / u
        text = f"{base} value={u.numerator}/{u.denominator}"
    seconds = perf_counter() - start
    if len(text) != 793:
        raise RuntimeError(f"host-speed probe wrote {len(text)} characters")
    return seconds


# Each workload's probe, and the probe time that defines its reference
# host speed.
PROBES = {
    "finite-decide": (_probe_exact, 0.005),
    "validate-countable": (_probe_exact, 0.005),
    "suite-sweep": (_probe_exact, 0.005),
    "dstar-ladder": (_probe_cli, 0.0045),
}


def _fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "mapcomplete" or n.startswith("mapcomplete.")]:
        del sys.modules[name]
    cli = importlib.import_module("mapcomplete.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"mapcomplete was imported from {cli.__file__}, not from {SRC}")
    return cli


def _invoke(cli, argv: tuple[str, ...]) -> tuple[Invocation, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run_command(list(argv))
        except Exception as exc:  # an exception escaping run_command is a failed op
            return Invocation(None, out.getvalue(), err.getvalue(), exc), perf_counter() - start
        seconds = perf_counter() - start
    return Invocation(code, out.getvalue(), err.getvalue(), None), seconds


def _run_op(cli, op: Op) -> tuple[float, str]:
    """Run one op; its latency is the time spent inside run_command."""
    results, seconds = [], 0.0
    for argv in op.argvs:
        result, dt = _invoke(cli, argv)
        results.append(result)
        seconds += dt
    return seconds, op.check(results)


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond
    it (the maximum when there are too few), that percentile, and the
    number of samples beyond it."""
    s = sorted(latencies)
    i = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s), len(s) - i - 1


def _ok_latencies(samples) -> list[float]:
    """Latencies of the ops that succeeded; of all ops if none did."""
    ok = [seconds for _, seconds, outcome in samples if outcome == OK]
    return ok or [seconds for _, seconds, _ in samples]


def _setup(workload, seed: int, directory: Path):
    """Import the package, write the inputs and run one warm-up op.
    Returns the cli module, the ops, the seconds taken and the warm-up
    outcome."""
    start = perf_counter()
    cli = _fresh_import()
    directory.mkdir(parents=True)
    ops = workload.prepare(seed, directory)
    warm = _run_op(cli, ops[0])[1]
    return cli, ops, perf_counter() - start, warm


def _by_size(ops: list[Op], samples: list[tuple[int, float, str]]) -> list[str]:
    groups: dict[str, list[float]] = {}
    for i, seconds, outcome in samples:
        if outcome == OK:
            groups.setdefault(ops[i].size, []).append(seconds)
    return [f"  {size:>10}  {len(v):5d} ok ops  p50 {statistics.median(v) * 1e3:10.3f} ms"
            for size, v in sorted(groups.items(), key=lambda kv: _size_key(kv[0]))]


def _size_key(size: str) -> tuple[str, int]:
    label, _, value = size.partition("=")
    return (label, int(value)) if value.isdigit() else (label, 0)


def _summary(samples, extra_outcomes) -> dict:
    outcomes = Counter(outcome for _, _, outcome in samples)
    attempted = len(samples)
    failed = attempted - outcomes[OK]
    wrong = failed + sum(o != OK for o in extra_outcomes)
    head = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    print(f"ops {attempted}  ok {outcomes[OK]}  failed {failed}  "
          f"fail_ratio {failed / attempted:.6f}")
    return head


def _input_medians(samples) -> dict[int, float]:
    """Each input's median latency over the ops that succeeded (over all
    ops if none did), so a run cut mid-pass does not tilt the mix of
    input sizes and a lone stall of the shared host does not become an
    input's latency."""
    ok = [(i, seconds) for i, seconds, outcome in samples if outcome == OK]
    by_input: dict[int, list[float]] = {}
    for i, seconds in ok or [(i, seconds) for i, seconds, _ in samples]:
        by_input.setdefault(i, []).append(seconds)
    return {i: statistics.median(v) for i, v in by_input.items()}


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """The timed phase runs in SETUPS segments, each after a fresh set-up,
    so the set-up samples spread over the run like the op samples do.

    Host-speed probes bracket every set-up and every window of ops of at
    least PROBE_EVERY_S; each time is scaled by the workload's reference
    probe time over the mean of its two bracketing probes. Probes run
    outside every timed interval.
    """
    probe, probe_ref_s = PROBES[workload.name]
    samples, raw, setups, raw_setups, warm, n_probes = [], [], [], [], [], 0
    ops_cycle = None
    for r in range(SETUPS):
        before = probe()
        cli, ops, setup_seconds, warm_outcome = _setup(workload, seed, work / f"setup{r}")
        last = probe()
        n_probes += 2
        raw_setups.append(setup_seconds)
        setups.append(setup_seconds * 2 * probe_ref_s / (before + last))
        warm.append(warm_outcome)
        ops_cycle = ops_cycle or cycle(range(len(ops)))
        window = []
        since = perf_counter()
        deadline = since + seconds / SETUPS
        for i in ops_cycle:
            window.append((i, *_run_op(cli, ops[i])))
            done = perf_counter() >= deadline
            if done or perf_counter() - since >= PROBE_EVERY_S:
                after = probe()
                n_probes += 1
                scale = 2 * probe_ref_s / (last + after)
                samples += [(j, latency * scale, outcome) for j, latency, outcome in window]
                raw += window
                window, last, since = [], after, perf_counter()
            if done:
                break
    head = _summary(samples, warm)
    n_ok = sum(outcome == OK for _, _, outcome in samples)
    per_input = _input_medians(samples)
    p50 = statistics.median(per_input.values())
    tail, pct, beyond = _tail([per_input[i] for i, _, outcome in samples
                               if outcome == OK or not n_ok])
    busy = sum(latency for _, latency, _ in samples)
    raw_busy = sum(latency for _, latency, _ in raw)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (n_ok / busy, "1/s"),
        "ok_ratio": (n_ok / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"host speed  {n_probes} probes; unscaled busy time is {raw_busy / busy:.4f} times "
          f"the scaled, which is for a host where {probe.__name__} takes "
          f"{probe_ref_s * 1e3:g} ms")
    print(f"unscaled    setup_s {statistics.median(raw_setups):.4f}  "
          f"op_p50_ms {statistics.median(_input_medians(raw).values()) * 1e3:.3f}  "
          f"ops_per_s {n_ok / raw_busy:.4f}")
    print(f"setup_s     set-ups {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"op_p50_ms   median over {len(per_input)} inputs of each input's median "
          f"over {n_ok} ok ops")
    print(f"op_tail_ms  p{pct:.2f} of {n_ok} ok ops, each at its input's median, "
          f"{beyond} beyond")
    print("latency by input size:")
    print("\n".join(_by_size(ops, samples)))
    head["metrics"] = metrics
    return head


def trace(workload, seed: int, seconds: float, work: Path) -> dict:
    """Run each op untraced, then traced, in whole passes until the time
    is up; counts come from the first pass, times from every traced op."""
    from tracing import COUNTERS, SPANS, Tracer

    cli, ops, _, warm = _setup(workload, seed, work / "setup")
    tracer = Tracer()
    untraced, traced, records = [], [], []
    first_pass = Counter()
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        tracer.keep_spans = passes == 0
        for i, op in enumerate(ops):
            if passes and perf_counter() >= deadline:
                break
            untraced.append((i, *_run_op(cli, op)))
            before = Counter(tracer.calls)
            tracer.op = [passes, i]
            tracer.install()
            try:
                latency, outcome = _run_op(cli, op)
            finally:
                tracer.uninstall()
            traced.append((i, latency, outcome))
            if passes == 0:
                records.append({"op": i, "size": op.size, "outcome": outcome,
                                "latency_ms": latency * 1e3,
                                "calls": dict(sorted((tracer.calls - before).items()))})
        if passes == 0:
            first_pass = Counter(tracer.calls)
        passes += 1

    head = _summary(untraced + traced, [warm])
    p50_traced = statistics.median(_ok_latencies(traced))
    p50_untraced = statistics.median(_ok_latencies(untraced))
    metrics = {}
    for name, _, _ in SPANS:
        metrics[f"{name}.calls"] = (first_pass[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / len(traced), "s")
    for name, _, _ in COUNTERS:
        metrics[f"{name}.calls"] = (first_pass[name], "count")
    metrics["tied_cauchy.term_bits"] = (tracer.term_bits, "bits")
    metrics["trace.op_p50_ms"] = (p50_traced * 1e3, "ms")
    metrics["trace.untraced_op_p50_ms"] = (p50_untraced * 1e3, "ms")
    metrics["trace.overhead_ms"] = ((p50_traced - p50_untraced) * 1e3, "ms")

    out = work.parent / f"trace-{workload.name}-seed{seed}.json"
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    with out.open("w", encoding="utf-8") as f:
        json.dump({
            "workload": workload.name, "seed": seed, "ops": records,
            "span_fields": ["op", "name", "start_s", "end_s", "parent"],
            "spans": [[op, name, start - origin, end - origin, parent]
                      for op, name, start, end, parent in tracer.spans],
        }, f)
    print(f"{passes} passes (the last may be cut) of {len(ops)} ops, each untraced then "
          f"traced; {len(tracer.spans)} spans of the first pass in {out.relative_to(ROOT)}")
    print("first pass, per op: size, traced latency, calls")
    for r in records:
        calls = " ".join(f"{k}={v}" for k, v in r["calls"].items())
        print(f"  {r['size']:>10} {r['latency_ms']:10.3f} ms  {calls}")
    head["metrics"] = metrics
    return head


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Set iteration order, and so where the package's any()/all() scans
    # stop, follows the string hash seed. Fix it, so one seed always does
    # the same work and traced call counts repeat exactly; one value for
    # every seed, so dict layouts do not make seeds differ in speed.
    hash_seed = "0"
    if argv is None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    if not (SRC / "mapcomplete" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'mapcomplete'}; "
              "run from a mapcomplete source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / "mapcomplete-bench" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    try:
        run = trace if args.trace else measure
        result = run(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
