"""Layer timing from outside the package, for the traced run.

The tracer wraps the package's public functions in every module namespace
that binds them (and the listed methods on their classes), so calls
through any import path are seen. Each wrapped call is a span: name,
start, end and parent, kept in memory while ``keep_spans`` is set. A
layer's self time is its span's duration minus the time its child spans
cover. ``MetricMapping.distance`` runs hundreds of thousands of times per
op, so it is a bare counter with no span.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# (metric prefix, module, attribute path): one span per call.
SPANS = (
    ("cli.run_command", "mapcomplete.cli", "run_command"),
    ("cli_io.parse_instance", "mapcomplete.cli_io", "parse_instance"),
    ("cli_io.parse_point_spec", "mapcomplete.cli_io", "parse_point_spec"),
    ("rationals.parse_rational", "mapcomplete.rationals", "parse_rational"),
    ("rationals.format_rational", "mapcomplete.rationals", "format_rational"),
    ("rationals.nth_unit_rational", "mapcomplete.rationals", "nth_unit_rational"),
    ("base_topology.validate_basis", "mapcomplete.base_topology", "validate_basis"),
    ("metric_mapping.validate_pseudometric", "mapcomplete.metric_mapping", "validate_pseudometric"),
    ("metric_mapping.validate_fiberwise_metric", "mapcomplete.metric_mapping",
     "validate_fiberwise_metric"),
    ("metric_mapping.closure_finite", "mapcomplete.metric_mapping", "closure_finite"),
    ("metric_mapping.closure_radii", "mapcomplete.metric_mapping", "closure_radii"),
    ("metric_mapping.MetricMapping.points", "mapcomplete.metric_mapping", "MetricMapping.points"),
    ("finite_oracle.is_complete_filter", "mapcomplete.finite_oracle", "is_complete_filter"),
    ("finite_oracle.is_complete_net", "mapcomplete.finite_oracle", "is_complete_net"),
    ("finite_oracle.lemma2_check", "mapcomplete.finite_oracle", "lemma2_check"),
    ("finite_oracle.zero_classes", "mapcomplete.finite_oracle", "zero_classes"),
    ("finite_oracle.random_instance", "mapcomplete.finite_oracle", "random_instance"),
    ("tied_cauchy.RegularSeq.at", "mapcomplete.tied_cauchy", "RegularSeq.at"),
    ("completion.dstar_approx", "mapcomplete.completion", "dstar_approx"),
)

# (metric prefix, module, attribute path): a call count only.
COUNTERS = (("metric_mapping.distance", "mapcomplete.metric_mapping", "MetricMapping.distance"),)

TERM_SPAN = "tied_cauchy.RegularSeq.at"


class Tracer:
    """Spans, per-layer call counts and self times for the package loaded
    in ``sys.modules``. ``install`` and ``uninstall`` swap the wrappers in
    and out, so traced and untraced ops can alternate."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.term_bits = 0
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.keep_spans = False
        self.op = None
        self._stack: list[list] = []  # per open span: [child seconds, span index]
        self._patches = []
        for name, module, path in SPANS:
            self._plan(module, path, self._span(name))
        for name, module, path in COUNTERS:
            self._plan(module, path, self._counter(name))

    def _plan(self, module: str, path: str, wrap) -> None:
        owner_name, _, attr = path.rpartition(".")
        owner = sys.modules[module]
        if owner_name:
            owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, wrap(original)))
            return
        original = getattr(owner, attr)
        wrapped = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mapcomplete" or mod_name.startswith("mapcomplete."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _counter(self, name: str):
        calls = self.calls

        def wrap(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        return wrap

    def _span(self, name: str):
        def wrap(fn):
            def spanned(*args, **kwargs):
                stack = self._stack
                parent = stack[-1] if stack else None
                index = None
                start = perf_counter()
                if self.keep_spans:
                    index = len(self.spans)
                    self.spans.append([self.op, name, start, None, parent[1] if parent else None])
                frame = [0.0, index]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - start
                    self.calls[name] += 1
                    self.self_s[name] += duration - frame[0]
                    if parent is not None:
                        parent[0] += duration
                    if index is not None:
                        self.spans[index][3] = end
                if name == TERM_SPAN and isinstance(result.code, Fraction):
                    self.term_bits = max(self.term_bits, result.code.denominator.bit_length())
                return result

            return spanned

        return wrap
