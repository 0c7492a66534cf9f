"""Span tracer for the benchmark's traced run.

It replaces public functions of the pptnet modules with wrappers that record
one span per call: name, start, end, parent span and the id of the op that
caused it.  Calls inside the package go through module attributes, so nested
calls (recovery inside bootstrap, linalg inside the network layer) become
child spans and are subtracted from their parent's self time.  Nothing inside
`src/` is changed; `uninstall` restores the original functions.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import process_time

from pptnet import cli, estimation, linalg, network, permnet, states


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child", "failed", "count", "outer")

    def __init__(self, name, op, parent, count, outer):
        self.name, self.op, self.parent, self.count, self.outer = name, op, parent, count, outer
        self.child = 0.0
        self.failed = False


def _mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "analytic")
    return "network.full_evolution" if mode == "full_evolution" else "network.analytic"


def _circuit_flops(args, kwargs) -> int:
    """Dense matmul flops of one full-evolution run, computed from n = 4 d^k:
    five n x n complex products in stage one, five 16 x 16 in stage two, at
    8 real flops per complex multiply-add."""
    if _mode(args, kwargs) != "network.full_evolution":
        return 0
    n = 4 * args[0].d ** args[1]
    return 40 * n**3 + 40 * 16**3


def _replicas(args, kwargs) -> int:
    return args[1].bootstrap_replicas


LINALG = ("kron", "mat_power", "partial_transpose", "partial_trace", "hermitian_eigenvalues")

# (module, attribute, span name or name(args, kwargs), count(args, kwargs) or None)
TARGETS = [
    (cli, "main", "cli.main", None),
    (states, "load", "states.load", None),
    (states, "validate", "states.validate", None),
    *[(linalg, attr, "linalg", None) for attr in LINALG],
    (permnet, "digit_shift_permutation", "permnet.permutation", None),
    (permnet, "permutation_matrix", "permnet.permutation", None),
    (permnet, "shift_trace_bruteforce", "permnet.bruteforce", lambda a, kw: a[0].d ** a[1]),
    (network, "mu_parameters", "network.moments", None),
    (network, "outcome_distribution", "network.analytic", None),
    (network, "stage_one_state", _mode, _circuit_flops),
    (network, "stage_two_state", _mode, _circuit_flops),
    (network, "stage_two_distribution", _mode, None),
    (estimation, "run_protocol", "estimation.protocol", None),
    (estimation, "sample_shots", "estimation.sampling", lambda a, kw: a[1]),
    (estimation, "bootstrap_lambda_min", "estimation.bootstrap", _replicas),
    (estimation, "spectrum_from_power_sums", "estimation.recovery", None),
    (estimation, "verdict", "estimation.verdict", None),
    (estimation, "power_sums_exact", "estimation.exact_sums", None),
]

# metric -> (unit, statistic, span name); every figure is per traced op.
# busy: CPU time inside the layer, a call nested in the same layer counted once;
# self: CPU time inside the layer minus the traced calls it made.
LAYER_METRICS = {
    "estimation.bootstrap.self_ms": ("ms/op", "self", "estimation.bootstrap"),
    "estimation.bootstrap.replicas": ("replicas/op", "count", "estimation.bootstrap"),
    "estimation.recovery.calls": ("calls/op", "calls", "estimation.recovery"),
    "estimation.recovery.busy_ms": ("ms/op", "busy", "estimation.recovery"),
    "estimation.recovery.failures": ("calls/op", "failures", "estimation.recovery"),
    "estimation.sampling.busy_ms": ("ms/op", "busy", "estimation.sampling"),
    "estimation.sampling.shots": ("shots/op", "count", "estimation.sampling"),
    "estimation.verdict.busy_ms": ("ms/op", "busy", "estimation.verdict"),
    "estimation.protocol.self_ms": ("ms/op", "self", "estimation.protocol"),
    "estimation.exact_sums.busy_ms": ("ms/op", "busy", "estimation.exact_sums"),
    "network.moments.busy_ms": ("ms/op", "busy", "network.moments"),
    "network.analytic.self_ms": ("ms/op", "self", "network.analytic"),
    "network.full_evolution.self_ms": ("ms/op", "self", "network.full_evolution"),
    "network.full_evolution.computed_flops": ("flop/op", "count", "network.full_evolution"),
    "permnet.permutation.busy_ms": ("ms/op", "busy", "permnet.permutation"),
    "permnet.bruteforce.busy_ms": ("ms/op", "busy", "permnet.bruteforce"),
    "permnet.bruteforce.terms": ("terms/op", "count", "permnet.bruteforce"),
    "linalg.calls": ("calls/op", "calls", "linalg"),
    "linalg.busy_ms": ("ms/op", "busy", "linalg"),
    "states.load.busy_ms": ("ms/op", "busy", "states.load"),
    "states.validate.busy_ms": ("ms/op", "busy", "states.validate"),
    "cli.main.self_ms": ("ms/op", "self", "cli.main"),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None  # id of the op being traced
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, attr, name, count in TARGETS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _wrap(self, orig, name, count):
        stack, spans = self._stack, self.spans

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else None
            outer = all(s.name != span_name for s in stack)
            span = Span(span_name, self.op, parent, count(args, kwargs) if count else 0, outer)
            stack.append(span)
            span.start = process_time()
            try:
                return orig(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = process_time()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)

        return traced

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per traced op, as {name: (value, unit)}."""
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span.name].append(span)

        def stat(kind, spans):
            if kind == "calls":
                return len(spans)
            if kind == "failures":
                return sum(s.failed for s in spans)
            if kind == "count":
                return sum(s.count for s in spans)
            if kind == "busy":
                return 1000 * sum(s.end - s.start for s in spans if s.outer)
            return 1000 * sum(s.end - s.start - s.child for s in spans)

        out = {
            metric: (stat(kind, by_name[name]) / ops, unit)
            for metric, (unit, kind, name) in LAYER_METRICS.items()
        }
        # share of bootstrap replicas whose spectrum recovery returned; 1.0
        # when no replica ran
        replicas = sum(s.count for s in by_name["estimation.bootstrap"])
        ok = sum(
            not s.failed and s.parent is not None and s.parent.name == "estimation.bootstrap"
            for s in by_name["estimation.recovery"]
        )
        out["estimation.bootstrap.replica_ok_ratio"] = (ok / replicas if replicas else 1.0, "ratio")
        return out
