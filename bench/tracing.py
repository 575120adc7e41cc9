"""Outside-in per-layer tracing for the traced benchmark pass.

Wrappers replace each layer's entry points where their callers look them up
(module globals and the harness's builder table), record one span per call
with its parent, and always call the original.  Spans are kept in flat
arrays and reduced at the end: a span's self time is its duration minus the
durations of its direct children.  ``quadrature._rule`` keeps its
``lru_cache``: the wrapper calls the cached function, and cache hits and
misses are read from its own ``cache_info()``.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import Counter

import numpy as np

from fracbessel import (
    cli,
    closed_forms,
    harness,
    hyp2f1,
    integrands,
    operators,
    quadrature,
    series,
)
from fracbessel.errors import AccuracyError


class SpanLog:
    """Spans (name, start, end, parent) in flat arrays, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, on_result=None, on_error=None):
        """fn wrapped in a span; on_result(args, out) / on_error(exc) run
        after the span closes."""
        nid = self.name_id(name)
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[i] = perf()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            self.end[i] = perf()
            stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def reduce(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name."""
        n_names = len(self.names)
        if not self.start:
            return dict.fromkeys(self.names, 0), dict.fromkeys(self.names, 0.0)
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        # a call counts once, at its outermost span of that name: a builder
        # that calls another wrapped builder is one call of the layer
        outer = ~nested
        outer[nested] = name[parent[nested]] != name[nested]
        calls = np.bincount(name[outer], minlength=n_names)
        self_s = np.bincount(name, weights=dur - child, minlength=n_names)
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
        )


class Patches:
    """Attribute and item replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def attr(self, obj, name: str, value) -> None:
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def item(self, mapping, key, value) -> None:
        self._undo.append((mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def undo(self) -> None:
        while self._undo:
            op, *args = self._undo.pop()
            op(*args)


def install(log: SpanLog) -> Patches:
    """Wrap every layer's entry points; returns the patches to undo."""
    p = Patches()
    count = log.counts

    def counting(key, measure):
        def on_result(args, out):
            count[key] += measure(args, out)
        return on_result

    def on_accuracy_error(key):
        def on_error(exc):
            if isinstance(exc, AccuracyError):
                count[key] += 1
        return on_error

    # gammafns: the three primitives, wherever a caller looks them up
    for mod, name in (
        (operators, "gamma_ratio"), (operators, "log_gamma"),
        (hyp2f1, "gamma_ratio"), (hyp2f1, "digamma"),
        (closed_forms, "gamma_ratio"), (series, "log_gamma"),
    ):
        p.attr(mod, name, log.spanned("gammafns", getattr(mod, name)))

    # series
    for name, layer in (("eval_wright", "series.wright"), ("eval_pfq", "series.pfq")):
        p.attr(closed_forms, name, log.spanned(
            layer, getattr(closed_forms, name),
            on_result=counting(layer + ".terms", lambda a, out: out.terms_used)))

    # hyp2f1: the direct kernel and the branch series kernel_split returns
    nodes = counting("hyp2f1.series.nodes", lambda a, out: np.size(a[0]))
    p.attr(operators, "hyp2f1_kernel", log.spanned(
        "hyp2f1.series", operators.hyp2f1_kernel,
        on_result=counting("hyp2f1.series.nodes", lambda a, out: np.size(a[3]))))
    split = log.spanned(
        "hyp2f1.split", operators.kernel_split,
        on_result=counting("hyp2f1.split.log", lambda a, out: any(t.log_factor for t in out)))

    def kernel_split(*args, **kwargs):
        return [
            dataclasses.replace(t, series=log.spanned("hyp2f1.series", t.series, on_result=nodes))
            for t in split(*args, **kwargs)
        ]

    p.attr(operators, "kernel_split", kernel_split)

    # quadrature
    p.attr(quadrature, "_rule", log.spanned("quadrature.rule", quadrature._rule))
    for name, layer in (("integrate_jacobi", "quadrature.jacobi"), ("integrate_log_jacobi", "quadrature.log")):
        p.attr(operators, name, log.spanned(
            layer, getattr(operators, name),
            on_result=counting(layer + ".evals", lambda a, out: out.evaluations),
            on_error=on_accuracy_error("quadrature.soft_fail")))

    # integrands
    p.attr(integrands, "kbessel_reduced_series", log.spanned(
        "integrands.kbessel", integrands.kbessel_reduced_series,
        on_result=counting("integrands.kbessel.nodes", lambda a, out: np.size(a[1]))))

    # operators, where the benchmark and the harness call them
    for mod in (operators, harness):
        for name in ("saigo_left", "saigo_right"):
            p.attr(mod, name, log.spanned(
                "operators", getattr(mod, name),
                on_result=counting("operators.evals", lambda a, out: out.evaluations),
                on_error=on_accuracy_error("operators.refused")))

    # closed_forms: spec builders (also behind the harness's builder table)
    # and evaluation
    for name in (
        "theorem21_spec", "theorem24_spec", "theorem31_spec", "theorem34_spec",
        "corollary_wright_spec", "corollary_pfq_spec",
    ):
        p.attr(closed_forms, name, log.spanned("closed_forms.spec", getattr(closed_forms, name)))
    for tid, (side, family, builder) in list(harness._VARIANTS.items()):
        p.item(harness._VARIANTS, tid, (side, family, log.spanned("closed_forms.spec", builder)))
    for mod in (closed_forms, harness):
        p.attr(mod, "evaluate_closed_form", log.spanned("closed_forms.eval", mod.evaluate_closed_form))

    # harness and cli
    p.attr(harness, "check_identity", log.spanned("harness.check", harness.check_identity))
    p.attr(harness, "sample_params", log.spanned("harness.sample", harness.sample_params))
    p.attr(cli, "run_suite", log.spanned("harness.suite", cli.run_suite))
    p.attr(cli, "_render_report", log.spanned("cli.render", cli._render_report))
    p.attr(cli, "main", log.spanned(
        "cli", cli.main, on_result=counting("cli.refused", lambda a, code: code == 2)))
    return p


PER_LAYER_UNITS = {
    "hyp2f1.series.calls": "count",
    "hyp2f1.series.nodes": "count",
    "hyp2f1.series.self_ms": "ms",
    "hyp2f1.split.calls": "count",
    "hyp2f1.split.self_ms": "ms",
    "hyp2f1.split.log_share": "share",
    "quadrature.rule.calls": "count",
    "quadrature.rule.misses": "count",
    "quadrature.rule.hit_ratio": "share",
    "quadrature.rule.self_ms": "ms",
    "quadrature.jacobi.calls": "count",
    "quadrature.jacobi.evals": "count",
    "quadrature.jacobi.self_ms": "ms",
    "quadrature.log.calls": "count",
    "quadrature.log.evals": "count",
    "quadrature.log.self_ms": "ms",
    "quadrature.soft_fail": "count",
    "operators.calls": "count",
    "operators.self_ms": "ms",
    "operators.evals_per_call": "evals/call",
    "operators.refused": "count",
    "integrands.kbessel.calls": "count",
    "integrands.kbessel.nodes": "count",
    "integrands.kbessel.self_ms": "ms",
    "series.wright.calls": "count",
    "series.wright.terms": "count",
    "series.wright.self_ms": "ms",
    "series.pfq.calls": "count",
    "series.pfq.terms": "count",
    "series.pfq.self_ms": "ms",
    "closed_forms.spec.calls": "count",
    "closed_forms.spec.self_ms": "ms",
    "closed_forms.eval.calls": "count",
    "closed_forms.eval.self_ms": "ms",
    "gammafns.calls": "count",
    "gammafns.self_ms": "ms",
    "harness.check.self_ms": "ms",
    "harness.sample.self_ms": "ms",
    "harness.suite.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.render_ms": "ms",
    "cli.refused": "count",
    "trace.ops": "count",
    "trace.wall_ms": "ms",
}


def layer_metrics(log: SpanLog, rule_before, rule_after, ops: int, wall_s: float) -> dict:
    """{name: {"value", "unit"}} for every per-layer metric except
    trace.overhead_share, which needs the untraced pass."""
    calls, self_s = log.reduce()
    c = log.counts

    def n(name):
        return calls.get(name, 0)

    def ms(name):
        return 1e3 * self_s.get(name, 0.0)

    hits = rule_after.hits - rule_before.hits
    misses = rule_after.misses - rule_before.misses
    out = {
        "hyp2f1.series.calls": n("hyp2f1.series"),
        "hyp2f1.series.nodes": c["hyp2f1.series.nodes"],
        "hyp2f1.series.self_ms": ms("hyp2f1.series"),
        "hyp2f1.split.calls": n("hyp2f1.split"),
        "hyp2f1.split.self_ms": ms("hyp2f1.split"),
        "hyp2f1.split.log_share": c["hyp2f1.split.log"] / max(n("hyp2f1.split"), 1),
        "quadrature.rule.calls": n("quadrature.rule"),
        "quadrature.rule.misses": misses,
        "quadrature.rule.hit_ratio": hits / max(hits + misses, 1),
        "quadrature.rule.self_ms": ms("quadrature.rule"),
        "quadrature.soft_fail": c["quadrature.soft_fail"],
        "operators.calls": n("operators"),
        "operators.self_ms": ms("operators"),
        "operators.evals_per_call": c["operators.evals"] / max(n("operators"), 1),
        "operators.refused": c["operators.refused"],
        "integrands.kbessel.calls": n("integrands.kbessel"),
        "integrands.kbessel.nodes": c["integrands.kbessel.nodes"],
        "integrands.kbessel.self_ms": ms("integrands.kbessel"),
        "closed_forms.spec.calls": n("closed_forms.spec"),
        "closed_forms.spec.self_ms": ms("closed_forms.spec"),
        "closed_forms.eval.calls": n("closed_forms.eval"),
        "closed_forms.eval.self_ms": ms("closed_forms.eval"),
        "gammafns.calls": n("gammafns"),
        "gammafns.self_ms": ms("gammafns"),
        "harness.check.self_ms": ms("harness.check"),
        "harness.sample.self_ms": ms("harness.sample"),
        "harness.suite.self_ms": ms("harness.suite"),
        "cli.self_ms": ms("cli"),
        "cli.render_ms": ms("cli.render"),
        "cli.refused": c["cli.refused"],
        "trace.ops": ops,
        "trace.wall_ms": 1e3 * wall_s,
    }
    for layer in ("quadrature.jacobi", "quadrature.log", "series.wright", "series.pfq"):
        out[layer + ".calls"] = n(layer)
        out[layer + ".self_ms"] = ms(layer)
    out["quadrature.jacobi.evals"] = c["quadrature.jacobi.evals"]
    out["quadrature.log.evals"] = c["quadrature.log.evals"]
    out["series.wright.terms"] = c["series.wright.terms"]
    out["series.pfq.terms"] = c["series.pfq.terms"]
    return {k: {"value": out[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
