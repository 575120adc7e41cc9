"""The benchmark's tracing hooks (bench/tracing.py) look library entry points
up by name; a refactor that drops or moves one must fail here, not only in
the benchmark's traced pass."""

import importlib.util
import pathlib

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _slots(patches):
    """(slot, read, value before its patch) for each recorded patch, read()
    giving the slot's value now: attribute patches are recorded as
    (setattr, obj, name, old), item patches as (mapping.__setitem__, key, old)."""
    out = []
    for op, *args in patches._undo:
        if op is setattr:
            obj, name, old = args
            out.append(((id(obj), name), lambda o=obj, n=name: getattr(o, n), old))
        else:
            key, old = args
            mapping = op.__self__
            out.append(((id(mapping), key), lambda m=mapping, k=key: m[k], old))
    return out


def test_tracing_hooks_wrap_every_entry_point_and_undo_restores_them():
    tracing = _load_tracing()
    log = tracing.SpanLog()
    patches = tracing.install(log)
    applied = _slots(patches)
    try:
        assert applied
        for slot, read, old in applied:
            assert read() is not old, slot

        # one identity check reaches every layer through the wrappers; the
        # draw memo is emptied first, since a kernel an earlier test left
        # in it would reach no hyp2f1 wrapper
        tracing.operators._draw.cache_clear()
        harness = tracing.harness
        draw = harness.sample_params("2.1", 1, seed=0)[0]
        (record,) = harness.check_identity(draw, [1.0])
        assert record.passed, record.note
        calls, _ = log.reduce()
        for layer in (
            "harness.sample", "harness.check", "closed_forms.spec", "closed_forms.eval",
            "series.wright", "operators", "hyp2f1.series", "hyp2f1.split",
            "quadrature.rule", "quadrature.jacobi", "integrands.kbessel", "gammafns",
        ):
            assert calls.get(layer, 0) >= 1, layer
    finally:
        patches.undo()

    # a slot patched more than once gets back its value from before the first patch
    first = {}
    for slot, read, old in applied:
        first.setdefault(slot, (read, old))
    for slot, (read, old) in first.items():
        assert read() is old, slot


def test_traced_check_counts_rule_cache_misses():
    # the traced pass reads the rule cache's own counters around its ops, so
    # the rule builder must stay a cached module-level function
    tracing = _load_tracing()
    rule = tracing.quadrature._rule
    rule.cache_clear()
    tracing.operators._draw.cache_clear()
    log = tracing.SpanLog()
    before = rule.cache_info()
    patches = tracing.install(log)
    try:
        draw = tracing.harness.sample_params("2.1", 1, seed=0)[0]
        (record,) = tracing.harness.check_identity(draw, [1.0])
    finally:
        patches.undo()
    assert record.passed, record.note
    metrics = tracing.layer_metrics(log, before, rule.cache_info(), 1, 1.0)
    calls = metrics["quadrature.rule.calls"]["value"]
    misses = metrics["quadrature.rule.misses"]["value"]
    assert 1 <= misses <= calls
