"""One measured process of the benchmark; started by run.py, never directly.

Modes:
  probe   set up (import, inputs, warm-up), print "ready", exit;
  plain   set up, run ops untraced in --blocks equal time blocks until
          --seconds of measuring or --max-ops; between two blocks, print
          "pause" and wait for a line on stdin, so that the launcher can
          probe set-up time across the whole pass without contending with it;
  traced  set up, run exactly --max-ops ops with every layer wrapped.

The last stdout line is one JSON object with the pass's results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time


def main() -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "plain", "traced"), required=True)
    ap.add_argument("--max-ops", type=int, required=True)
    ap.add_argument("--blocks", type=int, default=1)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    import fracbessel

    if os.path.dirname(os.path.abspath(fracbessel.__file__)) != os.path.join(args.src, "fracbessel"):
        print(f"bench: imported fracbessel from {fracbessel.__file__}, not {args.src}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    t_import = time.perf_counter()
    w = workloads.make(args.workload, args.seed, args.work_dir)
    t_inputs = time.perf_counter()
    w.warm_up()
    t_ready = time.perf_counter()
    if args.mode == "probe":
        print("ready", flush=True)
        return 0
    print(
        f"bench: set-up {t_ready - t_start:.3f}s (import {t_import - t_start:.3f}s, "
        f"inputs {t_inputs - t_import:.3f}s, warm-up {t_ready - t_inputs:.3f}s)",
        file=sys.stderr,
    )

    if args.mode == "traced":
        import tracing
        from fracbessel import quadrature

        rule = quadrature._rule
        log = tracing.SpanLog()
        rule_before = rule.cache_info()
        patches = tracing.install(log)
        tally = workloads.Tally()
        t0 = time.perf_counter()
        try:
            w.run(tally, math.inf, args.max_ops)
        finally:
            wall = time.perf_counter() - t0
            patches.undo()
        rule_after = rule.cache_info()
        layers = tracing.layer_metrics(log, rule_before, rule_after, tally.ops, wall)
        blocks = [(tally.ops, wall)]
    else:
        tally = workloads.Tally()
        blocks = []  # (ops, seconds) per time block
        for k in range(args.blocks):
            if k:
                print("pause", flush=True)
                sys.stdin.readline()
            n0, t0 = tally.ops, time.perf_counter()
            w.run(tally, t0 + args.seconds / args.blocks, args.max_ops)
            blocks.append((tally.ops - n0, time.perf_counter() - t0))
            if tally.ops >= args.max_ops:
                break
        wall = sum(seconds for _, seconds in blocks)
        layers = None
    w.finish(tally)

    for line in tally.refused:
        print(f"bench: refused: {line}", file=sys.stderr)
    for line in tally.failures:
        print(f"bench: FAILED: {line}", file=sys.stderr)

    rel = np.asarray(tally.rel_err)
    result = {
        "ops": tally.ops,
        "failed": len(tally.failures),
        "refused": len(tally.refused),
        "digest": tally.digest(),
        "wall_s": wall,
        **timing(tally, w.tail_percentile, blocks),
        "rel_err_p90": float(np.percentile(rel, 90)) if len(rel) else math.nan,
        "rel_err_max": tally.worst_rel_err,
        "est_underrun_share": tally.underruns / max(tally.ops, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    print(json.dumps(result), flush=True)
    return 0


def timing(tally, preferred: float, blocks: list) -> dict:
    """Throughput, median and tail latency as medians over the pass's time
    blocks, so that a few seconds of a slow machine move one block, not the
    result."""
    import numpy as np

    rates = [n / seconds for n, seconds in blocks]
    ends = np.cumsum([n for n, _ in blocks])
    groups = [g for g in np.split(np.asarray(tally.latency_ms), ends[:-1]) if len(g)]
    if not groups:
        return {"ops_per_s": 0.0, "op_p50_ms": math.nan, "op_tail_ms": math.nan, "tail_percentile": 0.0}
    q = tail_percentile(min(len(g) for g in groups), preferred)
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(float(np.percentile(g, 50)) for g in groups),
        "op_tail_ms": statistics.median(float(np.percentile(g, q)) for g in groups),
        "tail_percentile": q,
    }


def tail_percentile(n_ops: int, preferred: float) -> float:
    """The workload's fixed tail percentile, or, when too few ops leave ten
    samples beyond it, the highest percentile that does."""
    if n_ops * (100.0 - preferred) / 100.0 >= 10.0:
        return preferred
    return max(0.0, 100.0 * (1.0 - 10.0 / n_ops)) if n_ops else 0.0


if __name__ == "__main__":
    sys.exit(main())
