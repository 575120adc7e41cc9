"""Repeat the benchmark over seeds and summarise the run-to-run spread.

    python3 bench/baseline.py --runs 10 [--workloads a,b] [--out bench/BASELINE.json]

Runs bench/run.py once per seed 1..N with --trace 0 on each workload, then
once with --trace 1 at seed 1, one process at a time.  For each end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
With --out it writes the summary, the environment, and each workload's
traced per-layer metrics and self-time shares as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def summarise(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "spread_over_bound": spread / bound, "values": values,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    summary = {}
    traced = {}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            rows[m["name"]] = s = summarise(values, m["bound"])
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread >= bound/3"
            print(
                f"{workload:17s} {m['name']:19s} median {s['median']:.6g} "
                f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                f"bound {s['bound']}{flag}",
                flush=True,
            )
            print("    values " + " ".join(f"{v:.5g}" for v in values), flush=True)
        rows["attempted"] = {"median": statistics.median(r["attempted"] for r in runs)}
        summary[workload] = rows

        t = run(workload, 1, seconds, 1)
        layers = {k: v["value"] for k, v in t["metrics"].items()}
        wall = layers["trace.wall_ms"]
        shares = {
            k[: -len(".self_ms")]: v / wall
            for k, v in layers.items()
            if k.endswith("self_ms") and v > 0
        }
        shares["cli.render"] = layers["cli.render_ms"] / wall
        traced[workload] = {"seed": 1, "per_layer": layers, "self_time_shares": shares}
        print(f"{workload} traced self-time shares: "
              + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
              flush=True)

    if args.out:
        doc = {
            "environment": environment(),
            "run_seconds": seconds,
            "seeds": list(range(1, args.runs + 1)),
            "end_to_end": summary,
            "traced": traced,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
