"""Alternating benchmark pairs: a git ref against the working tree.

    python tools/bench_pairs.py [--ref HEAD] [--workloads W1,W2] [--seed 21]
                                [--work-dir DIR]

Run from the repository root.  Exports REF with `git archive` into a fresh
directory, then for each workload and each of 10 pairs i runs

    python3 bench/run.py --workload W --seed S+i --seconds T --trace 0

with T the run_seconds of BENCHMARK.json, once in that export (the
parent) and once in the working tree (the change), the parent first in
even pairs and the change first in odd ones, so a drift in the machine's
speed favours neither side.  For each workload it prints, per end-to-end
metric of BENCHMARK.json, the parent's and the change's median and
quartiles, the change's wins (pairs where it is better in the metric's
direction; a tie is no win), the change of the median against the
metric's bound, and whether the pairs show a gain: at least 10 pairs with
the metric, wins >= 9 of 10 (as a share of the pairs), and the medians
apart by more than the parent's interquartile range, in the better
direction.  A VM's speed drifts between runs, so only alternating pairs
compare two trees.

Exit code 0 when every run of both trees completed with no failed op and
no metric's median is worse than the parent's by more than its bound, 1
otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
# a gain needs at least this many pairs, and this share of wins: 9 of 10
PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of values, the quartiles by
    linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list, metrics: list) -> list:
    """One row per metric of pairs, a list of (parent, change) dicts of
    metric values, one per pair.  metrics: BENCHMARK.json's end_to_end
    entries (name, better, bound).  A row: name, n, the parent's and the
    change's quartiles, wins, the median's relative change, whether that
    is worse than the bound, and whether the pairs show a gain (never on
    fewer than PAIRS pairs)."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        got = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not got:
            continue
        parent = quartiles([p for p, _ in got])
        change = quartiles([c for _, c in got])
        wins = sum(sign * (c - p) > 0 for p, c in got)
        diff = change[1] - parent[1]
        if parent[1]:
            rel = diff / abs(parent[1])
        else:  # from 0: any change is past every bound
            rel = math.copysign(math.inf, diff) if diff else 0.0
        rows.append({
            "name": name,
            "n": len(got),
            "parent": parent,
            "change": change,
            "wins": wins,
            "rel_change": rel,
            "worse_beyond_bound": -sign * rel > metric["bound"],
            "gain": (len(got) >= PAIRS and wins >= WIN_SHARE * len(got)
                     and sign * diff > parent[2] - parent[0]),
        })
    return rows


def render(workload: str, rows: list) -> str:
    lines = [f"{workload}: parent -> change, median [quartiles], wins of pairs"]
    for r in rows:
        p1, p2, p3 = r["parent"]
        c1, c2, c3 = r["change"]
        flags = ("  GAIN" if r["gain"] else "") + ("  WORSE BEYOND BOUND" if r["worse_beyond_bound"] else "")
        lines.append(
            f"  {r['name']:20s} {p2:.6g} [{p1:.6g}, {p3:.6g}] -> {c2:.6g} [{c1:.6g}, {c3:.6g}]"
            f"  {r['rel_change']:+.1%}  wins {r['wins']}/{r['n']}{flags}"
        )
    return "\n".join(lines)


def export(ref: str, dest: pathlib.Path) -> None:
    """The tree of ref, from `git archive`, extracted into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # plain files only, where the Python has the filter
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **safe)


def run_bench(tree: pathlib.Path, workload: str, seed: int, seconds: int) -> tuple:
    """(metric values, failed ops, ok) of one untraced run of bench/run.py in tree."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return {}, None, False
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return values, result["failed"], proc.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", default="HEAD", help="the parent: a git ref (default HEAD)")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all of BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=21, help="seed of the first pair; pair i runs at seed+i")
    ap.add_argument("--work-dir", default=None, help="where the export goes (default: a temporary directory)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    work = pathlib.Path(tempfile.mkdtemp(prefix="bench_pairs-", dir=args.work_dir))
    ok = True
    try:
        parent_tree = work / "parent"
        export(args.ref, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in workloads:
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    values, failed, run_ok = run_bench(trees[side], workload, args.seed + i, seconds)
                    ok &= run_ok and failed == 0
                    print(f"{workload} pair {i + 1} seed {args.seed + i} {side}: failed ops {failed}, "
                          + ", ".join(f"{k} {v:.6g}" for k, v in values.items()), flush=True)
                    pair[side] = values
                pairs.append((pair["parent"], pair["change"]))
            rows = summarize(pairs, spec["end_to_end"])
            ok &= not any(r["worse_beyond_bound"] for r in rows)
            print(render(workload, rows), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
