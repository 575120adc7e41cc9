"""fracbessel benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from ./src; every
pass runs in a fresh single-threaded worker process (BLAS and OpenMP pools
pinned to one thread).  The last stdout line is the JSON result:

* --trace 0: one untraced worker measures for S seconds in BLOCKS equal
  time blocks and reports the end-to-end metrics; nine set-up probes (fresh
  process to ready to time), one before the pass and two in each pause
  between its blocks, give setup_s as their median.
* --trace 1: an untraced worker runs the workload's fixed op count (or for
  S/2 seconds, whichever ends first); a traced worker replays the same ops
  with every layer wrapped and reports the per-layer metrics.  Both passes
  must produce bit-identical op values.

The exit code is 0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# op count of the traced comparison per workload: the acceptance-1 sweep,
# and 40 verify calls of 12 identities
TRACE_CAPS = {"monomial-sweep": 1200, "verify-suite": 480}
BLOCKS = 5
PROBES_PER_PAUSE = 2
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "rel_err_p90": "rel",
    "est_underrun_share": "share",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def worker_cmd(args, mode: str, seconds: float, max_ops: int, blocks: int = 1) -> list:
    return [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode, "--max-ops", str(max_ops),
        "--blocks", str(blocks), "--src", SRC, "--work-dir", args.work_dir,
    ]


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def run_worker(args, mode: str, seconds: float, max_ops: int, deadline: float,
               blocks: int = 1, on_pause=None) -> dict:
    """Run one worker pass; on_pause() runs while the worker waits between
    two of its time blocks."""
    proc = subprocess.Popen(
        worker_cmd(args, mode, seconds, max_ops, blocks), env=worker_env(), cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(remaining(deadline), proc.kill)
    timer.start()
    try:
        lines = []
        for line in proc.stdout:
            if line == "pause\n":
                on_pause()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if code != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {code}")
    return json.loads(lines[-1])


def probe_setup(args, deadline: float) -> float:
    """Seconds from starting a fresh worker to its 'ready' line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd(args, "probe", 0.0, 0), env=worker_env(), cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe exited with code {code}")
    return elapsed


def log(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr, flush=True)


def report_pass(name: str, r: dict) -> None:
    log(
        f"{name}: {r['ops']} ops in {r['wall_s']:.3f}s, {r['refused']} refused, "
        f"{r['failed']} failed, worst rel err {r['rel_err_max']:.3e}, "
        f"tail = p{r['tail_percentile']:g}, digest {r['digest'][:16]}"
    )


def end_to_end(args, deadline: float) -> dict:
    # probes spread over the measured pass, in its pauses, so that their
    # median samples the same drifts in the machine's speed as its blocks
    setups = [probe_setup(args, deadline)]

    def on_pause():
        setups.extend(probe_setup(args, deadline) for _ in range(PROBES_PER_PAUSE))

    r = run_worker(args, "plain", float(args.seconds), 10**12, deadline, BLOCKS, on_pause)
    report_pass("measured pass", r)
    log("set-up probes (s): " + ", ".join(f"{s:.4f}" for s in setups))
    metrics = {k: {"value": r[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return {
        "correct": r["failed"] == 0,
        "attempted": r["ops"],
        "failed": r["failed"],
        "metrics": metrics,
    }


def per_layer(args, deadline: float) -> dict:
    plain = run_worker(args, "plain", args.seconds / 2.0, TRACE_CAPS[args.workload], deadline)
    report_pass("untraced pass", plain)
    traced = run_worker(args, "traced", float(args.seconds), plain["ops"], deadline)
    report_pass("traced pass", traced)
    identical = plain["digest"] == traced["digest"] and plain["ops"] == traced["ops"]
    if not identical:
        log("FAILED: traced op values differ from the untraced pass")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_share"] = {
        "value": traced["wall_s"] / plain["wall_s"] - 1.0, "unit": "share",
    }
    failed = plain["failed"] + traced["failed"]
    return {
        "correct": identical and failed == 0,
        "attempted": plain["ops"] + traced["ops"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(TRACE_CAPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "fracbessel", "__init__.py")):
        log(f"no fracbessel sources under {SRC}")
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    # scratch files of this run only, so that runs in one checkout never
    # share them
    args.work_dir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        result = (per_layer if args.trace else end_to_end)(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        log(f"FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
