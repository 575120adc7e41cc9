"""Smoke tests for the benchmark: tiny runs emit every declared metric.

    python3 bench/smoke.py            (or: python3 -m pytest bench/smoke.py)

Each workload runs for one second with --trace 0 and with --trace 1; the
result must hold every metric BENCHMARK.json declares for that mode, with
the declared unit, and every declared metric must carry a direction.  A
copy of the benchmark without the library's sources must exit non-zero
without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import run

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd: str, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def _check_mode(trace: int) -> None:
    spec = _spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    assert [w["name"] for w in spec["workloads"]] == list(run.TRACE_CAPS)
    for workload in run.TRACE_CAPS:
        code, out = _run(ROOT, workload, trace)
        assert code == 0, (workload, trace, code)
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared}, workload
        for m in declared:
            got = result["metrics"][m["name"]]
            assert m["better"] in ("higher", "lower"), m
            assert got["unit"] == m["unit"], (workload, m["name"], got["unit"])
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (
                workload, m["name"], got["value"])


def test_benchmark_json_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.fullmatch(m["unit"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_end_to_end_metrics():
    _check_mode(0)


def test_per_layer_metrics():
    _check_mode(1)


def test_fails_without_library_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(BENCH_DIR, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = _run(tmp, _spec()["workloads"][0]["name"], 0)
    assert code != 0 and out.strip() == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok", flush=True)
