"""The benchmark's workloads, their inputs and their correctness gates.

Each workload builds its inputs from the run seed in set-up, warms up on
inputs from one fixed stream that no run measures, then runs ops until a
deadline or an op cap.  A later run() call resumes where the last one
stopped.  Every op's latency is one perf_counter pair around the library
call; oracle checks run outside that pair.  Outcomes:

* completed: the library returned; the value must pass the gate;
* refused: the library raised its documented AccuracyError (monomial-sweep)
  or the CLI exited with its documented input/convergence code 2
  (verify-suite); the carried value must still pass the gate, every
  refusal is printed and counted, and refusals above the workload's ceiling
  fail the pass;
* failed: a gate tripped, or any other exception or exit code.  A failed op
  makes the benchmark exit non-zero.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import struct
import time
import traceback
from array import array

import numpy as np

from fracbessel import cli, harness, operators
from fracbessel.errors import AccuracyError
from fracbessel.integrands import monomial

MEASURED_STREAM = 0
# Warm-up inputs come from one fixed stream, never a measured one, so set-up
# cost does not depend on the run seed and no measured rule is pre-cached.
WARM_RNG = (20260814, 1)


# A refusal (see the module docstring) is the library's documented answer,
# but a rate well above today's is a regression.  Refusals fail the pass when
# they exceed both this many and the workload's REFUSAL_CEILING share of its
# attempts.
REFUSAL_SLACK = 3


class Tally:
    """Per-op outcomes of one pass: latencies, relative errors, refusals and
    failures."""

    def __init__(self):
        self.latency_ms = array("d")
        self.rel_err = array("d")
        self.worst_rel_err = 0.0
        self.underruns = 0
        self.attempts = 0  # calls that may be refused
        self.refused: list[str] = []
        self.failures: list[str] = []
        self._digest = hashlib.sha256()

    @property
    def ops(self) -> int:
        return len(self.latency_ms)

    def timed(self, t0: float) -> None:
        """Close the op that started at t0."""
        self.latency_ms.append(1e3 * (time.perf_counter() - t0))

    def error(self, rel: float) -> None:
        """Record one op's relative error against its oracle."""
        self.rel_err.append(rel)
        self.worst_rel_err = max(self.worst_rel_err, rel)

    def values(self, *xs: float) -> None:
        """Fold op output values into the bit-exact digest."""
        self._digest.update(struct.pack(f"<{len(xs)}d", *xs))

    def text(self, s: str) -> None:
        self._digest.update(s.encode())

    def digest(self) -> str:
        return self._digest.hexdigest()


def _rel(a: float, b: float) -> float:
    d = abs(a - b)
    return 0.0 if d == 0.0 else d / max(abs(a), abs(b))


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _stop(tally: Tally, deadline: float, max_ops: int) -> bool:
    return tally.ops >= max_ops or time.perf_counter() >= deadline


def _gate_refusals(tally: Tally, ceiling: float, what: str) -> None:
    allowed = max(REFUSAL_SLACK, ceiling * tally.attempts)
    if len(tally.refused) > allowed:
        tally.failures.append(
            f"{len(tally.refused)} of {tally.attempts} {what} refused, "
            f"above the ceiling of {ceiling:.1%}"
        )


# ---------------------------------------------------------------------------
# monomial-sweep
# ---------------------------------------------------------------------------


def _kronecker(rng, n: int, d: int) -> np.ndarray:
    """n points of the additive recurrence (R_d) sequence in [0, 1)^d, shifted
    by a random offset.  Every prefix covers the cube evenly, so statistics
    over a time-bound prefix vary less between seeds than with independent
    draws."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    step = phi ** -np.arange(1.0, d + 1)
    return (rng.random(d) + np.outer(np.arange(1, n + 1), step)) % 1.0


class MonomialSweep:
    """Saigo transforms of t^(lam-1) on both sides against the exact images.

    Draws cover the acceptance-1 ranges (alpha in [0.3, 1.8], beta in
    [-1, 1], eta in [0, 2], lam offsets in [0.05, 2]) with a shifted
    Kronecker sequence.  A tenth of the draws put eta-beta exactly on an
    integer in {0, 1, 2}, which sends the kernel through the logarithmic
    expansion and the dyadic log-weight rule.  More than REFUSAL_CEILING of
    the ops refused fails the pass (today under 0.1% are).
    """

    name = "monomial-sweep"
    tail_percentile = 98.0
    X_POINTS = (0.5, 1.0, 2.0)
    TOL = 1e-9
    GATE = 1e-6
    # Not 1/4: the first x of each draw and side pays for its quadrature
    # rules, so with 1/4 snapped the cheap ops (later x, continuous draws)
    # are exactly half of all ops, and the median sits on the upper edge of
    # their group, where a 10% slower machine moves it by 20%.
    SNAP_SHARE = 0.1
    POOL_DRAWS = 3000
    REFUSAL_CEILING = 0.005

    def __init__(self, seed: int):
        self.pool = self._draws(_kronecker(np.random.default_rng([seed, MEASURED_STREAM]), self.POOL_DRAWS, 6))
        warm = np.random.default_rng(WARM_RNG).random((4, 6))
        warm[-1, 5] = 0.0  # one integer eta-beta draw, to warm the log path
        self.warm = self._draws(warm)
        self.pending = self._ops(itertools.cycle(self.pool))

    def _draws(self, u: np.ndarray) -> list:
        alpha = 0.3 + 1.5 * u[:, 0]
        beta = -1.0 + 2.0 * u[:, 1]
        eta = 2.0 * u[:, 2]
        u_left = 0.05 + 1.95 * u[:, 3]
        u_right = 0.05 + 1.95 * u[:, 4]
        snap = u[:, 5] < self.SNAP_SHARE
        draws = []
        for i in range(len(u)):
            a, b, e = float(alpha[i]), float(beta[i]), float(eta[i])
            if snap[i]:
                # a dyadic beta makes beta + m and eta - beta exact; m is the
                # integer nearest eta - beta that keeps eta in [0, 2]
                b = round(b * 2.0**20) / 2.0**20
                lo, hi = max(0, math.ceil(-b)), min(2, math.floor(2.0 - b))
                e = b + min(hi, max(lo, round(e - b)))
            p = operators.SaigoParams(alpha=a, beta=b, eta=e)
            lam_l = max(0.0, b - e) + float(u_left[i])
            lam_r = 1.0 + min(b, e) - float(u_right[i])
            sides = []
            for side, lam, image in (
                ("left", lam_l, operators.saigo_left_monomial),
                ("right", lam_r, operators.saigo_right_monomial),
            ):
                coeff, exponent = image(p, lam)
                sides.append((side, monomial(lam), coeff, exponent))
            draws.append((p, sides))
        return draws

    def warm_up(self) -> None:
        self._run(self._ops(self.warm), Tally(), math.inf, 10**9)

    def run(self, tally: Tally, deadline: float, max_ops: int) -> None:
        self._run(self.pending, tally, deadline, max_ops)

    def finish(self, tally: Tally) -> None:
        """Gates that run after the measured loop."""
        _gate_refusals(tally, self.REFUSAL_CEILING, "ops")

    def _ops(self, draws):
        for p, sides in draws:
            for x in self.X_POINTS:
                for side, f, coeff, exponent in sides:
                    yield p, side, f, x, coeff * x**exponent

    def _run(self, ops, tally: Tally, deadline: float, max_ops: int) -> None:
        for op in ops:
            self._op(tally, *op)
            if _stop(tally, deadline, max_ops):
                return

    def _op(self, tally: Tally, p, side: str, f, x: float, want: float) -> None:
        transform = operators.saigo_left if side == "left" else operators.saigo_right
        refused = None
        tally.attempts += 1
        t0 = time.perf_counter()
        try:
            r = transform(f, p, x, tol=self.TOL)
            value, estimate = r.value, r.error_estimate
        except AccuracyError as exc:
            refused = exc
            value, estimate = exc.value, exc.error_estimate
        except Exception as exc:
            tally.timed(t0)
            tally.failures.append(f"{side} {p} x={x}: {_describe(exc)}")
            return
        tally.timed(t0)
        where = f"{side} alpha={p.alpha!r} beta={p.beta!r} eta={p.eta!r} x={x}"
        if value is None or estimate is None or not math.isfinite(value):
            tally.failures.append(f"{where}: no finite value ({refused})")
            return
        tally.values(value, estimate)
        rel = _rel(value, want)
        tally.error(rel)
        tally.underruns += abs(value - want) > estimate
        if refused is not None:
            tally.refused.append(f"{where}: AccuracyError, rel err {rel:.2e}: {refused}")
        if not rel <= self.GATE:
            tally.failures.append(f"{where}: rel err {rel!r} vs exact image exceeds {self.GATE}")


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


class VerifySuite:
    """In-process `fracbessel verify --theorems all --n 1` calls, one seed each.

    One op is one harness.check_identity call (one draw of one identity at
    its three x points), timed by a clock-pair wrapper installed where
    run_suite looks it up.  Each call's canonical JSON is hashed; the first
    call is run again after the timed loop and must hash the same.  More
    than REFUSAL_CEILING of the calls refused fails the pass (today under
    1% are).
    """

    name = "verify-suite"
    tail_percentile = 97.5
    TOL = "1e-5"
    POOL_CALLS = 5000
    REFUSAL_CEILING = 0.03

    def __init__(self, seed: int, work_dir: str):
        rng = np.random.default_rng([seed, MEASURED_STREAM])
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1, self.POOL_CALLS)]
        self.warm_seed = int(np.random.default_rng(WARM_RNG).integers(0, 2**31 - 1))
        self.out_path = os.path.join(work_dir, f"verify-{os.getpid()}.json")
        self.first = None  # (seed, SHA-256) of the run's first complete call
        self.pending = itertools.cycle(self.seeds)

    def warm_up(self) -> None:
        self._call(self.warm_seed, Tally())

    def run(self, tally: Tally, deadline: float, max_ops: int) -> None:
        for s in self.pending:
            sha = self._call(s, tally)
            if self.first is None and sha is not None:
                self.first = (s, sha)
            if _stop(tally, deadline, max_ops):
                break

    def finish(self, tally: Tally) -> None:
        """Gates that run after the measured loop, outside its timing and
        tracing: the repeat of the first call, and the refusal ceiling."""
        if self.first is not None:
            seed, sha = self.first
            again = self._call(seed, Tally())
            if again != sha:
                tally.failures.append(
                    f"verify --seed {seed}: canonical JSON SHA-256 changed on repeat "
                    f"({sha} then {again})"
                )
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        _gate_refusals(tally, self.REFUSAL_CEILING, "verify calls")

    def _call(self, seed: int, tally: Tally):
        """One CLI call; returns the SHA-256 of its JSON report, or None."""
        argv = [
            "verify", "--theorems", "all", "--n", "1", "--seed", str(seed),
            "--tol", self.TOL, "--output", "json", "--out", self.out_path,
        ]
        check = harness.check_identity
        captured: list = []

        def timed(draw, x_points, tol=1e-5):
            t0 = time.perf_counter()
            records = check(draw, x_points, tol)
            tally.timed(t0)
            captured.append(records)
            return records

        stderr = io.StringIO()
        tally.attempts += 1
        harness.check_identity = timed
        try:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.out_path)
            with contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except Exception as exc:
            tally.failures.append(f"verify --seed {seed}: {_describe(exc)}")
            return None
        finally:
            harness.check_identity = check

        for records in captured:
            self._check(tally, seed, records)
        message = stderr.getvalue().strip()
        if rc == 2:
            tally.refused.append(f"verify --seed {seed}: exit 2: {message}")
            return None
        if rc != 0:
            tally.failures.append(f"verify --seed {seed}: exit {rc}: {message}")
            return None
        with open(self.out_path, "rb") as fh:
            blob = fh.read()
        summary = json.loads(blob)["summary"]
        if not summary["all_passed"]:
            tally.failures.append(f"verify --seed {seed}: report has failing records")
        sha = hashlib.sha256(blob).hexdigest()
        tally.text(sha)
        return sha

    def _check(self, tally: Tally, seed: int, records) -> None:
        worst = 0.0
        under = False
        for r in records:
            tally.values(r.lhs, r.rhs, r.lhs_error_estimate, r.rhs_trunc_estimate)
            if math.isfinite(r.rel_residual):
                worst = max(worst, r.rel_residual)
            under = under or r.abs_diff > r.lhs_error_estimate + r.rhs_trunc_estimate
            if not r.passed:
                d = r.draw
                tally.failures.append(
                    f"verify --seed {seed}: {d.theorem_id} draw {d.seed_index} x={r.x}: "
                    f"rel {r.rel_residual!r} {r.note}"
                )
        tally.error(worst)
        tally.underruns += under


def make(name: str, seed: int, work_dir: str):
    if name == MonomialSweep.name:
        return MonomialSweep(seed)
    if name == VerifySuite.name:
        return VerifySuite(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")

