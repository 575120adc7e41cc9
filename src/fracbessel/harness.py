"""Randomized verification suite: quadrature vs closed forms.

For each identity in THEOREM_IDS the harness draws valid parameter sets,
evaluates the fractional transform of the k-Bessel integrand by adaptive
quadrature on nested Fejér rules (left trusted side), evaluates the matching
closed-form series (right side), and records the relative residual.  A
record passes when the residual is within tolerance or the absolute gap is
within ten times the quadrature's own error estimate (with a 1e-12 absolute
floor for near-zero values).

Reports are deterministic given the configuration: records are sorted by
(theorem_id, seed_index, x), the canonical JSON excludes wall time, and all
sampling uses a per-theorem seeded generator.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .closed_forms import (
    TheoremParams,
    evaluate_closed_form,
    theorem21_spec,
    theorem24_spec,
    theorem31_spec,
    theorem34_spec,
)
from .errors import (
    AccuracyError, ConvergenceError, DomainError, require_finite, require_positive_finite,
)
from .integrands import kbessel_integrand
from .operators import Family, SaigoParams, saigo_left, saigo_right
from .series import KBesselParams

ABS_FLOOR = 1e-12
ESTIMATE_FACTOR = 10.0
_LAMBDA_RANGE = (0.1, 2.5)
_MAX_LAMBDA_RESAMPLES = 1000


# theorem_id -> (side, operator family, closed-form builder); a corollary
# is its parent theorem at the family's beta, which sample_params draws
_VARIANTS: dict = {
    "2.1": ("left", Family.SAIGO, theorem21_spec),
    "2.4": ("right", Family.SAIGO, theorem24_spec),
    "3.1": ("left", Family.SAIGO, theorem31_spec),
    "3.4": ("right", Family.SAIGO, theorem34_spec),
    "cor2.2": ("left", Family.RIEMANN_LIOUVILLE, theorem21_spec),
    "cor2.3": ("left", Family.ERDELYI_KOBER, theorem21_spec),
    "cor2.5": ("right", Family.RIEMANN_LIOUVILLE, theorem24_spec),
    "cor2.6": ("right", Family.ERDELYI_KOBER, theorem24_spec),
    "cor3.2": ("left", Family.RIEMANN_LIOUVILLE, theorem31_spec),
    "cor3.3": ("left", Family.ERDELYI_KOBER, theorem31_spec),
    "cor3.5": ("right", Family.RIEMANN_LIOUVILLE, theorem34_spec),
    "cor3.6": ("right", Family.ERDELYI_KOBER, theorem34_spec),
}

# identity order fixes each id's sampling stream (seeded by its index)
THEOREM_IDS = tuple(_VARIANTS)


def _variant(theorem_id: str) -> tuple:
    """(side, family, builder) of theorem_id; DomainError for an unknown id."""
    if not isinstance(theorem_id, str) or theorem_id not in _VARIANTS:
        raise DomainError(
            f"unknown theorem id {theorem_id!r}; known ids: {', '.join(THEOREM_IDS)}"
        )
    return _VARIANTS[theorem_id]

# Where several printed parameterizations of a form circulate, the shipped
# variant is the one that survives the quadrature cross-check; these notes
# record each arbitration so reports are self-describing.
ARBITRATION_NOTES: dict = {
    "2.1": (
        "variant arbitration 2.1: series coefficients advance with step 2 on every "
        "lambda-bearing pair and step 1 on v/k+1; argument -c x^2/(4k); prefactor "
        "power (lam+v)/k - beta - 1. Variants with step 2k, argument -c x^2/4, or a "
        "k-divided prefactor exponent fail the quadrature cross-check."
    ),
    "2.4": (
        "variant arbitration 2.4: argument -c/(4 k x^2) and prefactor power "
        "(lam-v)/k - beta - 1. Variants with argument -c/(4 x^2) or prefactor "
        "exponent ((lam-v)/k - beta)/k - 1 fail the quadrature cross-check."
    ),
    "3.1": (
        "variant arbitration 3.1: with L=(lam+v)/k the duplication-reduced lower "
        "parameters are (L-beta)/2 and (L-beta+1)/2; the variant (L-beta-1)/2 fails "
        "the series cross-check against form 2.1."
    ),
    "3.4": (
        "variant arbitration 3.4: duplication-reduced twin of 2.4; argument "
        "-c/(4 k x^2) retained, parameters split as a/2, (a+1)/2."
    ),
    "cor2.2": (
        "variant arbitration cor2.2: pairs ((lam+v)/k, 2) over ((lam+v)/k+alpha, 2) "
        "and (v/k+1, 1); unnormalized step-2k/step-k printings are not used."
    ),
    "cor2.5": (
        "variant arbitration cor2.5: verified as the right-sided Riemann-Liouville "
        "reduction (beta = -alpha substituted into the right-sided transform); a "
        "left-sided operator pairing for this form fails the quadrature cross-check."
    ),
    "cor3.5": (
        "variant arbitration cor3.5: duplication-reduced twin of cor2.5, likewise "
        "paired with the right-sided Riemann-Liouville operator."
    ),
}


@dataclass(frozen=True)
class ParameterDraw:
    """One sampled parameter set for a named identity."""

    params: TheoremParams
    theorem_id: str
    seed_index: int


def _jsonable_float(x: float) -> Optional[float]:
    # canonical JSON stays strict: non-finite floats serialize as null
    return x if math.isfinite(x) else None


@lru_cache(maxsize=None)
def _fields(cls) -> tuple:
    """(name, type, type is a dataclass) of each field of the dataclass cls."""
    return tuple(
        (name, tp, dataclasses.is_dataclass(tp))
        for name, tp in get_type_hints(cls).items()
    )


def _flat_dict(obj) -> dict:
    """The fields of a dataclass as one flat dict, nested dataclasses inlined
    in place and non-finite float fields as None."""
    d = {}
    for name, tp, nested in _fields(type(obj)):
        val = getattr(obj, name)
        if nested:
            d.update(_flat_dict(val))
        else:
            d[name] = _jsonable_float(val) if tp is float else val
    return d


def _flat_names(cls) -> list:
    """The keys, in order, that _flat_dict gives an instance of cls."""
    return [
        flat_name
        for name, tp, nested in _fields(cls)
        for flat_name in (_flat_names(tp) if nested else [name])
    ]


def _from_flat(cls, d: dict):
    """Inverse of _flat_dict: float fields are coerced with float() and None
    comes back as NaN; a key that is absent leaves the field's default."""
    kwargs = {}
    for name, tp, nested in _fields(cls):
        if nested:
            kwargs[name] = _from_flat(tp, d)
        elif name in d:
            val = d[name]
            if tp is float:
                val = math.nan if val is None else float(val)
            kwargs[name] = val
    return cls(**kwargs)


@dataclass(frozen=True)
class VerificationRecord:
    """LHS-vs-RHS comparison at a single evaluation point."""

    draw: ParameterDraw
    x: float
    lhs: float
    rhs: float
    abs_diff: float
    rel_residual: float
    lhs_error_estimate: float
    rhs_trunc_estimate: float
    evaluations: int
    terms_used: int
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return _flat_dict(self)


@dataclass(frozen=True)
class SuiteConfig:
    """Inputs that fully determine a verification run."""

    theorems: tuple = THEOREM_IDS
    n_draws: int = 5
    seed: int = 0
    tol: float = 1e-5
    x_points: tuple = (0.5, 1.0, 2.0)
    margin: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "theorems", tuple(self.theorems))
        object.__setattr__(self, "x_points", tuple(float(x) for x in self.x_points))
        if not self.theorems:
            raise DomainError("theorems must be non-empty")
        for tid in self.theorems:
            _variant(tid)
        if not isinstance(self.n_draws, int) or self.n_draws < 1:
            raise DomainError(f"n_draws must be an integer >= 1, got {self.n_draws!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (0 < self.tol <= 1e-2):
            raise DomainError(f"tol must lie in (0, 1e-2], got {self.tol!r}")
        require_finite("SuiteConfig margin and x_points", self.margin, *self.x_points)
        if self.margin < 0:
            raise DomainError(f"margin must be >= 0, got {self.margin!r}")
        if not self.x_points:
            raise DomainError("x_points must be non-empty")
        for x in self.x_points:
            if not (x > 0):
                raise DomainError(f"evaluation points must be positive, got {x!r}")
        # Right-sided identities keep the series argument -c/(4k x^2) moderate
        # by requiring x >= 0.5; rejecting smaller points up front preserves
        # the records = draws * points invariant instead of silently dropping.
        right_ids = [t for t in self.theorems if _VARIANTS[t][0] == "right"]
        if right_ids and min(self.x_points) < 0.5:
            raise DomainError(
                f"right-sided identities ({', '.join(sorted(set(right_ids)))}) "
                f"require evaluation points >= 0.5; got {min(self.x_points)!r}"
            )

    def to_dict(self) -> dict:
        return _flat_dict(self)


@dataclass
class Report:
    """Verification results; suite_id, per_theorem and notes are derived from
    the config and the records, so no rendering can disagree with the records.
    Canonical JSON excludes wall time."""

    config: SuiteConfig
    records: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def suite_id(self) -> str:
        """verify- plus 12 hex digits of the SHA-256 of the config's JSON."""
        blob = json.dumps(self.config.to_dict(), sort_keys=True).encode()
        return "verify-" + hashlib.sha256(blob).hexdigest()[:12]

    @property
    def per_theorem(self) -> dict:
        """theorem_id -> counts and worst finite relative residual (or None)."""
        per_theorem: dict = {}
        for r in self.records:
            bucket = per_theorem.setdefault(
                r.draw.theorem_id,
                {"records": 0, "passed": 0, "failed": 0, "worst_rel_residual": None},
            )
            bucket["records"] += 1
            bucket["passed" if r.passed else "failed"] += 1
            if math.isfinite(r.rel_residual):
                worst = bucket["worst_rel_residual"]
                if worst is None or r.rel_residual > worst:
                    bucket["worst_rel_residual"] = r.rel_residual
        return per_theorem

    @property
    def notes(self) -> list:
        """The arbitration notes of the configured identities, in config order."""
        return [
            ARBITRATION_NOTES[tid]
            for tid in dict.fromkeys(self.config.theorems)
            if tid in ARBITRATION_NOTES
        ]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.records if r.passed)

    def canonical_dict(self) -> dict:
        return {
            "suite_id": self.suite_id,
            "config": self.config.to_dict(),
            "summary": {
                "records": len(self.records),
                "passed": self.n_passed,
                "failed": len(self.records) - self.n_passed,
                "all_passed": self.all_passed,
            },
            "per_theorem": self.per_theorem,
            "notes": self.notes,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2) + "\n"


def sample_params(
    theorem_id: str, n: int, seed: int, margin: float = 0.05
) -> list:
    """Draw n valid parameter sets for theorem_id, deterministically in seed.

    Ranges: alpha in [0.3, 1.8]; beta in [-1, 1] (or -alpha / 0 for the
    Riemann-Liouville / Erdelyi-Kober reductions); eta in [0, 2]; v in
    [-0.5, 2]; k in [0.5, 2.5]; c is -1, +1, or uniform on [0.25, 2] with
    equal probability.  lam is drawn uniformly on [0.1, 2.5] and rejected
    (lam only) until the identity's validity inequality holds with the given
    margin, or drawn uniformly on the feasible part of [0.1, 2.5] once 1000
    rejections run out; if no point of [0.1, 2.5] is feasible, lam shifts to
    the margin-satisfying boundary.
    """
    side, family, _ = _variant(theorem_id)
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n!r}")
    rng = np.random.default_rng([seed, THEOREM_IDS.index(theorem_id)])
    draws = []
    for i in range(n):
        alpha = float(rng.uniform(0.3, 1.8))
        if family is Family.SAIGO:
            beta = float(rng.uniform(-1.0, 1.0))
        else:
            beta = SaigoParams(alpha, family=family).beta
        eta = float(rng.uniform(0.0, 2.0))
        v = float(rng.uniform(-0.5, 2.0))
        k = float(rng.uniform(0.5, 2.5))
        category = int(rng.integers(3))
        if category == 0:
            c = -1.0
        elif category == 1:
            c = 1.0
        else:
            c = float(rng.uniform(0.25, 2.0))
        lam = _draw_lambda(rng, side, alpha, beta, eta, v, k, margin)
        params = TheoremParams(alpha=alpha, beta=beta, eta=eta, lam=lam, v=v, c=c, k=k)
        draws.append(ParameterDraw(params=params, theorem_id=theorem_id, seed_index=i))
    return draws


def _draw_lambda(rng, side, alpha, beta, eta, v, k, margin) -> float:
    if side == "left":
        lo = k * (max(0.0, beta - eta) + margin) - v
        hi = math.inf
    else:
        lo = -math.inf
        hi = v + k * (1.0 + min(beta, eta) - margin)
    window_lo = max(lo, _LAMBDA_RANGE[0])
    window_hi = min(hi, _LAMBDA_RANGE[1])
    if window_lo <= window_hi:
        for _ in range(_MAX_LAMBDA_RESAMPLES):
            lam = float(rng.uniform(*_LAMBDA_RANGE))
            if window_lo <= lam <= window_hi:
                return lam
        # a narrow window: rejection sampling is uniform on the window too,
        # so drawing there directly keeps the distribution
        return float(rng.uniform(window_lo, window_hi))
    # no feasible point inside the nominal range: shift to the boundary,
    # which satisfies the inequality with exactly the requested margin
    return lo if side == "left" else hi


def check_identity(
    draw: ParameterDraw, x_points: Sequence[float], tol: float = 1e-5
) -> list:
    """Compare quadrature LHS with the closed-form RHS at each point.

    Both the integrand's series truncation and the quadrature target run at
    tol/100 so the comparison's error budget is dominated by neither side.
    Setup (domain, convergence, float range), quadrature and closed-form
    failures mark only the affected record as failed, with the diagnostic in
    its note: a record passes when it has no note and is within tolerance.
    """
    side, family, builder = _variant(draw.theorem_id)
    p = draw.params
    inner_tol = tol / 100.0

    setup_notes = []
    try:
        cf = builder(p)
        sp = SaigoParams(alpha=p.alpha, beta=p.beta, eta=p.eta, family=family)
        f = kbessel_integrand(
            KBesselParams(v=p.v, c=p.c, k=p.k), p.lam,
            reciprocal=(side == "right"), series_tol=inner_tol,
        )
        operator = saigo_left if side == "left" else saigo_right
    except (DomainError, ConvergenceError, OverflowError) as exc:
        setup_notes.append(f"setup failed: {type(exc).__name__}: {exc}")

    records = []
    for x in x_points:
        x = float(x)
        require_positive_finite("check_identity", "x", x)
        notes = list(setup_notes)
        lhs = lhs_est = rhs = rhs_trunc = math.nan
        evaluations = terms_used = 0
        if not notes:
            try:
                qr = operator(f, sp, x, tol=inner_tol)
                lhs, lhs_est, evaluations = qr.value, qr.error_estimate, qr.evaluations
            except AccuracyError as exc:
                lhs = exc.value if exc.value is not None else math.nan
                lhs_est = exc.error_estimate if exc.error_estimate is not None else math.nan
                evaluations = exc.evaluations
                notes.append(f"quadrature accuracy: {exc}")
            except (DomainError, ConvergenceError, OverflowError) as exc:
                notes.append(f"quadrature: {type(exc).__name__}: {exc}")
            try:
                sv = evaluate_closed_form(cf, x, inner_tol)
                rhs, rhs_trunc, terms_used = sv.value, sv.trunc_estimate, sv.terms_used
                if not sv.converged:
                    notes.append("closed form: series not converged at cap")
            except (DomainError, ConvergenceError, OverflowError) as exc:
                notes.append(f"closed form: {type(exc).__name__}: {exc}")

        abs_diff = abs(lhs - rhs)
        rel = abs_diff / max(abs(lhs), abs(rhs), 1e-300)
        passed = not notes and bool(
            rel <= tol or abs_diff <= max(ESTIMATE_FACTOR * lhs_est, ABS_FLOOR)
        )
        records.append(
            VerificationRecord(
                draw=draw, x=x, lhs=lhs, rhs=rhs, abs_diff=abs_diff,
                rel_residual=rel, lhs_error_estimate=lhs_est,
                rhs_trunc_estimate=rhs_trunc, evaluations=evaluations,
                terms_used=terms_used, passed=passed, note="; ".join(notes),
            )
        )
    return records


def run_suite(config: SuiteConfig) -> Report:
    """Sample, check, and aggregate every identity in config.theorems."""
    t0 = time.perf_counter()
    records = []
    for tid in config.theorems:
        for draw in sample_params(tid, config.n_draws, config.seed, config.margin):
            records.extend(check_identity(draw, config.x_points, config.tol))
    records.sort(key=lambda r: (r.draw.theorem_id, r.draw.seed_index, r.x))
    return Report(config=config, records=records, wall_time_s=time.perf_counter() - t0)


def render_text(report: Report) -> str:
    """Aligned-column human rendering, including wall time."""
    out = io.StringIO()
    cfg = report.config
    out.write(f"suite {report.suite_id}\n")
    out.write(
        f"seed={cfg.seed} n_draws={cfg.n_draws} tol={cfg.tol:g} "
        f"margin={cfg.margin:g} x_points={list(cfg.x_points)}\n"
    )
    out.write(
        f"records={len(report.records)} passed={report.n_passed} "
        f"failed={len(report.records) - report.n_passed} "
        f"wall_time_s={report.wall_time_s:.3f}\n\n"
    )
    out.write(f"{'theorem':<8} {'records':>8} {'passed':>8} {'failed':>8} {'worst rel residual':>20}\n")
    for tid, b in report.per_theorem.items():
        worst = b["worst_rel_residual"]
        worst_s = f"{worst:.3e}" if worst is not None else "n/a"
        out.write(
            f"{tid:<8} {b['records']:>8} {b['passed']:>8} {b['failed']:>8} {worst_s:>20}\n"
        )
    failures = [r for r in report.records if not r.passed]
    if failures:
        out.write("\nfailing records:\n")
        for r in failures:
            d = r.draw
            out.write(
                f"  {d.theorem_id} draw {d.seed_index} x={r.x:g}: "
                f"lhs={r.lhs!r} rhs={r.rhs!r} rel={r.rel_residual!r}"
            )
            if r.note:
                out.write(f"  [{r.note}]")
            out.write("\n")
    if report.notes:
        out.write("\nnotes:\n")
        for note in report.notes:
            out.write(f"  - {note}\n")
    return out.getvalue()


# CSV rows lead with the record order key, then the rest in to_dict order
_CSV_LEAD = ("theorem_id", "seed_index", "x")
_CSV_FIELDS = _CSV_LEAD + tuple(
    name for name in _flat_names(VerificationRecord) if name not in _CSV_LEAD
)


def _csv_table(rows: Sequence[dict], fieldnames: Sequence[str]) -> str:
    """Dict rows as CSV text under a header of fieldnames."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def render_csv(report: Report) -> str:
    """One row per record, suitable for external plotting tools."""
    return _csv_table([r.to_dict() for r in report.records], _CSV_FIELDS)


def report_from_json(text: str) -> Report:
    """Rehydrate a Report from the config and records of its canonical JSON
    (wall time restored as 0); the rest of the JSON is derived from these."""
    data = json.loads(text)
    return Report(
        config=SuiteConfig(**data["config"]),
        records=[_from_flat(VerificationRecord, rd) for rd in data["records"]],
    )
