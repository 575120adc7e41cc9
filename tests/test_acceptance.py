"""End-to-end acceptance battery for the package's headline guarantees.

Each test exercises one guarantee over seeded random parameter sweeps,
prints a single summary line that survives pytest's output capture, and
asserts the stated tolerance (and, where one applies, the runtime budget).
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

import fracbessel
from fracbessel import (
    THEOREM_IDS,
    KBesselParams,
    SaigoParams,
    SuiteConfig,
    corollary_wright_spec,
    eval_k_bessel,
    evaluate_closed_form,
    gauss_2f1_at_1,
    k_gamma,
    log_gamma,
    monomial,
    pochhammer,
    run_suite,
    saigo_left,
    saigo_left_monomial,
    saigo_right,
    saigo_right_monomial,
    sample_params,
    theorem21_spec,
    theorem24_spec,
    theorem31_spec,
    theorem34_spec,
)

from _oracles import bessel_j_oracle, pochhammer_oracle

X_POINTS = (0.5, 1.0, 2.0)
SEED = 20260814


def _announce(capsys, number, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {label}: {verdict} ({detail})")


def test_acceptance_1_power_function_images(capsys):
    """Transforms of t^(lam-1) match their gamma-ratio power images."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    checks = 0
    underruns = []  # transforms whose actual error exceeds their estimate
    for _ in range(200):
        alpha = float(rng.uniform(0.3, 1.8))
        beta = float(rng.uniform(-1.0, 1.0))
        eta = float(rng.uniform(0.0, 2.0))
        lam_left = max(0.0, beta - eta) + float(rng.uniform(0.05, 2.0))
        lam_right = 1.0 + min(beta, eta) - float(rng.uniform(0.05, 2.0))
        p = SaigoParams(alpha=alpha, beta=beta, eta=eta)
        coeff_l, exp_l = saigo_left_monomial(p, lam_left)
        coeff_r, exp_r = saigo_right_monomial(p, lam_right)
        f_left, f_right = monomial(lam_left), monomial(lam_right)
        for x in X_POINTS:
            for transform, f, want in (
                (saigo_left, f_left, coeff_l * x**exp_l),
                (saigo_right, f_right, coeff_r * x**exp_r),
            ):
                r = transform(f, p, x)
                worst = max(worst, abs(r.value - want) / abs(want))
                if abs(r.value - want) > r.error_estimate:
                    underruns.append((transform.__name__, p, x))
                checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    _announce(capsys, 1, "power-function transform images", ok,
              f"{checks} checks, worst rel {worst:.2e} vs 1e-06, {elapsed:.1f}s/60s")
    assert worst <= 1e-6
    assert elapsed <= 60.0
    # every estimate covers its transform's actual error
    assert underruns == []


def _suite_sweep(capsys, number, label, theorem_id, n_draws, budget_s):
    t0 = time.perf_counter()
    report = run_suite(
        SuiteConfig(theorems=(theorem_id,), n_draws=n_draws, seed=SEED, tol=1e-5)
    )
    elapsed = time.perf_counter() - t0
    worst = report.per_theorem[theorem_id]["worst_rel_residual"]
    ok = report.all_passed and elapsed <= budget_s
    _announce(capsys, number, label, ok,
              f"{len(report.records)} records, {report.n_passed} passed, "
              f"worst rel {worst:.2e} vs 1e-05, {elapsed:.1f}s/{budget_s:.0f}s")
    assert report.all_passed
    assert elapsed <= budget_s


def test_acceptance_2_left_transform_identity(capsys):
    """Quadrature of the left transform equals its Fox-Wright closed form."""
    _suite_sweep(capsys, 2, "left-sided transform vs closed form", "2.1", 50, 180.0)


def test_acceptance_3_right_transform_identity(capsys):
    """Quadrature of the right transform equals its Fox-Wright closed form."""
    _suite_sweep(capsys, 3, "right-sided transform vs closed form", "2.4", 50, 180.0)


_COROLLARY_PARENTS = {
    "cor2.2": ("rl_left", theorem21_spec),
    "cor2.3": ("ek_left", theorem21_spec),
    "cor2.5": ("rl_right", theorem24_spec),
    "cor2.6": ("ek_right", theorem24_spec),
}


def test_acceptance_4_reduced_operator_corollaries(capsys):
    """Riemann-Liouville / Erdelyi-Kober reductions: quadrature identity at
    1e-5 over 20 draws each, and series-level agreement with the parent
    form (beta pinned) at 1e-12."""
    all_green = True
    worst_parent = 0.0
    n_records = 0
    for tid, (variant, parent) in _COROLLARY_PARENTS.items():
        report = run_suite(
            SuiteConfig(theorems=(tid,), n_draws=20, seed=SEED, tol=1e-5)
        )
        all_green = all_green and report.all_passed
        n_records += len(report.records)
        for draw in sample_params(tid, 20, seed=SEED):
            cf_cor = corollary_wright_spec(variant, draw.params)
            cf_parent = parent(draw.params)
            for x in X_POINTS:
                a = evaluate_closed_form(cf_cor, x, 1e-14).value
                b = evaluate_closed_form(cf_parent, x, 1e-14).value
                worst_parent = max(worst_parent, abs(a - b) / abs(b))
    ok = all_green and worst_parent <= 1e-12
    _announce(capsys, 4, "reduced-operator corollaries", ok,
              f"{n_records} quadrature records all passed: {all_green}; "
              f"parent-form series gap {worst_parent:.2e} vs 1e-12")
    assert all_green
    assert worst_parent <= 1e-12


def test_acceptance_5_series_cross_representation(capsys):
    """Fox-Wright forms and their duplication-reduced hypergeometric twins
    agree to 1e-10 over 100 draws x 3 points, per side."""
    t0 = time.perf_counter()
    worst = 0.0
    checks = 0
    for tid, wright, pfq in (("3.1", theorem21_spec, theorem31_spec),
                             ("3.4", theorem24_spec, theorem34_spec)):
        for draw in sample_params(tid, 100, seed=SEED):
            a_cf = wright(draw.params)
            b_cf = pfq(draw.params)
            for x in X_POINTS:
                a = evaluate_closed_form(a_cf, x, 1e-13).value
                b = evaluate_closed_form(b_cf, x, 1e-13).value
                worst = max(worst, abs(a - b) / abs(a))
                checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 30.0
    _announce(capsys, 5, "series cross-representation", ok,
              f"{checks} comparisons, worst rel {worst:.2e} vs 1e-10, "
              f"{elapsed:.1f}s/30s")
    assert worst <= 1e-10
    assert elapsed <= 30.0


def test_acceptance_6_classical_bessel_reduction(capsys):
    """At k=1, c=1 the generalized function collapses to classical J_v."""
    worst = 0.0
    for v in (0.0, 1.0, 2.5):
        for z in (0.5, 1.0, 2.0, 5.0):
            got = eval_k_bessel(KBesselParams(v=v, c=1.0, k=1.0), z, 1e-14).value
            want = bessel_j_oracle(v, z, 40)
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-10
    _announce(capsys, 6, "classical Bessel reduction", ok,
              f"12 points, worst rel {worst:.2e} vs 1e-10")
    assert worst <= 1e-10


def test_acceptance_7_gamma_identity_battery(capsys):
    """Recurrences, duplications, and the terminating Gauss sum, 500 random
    draws each at 1e-12 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = {}

    def track(name, got, want):
        rel = abs(got - want) / max(abs(want), 1e-300)
        worst[name] = max(worst.get(name, 0.0), rel)

    for _ in range(500):
        x = float(rng.uniform(0.05, 10.0))
        track("gamma recurrence", log_gamma(x + 1.0).value, x * log_gamma(x).value)

        z = float(rng.uniform(0.1, 6.0))
        k = float(rng.uniform(0.3, 3.0))
        track("k-gamma recurrence", k_gamma(z + k, k), z * k_gamma(z, k))
        track("k-gamma scaling", k_gamma(z, k),
              k ** (z / k - 1.0) * math.gamma(z / k))

        w = float(rng.uniform(0.05, 15.0))
        track("duplication", log_gamma(2.0 * w).value,
              2.0 ** (2.0 * w - 1.0) / math.sqrt(math.pi)
              * log_gamma(w).value * log_gamma(w + 0.5).value)

        a = float(rng.uniform(-3.0, 5.0))
        n = int(rng.integers(0, 41))
        track("rising-factorial duplication", pochhammer(a, 2 * n),
              4.0**n * pochhammer_oracle(a / 2.0, n)
              * pochhammer_oracle((a + 1.0) / 2.0, n))

        m = int(rng.integers(1, 13))
        c = float(rng.uniform(0.1, 4.0))
        b = float(rng.uniform(0.1, min(4.0, c + m - 0.1)))
        track("terminating Gauss sum", gauss_2f1_at_1(-float(m), b, c),
              pochhammer_oracle(c - b, m) / pochhammer_oracle(c, m))

    elapsed = time.perf_counter() - t0
    overall = max(worst.values())
    ok = overall <= 1e-12 and elapsed <= 5.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _announce(capsys, 7, "gamma-identity battery", ok,
              f"500 draws each, worst rel vs 1e-12: {detail}; {elapsed:.1f}s/5s")
    for name, rel in worst.items():
        assert rel <= 1e-12, name
    assert elapsed <= 5.0


def test_acceptance_8_deterministic_reports(capsys, tmp_path):
    """A seeded verification run renders byte-identical JSON on repeat runs
    and under different thread-pool environment settings."""
    cfg = SuiteConfig(theorems=THEOREM_IDS, n_draws=1, seed=123, tol=1e-5)
    in_process = [run_suite(cfg).to_json() for _ in range(2)]

    # the child runs in tmp_path, where a relative PYTHONPATH would not resolve
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(fracbessel.__file__)))
    rendered = []
    for name, threads in (("single.json", "1"), ("multi.json", "4")):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = threads
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fracbessel.cli", "verify",
             "--theorems", "all", "--n", "1", "--seed", "123", "--tol", "1e-5",
             "--output", "json", "--out", str(out)],
            env=env, capture_output=True, text=True, cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        rendered.append(out.read_text())

    records = len(THEOREM_IDS) * 1 * 3
    identical = len({*in_process, *rendered}) == 1
    ok = identical and f'"records": {records}' in in_process[0]
    _announce(capsys, 8, "deterministic reports", ok,
              f"{records} records; 2 in-process + 2 subprocess renderings "
              f"{'byte-identical' if identical else 'DIFFER'}")
    assert identical
