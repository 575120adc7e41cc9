"""Verification harness: sampling, identity checking, and reporting."""

import hashlib
import json
import math

import pytest

from fracbessel import (
    THEOREM_IDS,
    ParameterDraw,
    Report,
    SuiteConfig,
    TheoremParams,
    check_identity,
    render_csv,
    render_text,
    report_from_json,
    run_suite,
    sample_params,
)
from fracbessel.cli import main
from fracbessel.errors import DomainError

from _golden_verdicts import SEED_123_FIVE_DRAWS_JSON_SHA256, SEED_123_ONE_DRAW

SMALL = SuiteConfig(theorems=("2.1", "2.4", "cor3.3"), n_draws=2, seed=3, tol=1e-5)


# ---------------------------------------------------------------- sampling


def test_sample_params_deterministic_in_seed():
    a = sample_params("2.1", 5, seed=42)
    b = sample_params("2.1", 5, seed=42)
    assert a == b
    c = sample_params("2.1", 5, seed=43)
    assert a != c


def test_sample_params_streams_differ_by_theorem():
    a = [d.params.alpha for d in sample_params("2.1", 5, seed=0)]
    b = [d.params.alpha for d in sample_params("2.4", 5, seed=0)]
    assert a != b


@pytest.mark.parametrize("tid,margin", [("2.1", 0.05), ("2.1", 0.3), ("2.4", 0.2)])
def test_sample_params_respects_validity_margin(tid, margin):
    for d in sample_params(tid, 40, seed=7, margin=margin):
        p = d.params
        if tid == "2.1":
            assert p.big_l >= max(0.0, p.beta - p.eta) + margin - 1e-12
        else:
            assert p.big_m + min(p.beta, p.eta) >= margin - 1e-12


def test_sample_params_draws_inside_narrow_lambda_window():
    # this seed's 3.4 draw leaves lambda only the window [0.1, 0.10041],
    # which all 1000 rejection draws on [0.1, 2.5] miss
    (d,) = sample_params("3.4", 1, seed=920406030)
    p = d.params
    assert 0.1 <= p.lam <= 0.1005
    assert p.big_m + p.beta >= 0.05 and p.big_m + p.eta >= 0.05


def test_sample_params_pins_beta_for_reduced_families():
    for d in sample_params("cor2.2", 10, seed=1):
        assert d.params.beta == pytest.approx(-d.params.alpha)
    for d in sample_params("cor3.6", 10, seed=1):
        assert d.params.beta == 0.0


def test_sample_params_rejects_unknown_id_and_bad_count():
    with pytest.raises(DomainError, match="unknown theorem id"):
        sample_params("9.9", 3, seed=0)
    with pytest.raises(DomainError):
        sample_params("2.1", 0, seed=0)


# ---------------------------------------------------------------- checking


def test_check_identity_on_known_good_draw():
    p = TheoremParams(alpha=0.6, beta=0.3, eta=1.2, lam=0.1, v=0.4, c=1.0, k=1.5)
    draw = ParameterDraw(params=p, theorem_id="2.4", seed_index=0)
    records = check_identity(draw, (1.0, 2.0), tol=1e-5)
    assert len(records) == 2
    for r in records:
        assert r.passed
        assert r.rel_residual <= 1e-5
        assert math.isfinite(r.lhs) and math.isfinite(r.rhs)
        assert r.evaluations > 0 and r.terms_used > 0


def test_check_identity_refused_transform_keeps_its_work(monkeypatch):
    # a transform that cannot certify its tolerance still spent evaluations;
    # the failed record carries them with the best value and estimate
    from fracbessel import harness
    from fracbessel.errors import AccuracyError

    def refuse(f, sp, x, tol):
        raise AccuracyError("budget spent", value=0.5, error_estimate=0.25, evaluations=345)

    monkeypatch.setattr(harness, "saigo_left", refuse)
    p = TheoremParams(alpha=0.6, beta=0.3, eta=1.2, lam=1.1, v=0.4, c=1.0, k=1.5)
    draw = ParameterDraw(params=p, theorem_id="2.1", seed_index=0)
    (r,) = check_identity(draw, (1.0,), tol=1e-5)
    assert not r.passed and "quadrature accuracy" in r.note
    assert (r.lhs, r.lhs_error_estimate, r.evaluations) == (0.5, 0.25, 345)


def test_check_identity_degenerate_zero_coefficient():
    # c = 0 collapses the series to its leading term, so both sides reduce
    # to an exact power image; the residual should sit near rounding level
    p = TheoremParams(alpha=0.8, beta=0.2, eta=1.0, lam=1.4, v=0.5, c=0.0, k=1.0)
    draw = ParameterDraw(params=p, theorem_id="2.1", seed_index=0)
    for r in check_identity(draw, (0.5, 1.0, 2.0), tol=1e-5):
        assert r.passed
        assert r.rel_residual <= 1e-10


def test_check_identity_rejects_nonpositive_point():
    p = TheoremParams(alpha=0.8, beta=0.2, eta=1.0, lam=1.4, v=0.5, c=1.0, k=1.0)
    draw = ParameterDraw(params=p, theorem_id="2.1", seed_index=0)
    with pytest.raises(DomainError):
        check_identity(draw, (-1.0,), tol=1e-5)
    with pytest.raises(DomainError, match="finite"):
        check_identity(draw, (math.inf,), tol=1e-5)


def test_check_identity_rejects_unknown_id():
    p = TheoremParams(alpha=0.8, beta=0.2, eta=1.0, lam=1.4, v=0.5, c=1.0, k=1.0)
    with pytest.raises(DomainError, match="unknown theorem id '9.9'"):
        check_identity(ParameterDraw(params=p, theorem_id="9.9", seed_index=0), (1.0,))


def test_check_identity_invalid_params_fail_with_note():
    # left-sided validity violated: records are produced (one per point),
    # marked failed, and carry the setup diagnostic instead of raising
    p = TheoremParams(alpha=0.5, beta=1.5, eta=0.2, lam=0.4, v=0.3, c=1.0, k=1.0)
    draw = ParameterDraw(params=p, theorem_id="2.1", seed_index=0)
    records = check_identity(draw, (0.5, 1.0), tol=1e-5)
    assert len(records) == 2
    for r in records:
        assert not r.passed
        assert "setup failed" in r.note


# ---------------------------------------------------------------- config


def test_config_rejects_unknown_theorem():
    with pytest.raises(DomainError, match="unknown theorem id"):
        SuiteConfig(theorems=("2.1", "nope"))
    # an unhashable id is unknown too, not a TypeError from the lookup
    with pytest.raises(DomainError, match="unknown theorem id"):
        SuiteConfig(theorems=[["2.1"]])


def test_config_validation_bounds():
    with pytest.raises(DomainError):
        SuiteConfig(n_draws=0)
    with pytest.raises(DomainError):
        SuiteConfig(tol=0.5)
    with pytest.raises(DomainError):
        SuiteConfig(tol=0.0)
    with pytest.raises(DomainError):
        SuiteConfig(margin=-0.1)
    with pytest.raises(DomainError):
        SuiteConfig(x_points=())
    with pytest.raises(DomainError, match="theorems"):
        SuiteConfig(theorems=())
    with pytest.raises(DomainError):
        SuiteConfig(x_points=(0.0,))
    with pytest.raises(DomainError, match="finite"):
        SuiteConfig(x_points=(math.inf,))
    with pytest.raises(DomainError, match="finite"):
        SuiteConfig(margin=math.nan)


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": -1}, {"seed": 1.5}, {"n_draws": 1.5}, {"n_draws": 2.0}],
    ids=["seed-negative", "seed-float", "n-draws-fraction", "n-draws-float"],
)
def test_config_rejects_negative_or_non_integer_seed_and_draws(kwargs):
    # these reached the generator or range() and failed there with a raw
    # ValueError / TypeError
    with pytest.raises(DomainError, match="integer"):
        SuiteConfig(**kwargs)


def test_config_right_sided_points_must_stay_moderate():
    # x < 0.5 blows up the right-sided series argument; rejected up front
    with pytest.raises(DomainError, match=">= 0.5"):
        SuiteConfig(theorems=("2.4",), x_points=(0.25, 1.0))
    cfg = SuiteConfig(theorems=("2.1", "cor3.3"), x_points=(0.25, 1.0))
    assert cfg.x_points == (0.25, 1.0)


# ---------------------------------------------------------------- suite


def test_run_suite_record_count_and_passes():
    report = run_suite(SMALL)
    n = len(SMALL.theorems) * SMALL.n_draws * len(SMALL.x_points)
    assert len(report.records) == n
    assert report.all_passed
    assert report.n_passed == n
    for tid in SMALL.theorems:
        bucket = report.per_theorem[tid]
        assert bucket["records"] == SMALL.n_draws * len(SMALL.x_points)
        assert bucket["failed"] == 0
        assert bucket["worst_rel_residual"] <= SMALL.tol


def test_run_suite_keeps_its_golden_verdicts():
    # every identity, one draw: the verdicts exactly, both sides to 1e-12
    report = run_suite(SuiteConfig(n_draws=1, seed=123))
    got = [(r.draw.theorem_id, r.draw.seed_index, r.x, r.passed) for r in report.records]
    assert got == [row[:4] for row in SEED_123_ONE_DRAW]
    for r, (*_, lhs, rhs) in zip(report.records, SEED_123_ONE_DRAW):
        assert r.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
        assert r.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_golden_report_bytes_are_unchanged(capsys):
    # five draws of every identity: each value and estimate bit for bit
    assert main(["verify", "--theorems", "all", "--n", "5", "--seed", "123",
                 "--output", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SEED_123_FIVE_DRAWS_JSON_SHA256


def test_run_suite_counts_duplicate_ids_separately():
    cfg = SuiteConfig(theorems=("2.1", "2.1"), n_draws=2, seed=3, tol=1e-5)
    report = run_suite(cfg)
    assert len(report.records) == 12  # 2 listings x 2 draws x 3 points
    # ... but the arbitration note for the form appears only once
    assert len(report.notes) == len(set(report.notes)) == 1


def test_run_suite_deterministic_json():
    a = run_suite(SMALL).to_json()
    b = run_suite(SMALL).to_json()
    assert a == b


def test_report_wall_time_outside_canonical_form():
    report = run_suite(SMALL)
    assert report.wall_time_s > 0.0
    d = report.canonical_dict()
    assert "wall_time_s" not in json.dumps(d)
    report.wall_time_s = 123.0
    assert report.canonical_dict() == d


def test_report_empty_records_all_passed_vacuously():
    report = Report(config=SMALL)
    assert report.all_passed
    assert report.n_passed == 0


def test_suite_id_derives_from_config():
    a = run_suite(SMALL)
    assert a.suite_id.startswith("verify-")
    b = run_suite(SuiteConfig(theorems=("2.1", "2.4", "cor3.3"), n_draws=2, seed=4, tol=1e-5))
    assert a.suite_id != b.suite_id


def test_margin_widening_keeps_suite_green():
    for margin in (0.05, 0.2):
        cfg = SuiteConfig(theorems=("2.1", "cor2.6"), n_draws=2, seed=11,
                          tol=1e-5, margin=margin)
        report = run_suite(cfg)
        assert report.all_passed, render_text(report)


def test_suite_certifies_a_transform_whose_parts_outweigh_its_value():
    # theorem 3.4 at x = 0.5 (eta-beta = 1.0000233): the two lower-half
    # parts contribute -1,522 and +1,534 to a value of about 10.4, so their
    # estimates, weighted by their coefficients, outweigh tol at the value's
    # size; the one heap bisects their pieces until the sum meets tol
    assert run_suite(SuiteConfig(theorems=("3.4",), n_draws=1, seed=588723812)).all_passed


@pytest.mark.xfail(
    reason="ROADMAP item 2: eta-beta = 1.26e-7 gives connection coefficients of "
    "-/+2.27e6, and each part's estimate already sits on the stop test's rounding "
    "floor, so the transform stays over tol (1.21e-7 against 1e-7)",
)
def test_suite_certifies_a_transform_next_to_integer_eta_minus_beta():
    assert run_suite(SuiteConfig(theorems=("2.1",), n_draws=1, seed=511149287)).all_passed


def test_transform_on_its_rounding_floor_is_integrated_once(monkeypatch):
    # the same draw: at x = 0.5 both lower-half parts sit on the stop test's
    # rounding floor, which no tighter tol moves, so each transform is one
    # integrator call, 3 for the draw's three x, and the record at x = 0.5
    # fails on an estimate no bisection can shrink
    from fracbessel import operators

    calls = []

    def counted(*args, integrate=operators.integrate_jacobi):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(operators, "integrate_jacobi", counted)
    report = run_suite(SuiteConfig(theorems=("2.1",), n_draws=1, seed=511149287))
    assert len(calls) == 3
    assert [(r.x, r.lhs, r.lhs_error_estimate, r.evaluations, r.passed) for r in report.records] == [
        (0.5, 0.004708467597155241, 1.2103705944478942e-07, 93, False),
        (1.0, 0.01593077584802698, 6.426398913116075e-08, 93, True),
        (2.0, 0.03685106856527742, 4.0593445264489186e-08, 93, True),
    ]


# ---------------------------------------------------------------- rendering


def _setup_failed_report() -> Report:
    # left-sided validity violated: every record carries NaN values
    p = TheoremParams(alpha=0.5, beta=1.5, eta=0.2, lam=0.4, v=0.3, c=1.0, k=1.0)
    draw = ParameterDraw(params=p, theorem_id="2.1", seed_index=0)
    records = check_identity(draw, (1.0,), tol=1e-5)
    return Report(config=SMALL, records=records)


@pytest.mark.parametrize("build", [lambda: run_suite(SMALL), _setup_failed_report],
                         ids=["all-pass", "setup-failed"])
def test_json_round_trip_is_byte_identical(build):
    report = build()
    text = report.to_json()
    rehydrated = report_from_json(text)
    assert rehydrated.to_json() == text
    assert render_csv(rehydrated) == render_csv(report)
    assert rehydrated.suite_id == report.suite_id
    assert rehydrated.all_passed == report.all_passed


def test_csv_rendering_row_count_and_fields():
    report = run_suite(SMALL)
    lines = render_csv(report).splitlines()
    assert len(lines) == len(report.records) + 1
    header = lines[0].split(",")
    for field in ("theorem_id", "x", "lhs", "rhs", "rel_residual", "passed"):
        assert field in header


def test_text_rendering_mentions_suite_and_counts():
    report = run_suite(SMALL)
    text = render_text(report)
    assert report.suite_id in text
    assert f"passed={report.n_passed}" in text
    for tid in SMALL.theorems:
        assert tid in text


def test_text_rendering_details_failures():
    text = render_text(_setup_failed_report())
    assert "failing records" in text
    assert "setup failed" in text


def test_theorem_registry_is_complete():
    assert len(THEOREM_IDS) == 12
    assert set(THEOREM_IDS) == {
        "2.1", "2.4", "3.1", "3.4",
        "cor2.2", "cor2.3", "cor2.5", "cor2.6",
        "cor3.2", "cor3.3", "cor3.5", "cor3.6",
    }
