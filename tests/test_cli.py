"""Command-line interface: subcommands, exit codes, config files, outputs."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import fracbessel
from fracbessel import Report, SuiteConfig, cli, harness
from fracbessel.cli import main
from fracbessel.errors import ConvergenceError, DomainError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--output", "json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------- eval


def test_eval_kbessel_at_zero(capsys):
    d = run_json(capsys, "eval", "kbessel", "--z", "0")
    assert d["value"] == 1.0
    assert d["converged"] is True


def test_eval_kbessel_classical_point(capsys):
    d = run_json(capsys, "eval", "kbessel", "--v", "0", "--c", "1", "--k", "1", "--z", "1")
    assert d["value"] == pytest.approx(0.76519768655796655145, rel=1e-13)


def test_eval_pfq_log_value(capsys):
    d = run_json(capsys, "eval", "pfq", "--upper", "1,1", "--lower", "2", "--z", "0.5")
    assert d["value"] == pytest.approx(2.0 * math.log(2.0), rel=1e-13)


def test_eval_pfq_unit_argument_summable(capsys):
    d = run_json(capsys, "eval", "pfq", "--upper", "1,1", "--lower", "3", "--z", "1")
    assert d["value"] == pytest.approx(2.0, rel=1e-13)


def test_eval_wright_confluent_match(capsys):
    d = run_json(capsys, "eval", "wright", "--upper", "2:1", "--lower", "3:1", "--z", "0.7")
    assert d["value"] == pytest.approx(0.80790650563032049696, rel=1e-13)


def test_eval_gamma_k_classical(capsys):
    d = run_json(capsys, "eval", "gamma_k", "--z", "4.3", "--k", "1")
    assert d["value"] == pytest.approx(math.gamma(4.3), rel=1e-12)


def test_eval_wright_requires_parameter_lists(capsys):
    code, _, err = run(capsys, "eval", "wright", "--z", "0.5")
    assert code == 2
    assert "upper" in err
    code, _, err = run(capsys, "eval", "pfq", "--lower", "2", "--z", "0.5")
    assert code == 2 and "eval pfq needs --upper" in err
    for upper, fragment in (("1", "coeff:step syntax"), ("a:1", "bad Fox-Wright pair")):
        code, _, err = run(capsys, "eval", "wright", "--upper", upper, "--lower", "2:1", "--z", "0.5")
        assert code == 2 and fragment in err


def test_eval_rejects_out_of_range_tol(capsys):
    for tol, fragment in (("0.5", "tol must lie in"), ("abc", "not a number")):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "kbessel", "--z", "1", "--tol", tol])
        assert exc.value.code == 2
        assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind_args",
    [
        ("kbessel", "--z", "nan"),
        ("wright", "--upper", "2:1", "--lower", "3:1", "--z", "inf"),
        ("pfq", "--upper", "1,1", "--lower", "2", "--z=-inf"),
    ],
    ids=["kbessel", "wright", "pfq"],
)
def test_eval_non_finite_argument_exits_2(capsys, kind_args):
    code, out, err = run(capsys, "eval", *kind_args)
    assert code == 2 and "finite" in err
    assert out == ""


def test_eval_unconverged_series_exits_3_with_strict_json(capsys):
    # |z| this close to the radius needs more terms than the cap allows
    code, out, _ = run(
        capsys, "eval", "pfq", "--upper", "1,1", "--lower", "2", "--z", "0.99999",
        "--output", "json",
    )
    assert code == 3
    d = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict JSON {name}"))
    assert d["converged"] is False
    assert d["trunc_estimate"] is None
    assert math.isfinite(d["value"])


def test_eval_text_and_csv_layouts(capsys):
    code, out, _ = run(capsys, "eval", "kbessel", "--z", "1", "--output", "text")
    assert code == 0
    assert "value" in out
    code, out, _ = run(capsys, "eval", "kbessel", "--z", "1", "--output", "csv")
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "command"


# ---------------------------------------------------------------- transform


def test_transform_monomial_left_matches_image(capsys):
    d = run_json(
        capsys, "transform", "--family", "saigo", "--side", "left",
        "--alpha", "0.6", "--beta", "0.3", "--eta", "0.9",
        "--x", "1.5", "--monomial", "1.7",
    )
    assert d["closed_form"] is not None
    assert d["rel_difference"] <= 1e-8
    assert d["value"] == pytest.approx(d["closed_form"], rel=1e-8)
    # at integer beta the transform converges for lam > beta - eta, below the
    # image's window lam > 0: a value, and a note in place of the image
    d = run_json(
        capsys, "transform", "--family", "saigo", "--side", "left",
        "--alpha", "0.7", "--beta", "1", "--eta", "1.5",
        "--x", "1", "--monomial", "-0.2",
    )
    assert d["closed_form"] is None and d["rel_difference"] is None
    assert d["note"].startswith("closed form not applicable: monomial image")
    # Gamma(lam)/Gamma(lam-1) = lam-1 continues the image across lam = 0
    assert d["value"] == pytest.approx(-1.2 * math.gamma(0.3), rel=1e-9)


def test_transform_monomial_right_matches_image(capsys):
    d = run_json(
        capsys, "transform", "--family", "saigo", "--side", "right",
        "--alpha", "0.7", "--beta", "0.4", "--eta", "1.1",
        "--x", "1", "--monomial", "-0.3",
    )
    assert d["rel_difference"] <= 1e-8


def test_transform_degenerate_orders_act_as_identity(capsys):
    # alpha=1, beta=eta=0: kernel and prefactor collapse, the operator
    # averages t^0 over (0, x) with unit weight -> exactly 1 at every x
    d = run_json(
        capsys, "transform", "--family", "saigo", "--side", "left",
        "--alpha", "1", "--beta", "0", "--eta", "0", "--x", "1.7", "--monomial", "1",
    )
    assert d["value"] == pytest.approx(1.0, rel=1e-12)


def test_transform_rl_right_inverse_square(capsys):
    d = run_json(
        capsys, "transform", "--family", "rl", "--side", "right",
        "--alpha", "0.5", "--x", "1", "--monomial", "-1",
    )
    # Gamma(0.5)/2 = sqrt(pi)/2
    assert d["value"] == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-9)
    assert d["rel_difference"] <= 1e-9


def test_transform_kbessel_left_matches_closed_form(capsys):
    d = run_json(
        capsys, "transform", "--family", "saigo", "--side", "left",
        "--alpha", "0.8", "--beta", "0.2", "--eta", "1.0",
        "--x", "1", "--kbessel", "0.5", "1", "1",
    )
    assert d["closed_form"] == pytest.approx(0.30568266542832017718, rel=1e-12)
    assert d["rel_difference"] <= 1e-7


def test_transform_kbessel_ek_closed_form_below_l_zero(capsys):
    # L = (lam+v)/k = -0.6: the Erdelyi-Kober transform converges for
    # L > -eta, and so does its corollary, once Gamma(L+2n) cancels
    d = run_json(
        capsys, "transform", "--family", "ek", "--side", "left",
        "--alpha", "0.3", "--eta", "1.1", "--x", "1.3", "--kbessel", "-0.8", "1.0", "0.5",
    )
    assert d["closed_form"] is not None and d["note"] == ""
    assert d["rel_difference"] <= 1e-9


def test_transform_kbessel_side_picks_the_integrand(capsys):
    # --side right transforms W(1/t), whose image the closed form gives;
    # there is no flag to choose it
    d = run_json(
        capsys, "transform", "--family", "saigo", "--side", "right",
        "--alpha", "0.8", "--beta", "0.2", "--eta", "1.0",
        "--x", "1", "--kbessel", "0.5", "1", "1",
    )
    assert d["rel_difference"] <= 1e-7
    with pytest.raises(SystemExit) as exc:
        run(
            capsys, "transform", "--family", "saigo", "--side", "right",
            "--alpha", "0.8", "--beta", "0.2", "--eta", "1.0",
            "--x", "1", "--kbessel", "0.5", "1", "1", "--reciprocal",
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --reciprocal" in capsys.readouterr().err


def test_transform_integrand_flags_are_exclusive(capsys):
    base = ["transform", "--family", "rl", "--side", "left", "--alpha", "0.5", "--x", "1"]
    code, _, err = run(capsys, *base)
    assert code == 2 and "monomial" in err
    code, _, err = run(capsys, *base, "--monomial", "1", "--kbessel", "0.5", "1", "1")
    assert code == 2


def test_transform_beta_flag_agreement_with_family(capsys):
    code, _, err = run(
        capsys, "transform", "--family", "rl", "--side", "left",
        "--alpha", "0.5", "--beta", "0.1", "--x", "1", "--monomial", "1",
    )
    assert code == 2 and "beta" in err
    code, _, err = run(
        capsys, "transform", "--family", "saigo", "--side", "left",
        "--alpha", "0.5", "--x", "1", "--monomial", "1",
    )
    assert code == 2 and "beta" in err
    # the beta the family forces may be given
    d = run_json(
        capsys, "transform", "--family", "rl", "--side", "left",
        "--alpha", "0.5", "--beta", "-0.5", "--x", "1", "--monomial", "1.5",
    )
    assert d["beta"] == -0.5 and d["rel_difference"] <= 1e-9


@pytest.mark.parametrize("beta,eta", [("nan", "1.0"), ("0.2", "inf")])
def test_transform_non_finite_order_exits_2(capsys, beta, eta):
    code, _, err = run(
        capsys, "transform", "--family", "saigo", "--side", "left",
        "--alpha", "0.8", "--beta", beta, "--eta", eta, "--x", "1", "--monomial", "1.4",
    )
    assert code == 2 and "finite" in err


@pytest.mark.parametrize(
    "argv, names",
    [
        (("eval", "gamma_k", "--z", "200", "--k", "1"), "k_gamma: Gamma_k(200.0) at k=1.0"),
        (("eval", "wright", "--upper", "1:1", "--lower", "1:1", "--z", "1000"),
         "eval_wright: term n=347 at z=1000.0"),
        (("transform", "--family", "rl", "--side", "left", "--alpha", "0.5",
          "--x", "1e300", "--monomial", "3"),
         "transform prefactor x^2.5/Gamma(0.5) at x=1e+300"),
        (("transform", "--family", "rl", "--side", "left", "--alpha", "1e200",
          "--x", "1", "--monomial", "1.5"), "_moments: the weight power 1e+200"),
        (("transform", "--family", "saigo", "--side", "left", "--alpha", "1",
          "--beta", "0.2", "--eta", "1.5", "--x", "1", "--monomial", "1020"),
         "_moments: the weight power 1020.3 leaves the float range"),
        (("transform", "--family", "saigo", "--side", "left", "--alpha", "1",
          "--beta", "0.5", "--eta", "3000", "--x", "1", "--monomial", "1.5"), "sum_series"),
        (("transform", "--family", "saigo", "--side", "left", "--alpha", "1",
          "--beta", "0.5", "--eta", "3000.5", "--x", "1", "--monomial", "1.5"),
         "kernel_split: a branch coefficient of 2F1(1.5, -3000.5; 1.0)"),
    ],
    ids=["gamma-k", "wright", "transform-x", "transform-alpha", "transform-moments",
         "transform-kernel", "transform-log-kernel"],
)
def test_result_out_of_float_range_exits_2(capsys, argv, names):
    # one line, which names what overflowed where the library knows it
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("fracbessel: ") and err.count("\n") == 1
    assert names in err


@pytest.mark.parametrize(
    "fault, x_points, notes",
    [
        # the k-Bessel integrand and the Fox-Wright terms leave the float
        # range; the 4F5 twin stops at its term cap
        (None, "10000", ("quadrature: OverflowError", "closed form: OverflowError: eval_wright",
                         "closed form: series not converged at cap")),
        (("saigo_left", ConvergenceError("stub")), "1", ("quadrature: ConvergenceError: stub",)),
        (("evaluate_closed_form", DomainError("stub")), "1", ("closed form: DomainError: stub",)),
    ],
    ids=["float-range", "quadrature-error", "closed-form-error"],
)
def test_verify_point_failure_fails_its_record(capsys, monkeypatch, fault, x_points, notes):
    # an exception at one x fails that record with a note; the suite still
    # reports, and exits 3
    if fault is not None:
        name, exc = fault

        def raises(*args, **kwargs):
            raise exc

        monkeypatch.setattr(harness, name, raises)
    code, out, err = run(
        capsys, "verify", "--theorems", "2.1,3.1,cor2.2", "--n", "1", "--seed", "1",
        "--x-points", x_points,
    )
    assert code == 3 and err == ""
    assert "records=3 passed=0 failed=3" in out
    assert all(note in out for note in notes)


def test_verify_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--seed", "-1", "--n", "1", "--theorems", "2.1")
    assert code == 2
    assert out == ""
    assert "seed must be a nonnegative integer" in err


def test_transform_uncertifiable_tolerance_exits_3(capsys):
    # a relative target of 1e-17 is below the rounding bound of every
    # quadrature piece: the transform cannot certify it and must say so
    code, _, err = run(
        capsys, "transform", "--family", "saigo", "--side", "left",
        "--alpha", "1.0", "--beta", "0.25", "--eta", "0.25",
        "--x", "0.5", "--monomial", "1.3", "--tol", "1e-17",
    )
    assert code == 3
    assert "accuracy" in err


# ---------------------------------------------------------------- verify


def test_verify_small_suite_green(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, err = run(
        capsys, "verify", "--theorems", "2.1,cor3.3", "--n", "1",
        "--seed", "0", "--output", "json", "--out", str(out_file),
    )
    assert code == 0, err
    data = json.loads(out_file.read_text())
    assert data["summary"]["all_passed"] is True
    assert data["summary"]["records"] == 2 * 1 * 3


def test_verify_runs_are_byte_identical(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(
            capsys, "verify", "--theorems", "2.4", "--n", "2", "--seed", "9",
            "--output", "json", "--out", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_unknown_theorem_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--theorems", "5.5")
    assert code == 2
    assert "unknown theorem id" in err


def test_verify_empty_theorem_list_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--theorems", ",")
    assert code == 2
    assert out == ""
    assert "theorems must be non-empty" in err


def test_verify_right_sided_small_points_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--theorems", "2.4", "--x-points", "0.2,1")
    assert code == 2
    assert ">= 0.5" in err
    code, _, err = run(capsys, "verify", "--theorems", "2.4", "--x-points", "1,a")
    assert code == 2
    assert "expected comma-separated numbers" in err


def test_verify_text_output_summarizes(capsys):
    code, out, _ = run(capsys, "verify", "--theorems", "2.1", "--n", "1")
    assert code == 0
    assert "suite verify-" in out
    assert "2.1" in out
    code, out, _ = run(capsys, "verify", "--theorems", "all", "--n", "1")
    assert code == 0
    assert "records=36 passed=36" in out
    assert all(f"\n{tid} " in out for tid in fracbessel.THEOREM_IDS)


def test_verify_failing_records_exit_3(capsys, monkeypatch):
    # exit-code plumbing for a red suite, without needing a broken identity:
    # substitute a canned report carrying one failed record
    real = cli.run_suite(SuiteConfig(theorems=("2.1",), n_draws=1))
    failing = Report(
        config=real.config,
        records=[dataclasses.replace(real.records[0], passed=False)],
    )
    monkeypatch.setattr(cli, "run_suite", lambda cfg: failing)
    code, out, _ = run(capsys, "verify", "--theorems", "2.1", "--n", "1")
    assert code == 3
    assert "failing records" in out


# ---------------------------------------------------------------- report


def test_report_round_trip_renders_identical_json(capsys, tmp_path):
    src = tmp_path / "suite.json"
    run(capsys, "verify", "--theorems", "2.1", "--n", "1",
        "--output", "json", "--out", str(src))
    code, out, _ = run(capsys, "report", str(src), "--output", "json")
    assert code == 0
    assert out == src.read_text()
    code, out, _ = run(capsys, "report", str(src), "--output", "text")
    assert code == 0
    assert "suite verify-" in out
    code, out, _ = run(capsys, "report", str(src), "--output", "csv")
    assert code == 0
    assert out == run(capsys, "verify", "--theorems", "2.1", "--n", "1", "--output", "csv")[1]
    assert out.startswith("theorem_id,seed_index,x,") and out.count("\n") == 1 + 3


def test_report_rebuilds_summary_from_config_and_records(capsys, tmp_path):
    # the suite id, per-theorem table and notes are derived, never read back:
    # edited copies of them in a saved report do not survive re-rendering
    src = tmp_path / "suite.json"
    run(capsys, "verify", "--theorems", "2.1,cor2.5", "--n", "1",
        "--output", "json", "--out", str(src))
    original = src.read_text()
    data = json.loads(original)
    data["suite_id"] = "verify-000000000000"
    data["per_theorem"]["2.1"]["passed"] = 0
    data["per_theorem"]["2.1"]["worst_rel_residual"] = 1.0
    del data["per_theorem"]["cor2.5"]
    data["notes"] = ["edited"]
    src.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", str(src), "--output", "json")
    assert code == 0
    assert out == original


def test_report_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "report", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_report_malformed_content_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2
    assert "malformed" in err
    bad.write_text('{"suite_id": "x"}')
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2


# ---------------------------------------------------------------- config file


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("# suite defaults\ntheorems = 2.1\nn = 1\nseed = 5\n")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code, _, _ = run(capsys, "verify", "--config", str(cfg),
                     "--output", "json", "--out", str(a))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--theorems", "2.1", "--n", "1", "--seed", "5",
                     "--output", "json", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_explicit_flag_wins(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("theorems = 2.1\nn = 1\nseed = 5\n")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "verify", "--config", str(cfg), "--seed", "7",
        "--output", "json", "--out", str(a))
    run(capsys, "verify", "--theorems", "2.1", "--n", "1", "--seed", "7",
        "--output", "json", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_config_file_value_is_the_flags_argument(capsys, tmp_path):
    # every key names a flag that takes a value; a former switch is
    # refused like any unknown flag
    cfg = tmp_path / "transform.cfg"
    cfg.write_text("eta = 1.0\n")
    d = run_json(
        capsys, "transform", "--family", "saigo", "--side", "right",
        "--alpha", "0.8", "--beta", "0.2",
        "--x", "1", "--kbessel", "0.5", "1", "1", "--config", str(cfg),
    )
    assert d["eta"] == 1.0 and d["rel_difference"] <= 1e-7
    cfg.write_text("reciprocal = true\n")
    with pytest.raises(SystemExit) as exc:
        run(
            capsys, "transform", "--family", "saigo", "--side", "right",
            "--alpha", "0.8", "--beta", "0.2", "--eta", "1.0",
            "--x", "1", "--kbessel", "0.5", "1", "1", "--config", str(cfg),
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --reciprocal true" in capsys.readouterr().err


def test_config_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--config", str(tmp_path / "none.cfg"))
    assert code == 2 and "cannot read config" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    code, _, err = run(capsys, "verify", "--config", str(bad))
    assert code == 2 and "key=value" in err
    bad.write_text("=1\n")
    code, _, err = run(capsys, "verify", "--config", str(bad))
    assert code == 2 and "bad.cfg:1: empty key" in err


# ---------------------------------------------------------------- report dir


def test_report_dir_env_resolves_bare_names(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.REPORT_DIR_ENV, str(tmp_path))
    code, _, _ = run(capsys, "verify", "--theorems", "2.1", "--n", "1",
                     "--output", "json", "--out", "suite.json")
    assert code == 0
    assert (tmp_path / "suite.json").exists()
    code, out, _ = run(capsys, "report", "suite.json", "--output", "json")
    assert code == 0
    assert out == (tmp_path / "suite.json").read_text()


def test_report_dir_env_leaves_paths_with_directories_alone(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.REPORT_DIR_ENV, str(tmp_path / "redirected"))
    explicit = tmp_path / "explicit" / "suite.json"
    explicit.parent.mkdir()
    code, _, _ = run(capsys, "verify", "--theorems", "2.1", "--n", "1",
                     "--output", "json", "--out", str(explicit))
    assert code == 0
    assert explicit.exists()
    assert not (tmp_path / "redirected").exists()


# ---------------------------------------------------------------- parser


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _project_scripts(text: str) -> dict:
    """The [project.scripts] table of a pyproject.toml: through tomllib where
    it exists (Python 3.11+), else read as its flat name = "value" lines."""
    try:
        import tomllib
    except ImportError:
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        pairs = (line.split("=", 1) for line in table.splitlines() if "=" in line)
        return {k.strip(): v.strip().strip('"') for k, v in pairs}
    return tomllib.loads(text)["project"]["scripts"]


def test_installed_entry_point_resolves():
    import importlib
    import pathlib
    from importlib.metadata import PackageNotFoundError, distribution

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = _project_scripts(pyproject.read_text())
    assert scripts.get("fracbessel") == "fracbessel.cli:main"
    module, _, attr = scripts["fracbessel"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    try:
        eps = distribution("fracbessel").entry_points
    except PackageNotFoundError:
        return  # not installed: the declaration above is all there is to check
    names = {ep.name: ep.value for ep in eps if ep.group == "console_scripts"}
    assert names.get("fracbessel") == "fracbessel.cli:main"


# ---------------------------------------------------------------- start-up


def test_library_and_cli_never_import_scipy(tmp_path):
    # scipy is a test oracle only; importing scipy.special more than
    # doubled the package's import time
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(fracbessel.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    child = (
        "import sys\n"
        "import fracbessel\n"
        "from fracbessel import cli\n"
        "code = cli.main(['verify', '--theorems', 'all', '--n', '1'])\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print('exit', code, 'scipy modules', loaded, file=sys.stderr)\n"
        "sys.exit(1 if loaded or code else 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        env=env, capture_output=True, text=True, cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
