"""The package's public names, pinned: adding or removing one must edit this
list, so no public name leaves silently."""

import fracbessel

PUBLIC = [
    "AccuracyError", "ClosedForm", "ConvergenceError", "DomainError", "Family",
    "HypergeomSpec", "Integrand", "JacobiPart", "KBesselParams", "KernelTerm", "ParameterDraw",
    "QuadratureResult", "Report", "SaigoParams", "SeriesValue", "SuiteConfig",
    "THEOREM_IDS", "TheoremParams", "VerificationRecord", "WrightSpec", "beta_fn",
    "check_identity", "corollary_pfq_spec", "corollary_wright_spec", "duplication_reduce",
    "eval_k_bessel", "eval_pfq", "eval_wright", "evaluate_closed_form", "gauss_2f1_at_1",
    "hyp2f1_kernel", "integrate_jacobi", "integrate_log_jacobi", "k_gamma",
    "kbessel_integrand", "kernel_split", "log_gamma", "monomial", "pochhammer",
    "render_csv", "render_text", "report_from_json", "run_suite", "saigo_left",
    "saigo_left_monomial", "saigo_right", "saigo_right_monomial", "sample_params",
    "theorem21_spec", "theorem24_spec", "theorem31_spec", "theorem34_spec",
]


def test_public_names_are_pinned():
    assert sorted(fracbessel.__all__) == PUBLIC
    assert len(set(fracbessel.__all__)) == len(fracbessel.__all__)
    for name in fracbessel.__all__:
        getattr(fracbessel, name)
