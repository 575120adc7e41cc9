"""Generalized fractional integral transforms of the k-Bessel function.

The package evaluates the two-sided generalized (hypergeometric-kernel)
fractional integrals and their Riemann-Liouville and Erdelyi-Kober
reductions by adaptive quadrature on nested Fejér rules with the endpoint
weights built in (from modified Chebyshev moments), evaluates the matching
closed-form Fox-Wright / generalized-hypergeometric images of power-weighted
k-Bessel integrands, and cross-certifies the two representations with a
deterministic randomized verification suite.
"""

from .closed_forms import (
    ClosedForm,
    TheoremParams,
    corollary_pfq_spec,
    corollary_wright_spec,
    duplication_reduce,
    evaluate_closed_form,
    theorem21_spec,
    theorem24_spec,
    theorem31_spec,
    theorem34_spec,
)
from .errors import AccuracyError, ConvergenceError, DomainError
from .gammafns import beta_fn, k_gamma, log_gamma, pochhammer
from .hyp2f1 import KernelTerm, hyp2f1_kernel, kernel_split
from .harness import (
    THEOREM_IDS,
    ParameterDraw,
    Report,
    SuiteConfig,
    VerificationRecord,
    check_identity,
    render_csv,
    render_text,
    report_from_json,
    run_suite,
    sample_params,
)
from .integrands import Integrand, kbessel_integrand, monomial
from .operators import (
    Family,
    SaigoParams,
    saigo_left,
    saigo_left_monomial,
    saigo_right,
    saigo_right_monomial,
)
from .quadrature import JacobiPart, QuadratureResult, integrate_jacobi, integrate_log_jacobi
from .series import (
    HypergeomSpec,
    KBesselParams,
    SeriesValue,
    WrightSpec,
    eval_k_bessel,
    eval_pfq,
    eval_wright,
    gauss_2f1_at_1,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ClosedForm",
    "ConvergenceError",
    "DomainError",
    "Family",
    "HypergeomSpec",
    "Integrand",
    "JacobiPart",
    "KBesselParams",
    "KernelTerm",
    "ParameterDraw",
    "QuadratureResult",
    "Report",
    "SaigoParams",
    "SeriesValue",
    "SuiteConfig",
    "THEOREM_IDS",
    "TheoremParams",
    "VerificationRecord",
    "WrightSpec",
    "beta_fn",
    "check_identity",
    "corollary_pfq_spec",
    "corollary_wright_spec",
    "duplication_reduce",
    "eval_k_bessel",
    "eval_pfq",
    "eval_wright",
    "evaluate_closed_form",
    "gauss_2f1_at_1",
    "hyp2f1_kernel",
    "integrate_jacobi",
    "integrate_log_jacobi",
    "k_gamma",
    "kernel_split",
    "kbessel_integrand",
    "log_gamma",
    "monomial",
    "pochhammer",
    "render_csv",
    "render_text",
    "report_from_json",
    "run_suite",
    "saigo_left",
    "saigo_left_monomial",
    "saigo_right",
    "saigo_right_monomial",
    "sample_params",
    "theorem21_spec",
    "theorem24_spec",
    "theorem31_spec",
    "theorem34_spec",
]
