"""Closed-form images of the k-Bessel function under the fractional operators.

Each builder assembles a ClosedForm: a signed log-domain prefactor, a power
of the evaluation point, a series spec (Fox-Wright or, after gamma
duplication, generalized hypergeometric), and the rule z = scale * x^power
for the series argument.  Left-sided forms use z = -c x^2 / (4k); the
right-sided ones z = -c / (4k x^2).

Identifiers follow the verification suite: 2.1 / 2.4 are the left/right
transforms of t^(lam/k-1) W(t) and t^(lam/k-1) W(1/t); 3.1 / 3.4 their
duplication-reduced hypergeometric twins; cor2.x / cor3.x the
Riemann-Liouville and Erdelyi-Kober specializations, where one gamma pair
cancels between numerator and denominator.

A corollary is its parent theorem at the family's beta (SaigoParams).  Term
n of W's series is a power of index s + 2n, s = L for 2.1 and s = M for
2.4, so a form takes its gamma arguments from the image of a power
(operators._power_image), which drops each pair whose difference, formed
from the orders, is exactly 0.  The form is built where every upper
coefficient left is positive, which is where its transform converges: L and
L+eta-beta for 2.1, M+beta and M+eta for 2.4.  _kbessel_image does both,
once for every form, and the hypergeometric twins inherit it.  At
beta = -alpha the eta-bearing pair cancels (difference -(alpha+beta)),
leaving L > 0 (left) and M > alpha (right); at beta = 0 the bare (L, 2) or
(M, 2) pair cancels (difference beta), leaving the Erdelyi-Kober windows
L > -eta and M > -eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, require_finite, require_positive_finite
from .gammafns import gamma_ratio
from .operators import Family, SaigoParams, _power_image
from .series import (
    HypergeomSpec,
    KBesselParams,
    SeriesValue,
    WrightSpec,
    eval_pfq,
    eval_wright,
)


@dataclass(frozen=True)
class TheoremParams:
    """Operator orders (alpha, beta, eta), power lam, k-Bessel (v, c, k);
    the orders and (v, c, k) are checked by the types that own their rules."""

    alpha: float
    beta: float
    eta: float
    lam: float
    v: float
    c: float
    k: float

    def __post_init__(self):
        SaigoParams(self.alpha, self.beta, self.eta)
        KBesselParams(self.v, self.c, self.k)
        require_finite("TheoremParams", self.lam)

    @property
    def big_l(self) -> float:
        """L = (lam + v)/k, the left-sided index."""
        return (self.lam + self.v) / self.k

    @property
    def big_m(self) -> float:
        """M = 1 - lam/k + v/k, the right-sided index."""
        return 1.0 - self.lam / self.k + self.v / self.k

@dataclass(frozen=True)
class ClosedForm:
    """value(x) = sign * exp(prefactor_log) * x^power_of_x * series(scale * x^argument_power)."""

    prefactor_log: float
    prefactor_sign: int
    power_of_x: float
    series: Union[WrightSpec, HypergeomSpec]
    argument_scale: float
    argument_power: float

    def argument(self, x: float) -> float:
        return self.argument_scale * x**self.argument_power


def evaluate_closed_form(cf: ClosedForm, x: float, tol: float = 1e-12) -> SeriesValue:
    """Evaluate a ClosedForm at x > 0, propagating the series bookkeeping."""
    require_positive_finite("evaluate_closed_form", "x", x)
    z = cf.argument(x)
    if isinstance(cf.series, WrightSpec):
        sv = eval_wright(cf.series, z, tol)
    else:
        sv = eval_pfq(cf.series, z, tol)
    scale = cf.prefactor_sign * math.exp(cf.prefactor_log + cf.power_of_x * math.log(x))
    return sv.scaled(scale)


def _kbessel_image(p: TheoremParams, s: float, right: bool, power, argument_power) -> ClosedForm:
    """The Fox-Wright image 2.1 and 2.4 share: term n of W's series is a
    power of index s + 2n, so the image of a power at s
    (operators._power_image, its equal pairs dropped) gives the upper and
    lower pairs at step 2, and the k-Bessel pair (v/k + 1, 1) closes the
    lower ones; prefactor (2k)^(-v/k), argument -c/(4k) * x^argument_power.
    The image holds where the transform converges, which is where every
    upper coefficient is positive: DomainError elsewhere."""
    vk = p.v / p.k
    numerators, denominators, _ = _power_image(p, s, right)
    series = WrightSpec(
        upper=tuple((a, 2.0) for a in numerators),
        lower=tuple((b, 2.0) for b in denominators) + ((vk + 1.0, 1.0),),
    )
    if not all(a > 0 for a in numerators):
        raise DomainError(
            f"k-Bessel image: upper pairs {series.upper!r} need positive coefficients"
        )
    scale = -p.c / (4.0 * p.k)
    return ClosedForm(-vk * math.log(2.0 * p.k), 1, power, series, scale, argument_power)


def theorem21_spec(p: TheoremParams) -> ClosedForm:
    """Left transform of t^(lam/k-1) W(t) as a 2-Psi-3 Fox-Wright form."""
    return _kbessel_image(p, p.big_l, False, p.big_l - p.beta - 1.0, 2.0)


def theorem24_spec(p: TheoremParams) -> ClosedForm:
    """Right transform of t^(lam/k-1) W(1/t) as a 2-Psi-3 Fox-Wright form."""
    return _kbessel_image(p, p.big_m, True, p.lam / p.k - p.v / p.k - p.beta - 1.0, -2.0)


# corollary variant -> the family whose beta it takes
_COROLLARIES = {"rl_left": Family.RIEMANN_LIOUVILLE, "rl_right": Family.RIEMANN_LIOUVILLE,
                "ek_left": Family.ERDELYI_KOBER, "ek_right": Family.ERDELYI_KOBER}


def corollary_wright_spec(variant: str, p: TheoremParams) -> ClosedForm:
    """Fox-Wright corollaries: the parent theorem (2.1 left, 2.4 right) at
    the family's beta, -alpha (rl_*) or 0 (ek_*), where a gamma pair cancels
    (1-Psi-2 forms)."""
    if variant not in _COROLLARIES:
        raise DomainError(
            f"unknown corollary variant {variant!r}; expected one of "
            f"{sorted(_COROLLARIES)}"
        )
    beta = SaigoParams(p.alpha, family=_COROLLARIES[variant]).beta
    q = TheoremParams(p.alpha, beta, p.eta, p.lam, p.v, p.c, p.k)
    return theorem21_spec(q) if variant.endswith("left") else theorem24_spec(q)


def duplication_reduce(w: WrightSpec) -> tuple[HypergeomSpec, float]:
    """Rewrite a Wright spec with steps in {1, 2} as (pFq spec, argument scale).

    Step-2 pairs split via gamma duplication Gamma(a+2n) =
    Gamma(a) 4^n (a/2)_n ((a+1)/2)_n into two half-shifted pFq parameters;
    step-1 pairs map to themselves.  The 4^n factors cancel when upper and
    lower step-2 counts match; any mismatch scales the series argument by
    4^(upper count - lower count).  The spec does not carry the normalization
    prod Gamma(a_i)/prod Gamma(b_j) left in front (see _reduce_closed_form).
    """
    upper: list[float] = []
    lower: list[float] = []
    n_up2 = n_low2 = 0
    for target, pairs, is_upper in ((upper, w.upper, True), (lower, w.lower, False)):
        for coeff, step in pairs:
            if abs(step - 2.0) <= 1e-12:
                target.extend((coeff / 2.0, (coeff + 1.0) / 2.0))
                if is_upper:
                    n_up2 += 1
                else:
                    n_low2 += 1
            elif abs(step - 1.0) <= 1e-12:
                target.append(coeff)
            else:
                raise DomainError(
                    f"duplication_reduce: step {step!r} is not 1 or 2; cannot reduce"
                )
    arg_scale = 4.0 ** (n_up2 - n_low2)
    return HypergeomSpec(tuple(upper), tuple(lower)), arg_scale


def _reduce_closed_form(cf: ClosedForm) -> ClosedForm:
    """Duplication-reduce a Wright ClosedForm into its pFq twin, adding the
    log of prod Gamma(upper coefficients) / prod Gamma(lower coefficients) to
    the prefactor.  A lower coefficient on the gamma pole lattice puts a
    lower pFq parameter on it, which HypergeomSpec refuses; the upper ones
    are positive (_kbessel_image), and log_gamma refuses one within
    POLE_TOL of 0."""
    w = cf.series
    assert isinstance(w, WrightSpec)
    spec, arg_scale = duplication_reduce(w)
    log_r, sign = gamma_ratio([a for a, _ in w.upper], [b for b, _ in w.lower])
    return ClosedForm(
        prefactor_log=cf.prefactor_log + log_r,
        prefactor_sign=cf.prefactor_sign * sign,
        power_of_x=cf.power_of_x,
        series=spec,
        argument_scale=cf.argument_scale * arg_scale,
        argument_power=cf.argument_power,
    )


def theorem31_spec(p: TheoremParams) -> ClosedForm:
    """Hypergeometric (4F5) twin of the left-sided Wright form."""
    return _reduce_closed_form(theorem21_spec(p))


def theorem34_spec(p: TheoremParams) -> ClosedForm:
    """Hypergeometric (4F5) twin of the right-sided Wright form."""
    return _reduce_closed_form(theorem24_spec(p))


def corollary_pfq_spec(variant: str, p: TheoremParams) -> ClosedForm:
    """Hypergeometric (2F3) twins of the Fox-Wright corollaries."""
    return _reduce_closed_form(corollary_wright_spec(variant, p))
