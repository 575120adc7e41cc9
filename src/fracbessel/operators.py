"""Generalized (Saigo) fractional integral operators and their special cases.

Left-sided transform of f at x > 0:

    x^(-alpha-beta)/Gamma(alpha) * int_0^x (x-t)^(alpha-1)
        * 2F1(alpha+beta, -eta; alpha; 1 - t/x) * f(t) dt

Right-sided transform:

    1/Gamma(alpha) * int_x^inf (t-x)^(alpha-1) * t^(-alpha-beta)
        * 2F1(alpha+beta, -eta; alpha; 1 - x/t) * f(t) dt

Substituting t = x*u (left) and t = x/u (right) maps both onto (0, 1) with
a (1-u)^(alpha-1) endpoint weight at u=1 and an algebraic weight at u=0
coming from the integrand's declared power (plus, on the right, the
operator's own t-power).  The kernel's 2F1 contributes an additional
u^(eta-beta) branch at u=0; on the u < 1/2 half it is split off exactly
via the hypergeometric connection formula (or, at integer eta-beta, its
logarithmic variant) so every quadrature sees a pure Jacobi weight times
an analytic factor, at worst carrying a lone log(u).

Special cases: beta = -alpha collapses the kernel to 1 (classical
Riemann-Liouville); beta = 0 collapses it to (t/x)^eta (Erdelyi-Kober,
with overall prefactor x^(-alpha-eta)).

A transform is a loop over its kernel's parts: part 0 is the upper half
u in [1/2, 1], where the kernel is its direct 2F1 series, and the parts
after it are the lower half's branches.  Each part is one integral, and
only the rule differs between them (a (1-u)^(alpha-1) weight on the upper
half, a u-power weight on a lower-half branch, times log(u) on a log
branch).  The combined value is the coefficient-weighted sum of the parts
times the prefactor x^(x_power-beta)/Gamma(alpha).

Whether a transform converges is decided by its parts, in one place (the
loop of _transform_core that builds them), before any part is integrated:
the upper half lies on [1/2, 1], and each lower-half part must leave a
u-power above -1 at u = 0.  kernel_split omits a branch whose coefficient
is exactly 0, so at beta = 0, where Gamma(c-a) = Gamma(0), only the u^eta
branch counts.  A monomial image states its window the same way, through
its own gamma arguments (_monomial_image); the Riemann-Liouville and
Erdelyi-Kober images are the Saigo image at their family's beta.

Whether a transform meets its tolerance is decided in one place too
(_combine), on the combined estimate.  Each part is integrated first to
tol/4 of its own size, which certifies nearly every transform.  Where the
prefactor, or cancellation between parts, makes the parts outweigh the
value, the parts whose weighted estimates exceed an equal share of tol are
integrated again to that share: a part's pieces do not depend on its tol,
so that second pass replays the first's pieces, whose integrand values
the memos below mostly still hold, and bisects further.  A part whose
integrator gives up still contributes its value and estimate; only the
transform raises AccuracyError.

Each factor of a transform is computed once, at the narrowest scope it
depends on, and reused bit for bit:

* per draw (the operator orders, the integrand's power and the node set,
  not x): a kernel's parts (_split, keyed by the six exact kernel
  parameters, SaigoParams.kernel, at most _SPLITS kernels); the
  prefactor's log Gamma(alpha) (_log_gamma_abs, at most _SPLITS orders: a
  log_gamma call is about 3% of a warm transform); a part's series
  at a call's nodes (_kernel_at, keyed by those parameters, the part and
  the nodes' bytes); the weight power a part's rule leaves to its
  integrand, u^exp0 on the upper half and (1-u)^(alpha-1) on the lower
  half, at a call's nodes (_draw_factor).  These are bounded, typed LRU
  caches; _kernel_at and _draw_factor hold at most _NODE_VALUES entries
  each, their arrays read-only;
* per transform (one x): the integrand's smooth part at each node set, so
  the lower-half branches of a kernel, log branch included, which integrate
  over the same nodes, evaluate it once between them;
* per piece: the nodes, which quadrature maps once per piece geometry.

Both sides of a draw share the nodes of each half, so a transform finds the
factors that earlier transforms of its draw computed, at any x and on either
side, except on a piece none of them reached (a bisected piece).  A hit
returns the array a miss computed, multiplied in the same order (kernel,
smooth part, weight power), so results are bit-identical whether the memos
are warm or cold; an exception is never cached.  A miss calls kernel_split,
hyp2f1_kernel and log_gamma, and a transform its integrators, through this
module's globals, so a wrapper placed there sees every such call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import AccuracyError, DomainError, require_finite, require_positive_finite
from .gammafns import gamma_ratio, log_gamma
from .hyp2f1 import KernelTerm, hyp2f1_kernel, kernel_split
from .integrands import Integrand
from .quadrature import QuadratureResult, integrate_jacobi, integrate_log_jacobi


class Family(str, enum.Enum):
    SAIGO = "saigo"
    RIEMANN_LIOUVILLE = "riemann_liouville"
    ERDELYI_KOBER = "erdelyi_kober"


@dataclass(frozen=True)
class SaigoParams:
    """Operator orders (alpha > 0, beta, eta); family pins beta where required."""

    alpha: float
    beta: Optional[float] = None
    eta: float = 0.0
    family: Family = Family.SAIGO

    def __post_init__(self):
        if not (self.alpha > 0):
            raise DomainError(f"SaigoParams: alpha must be positive, got {self.alpha!r}")
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        if family is Family.RIEMANN_LIOUVILLE:
            forced = -self.alpha
        elif family is Family.ERDELYI_KOBER:
            forced = 0.0
        else:
            forced = None
        if forced is not None:
            if self.beta is not None and abs(self.beta - forced) > 1e-12:
                raise DomainError(
                    f"SaigoParams: family {family.value} forces beta={forced!r}, "
                    f"got {self.beta!r}"
                )
            object.__setattr__(self, "beta", forced)
        elif self.beta is None:
            raise DomainError("SaigoParams: the general family requires an explicit beta")
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "eta", float(self.eta))
        require_finite("SaigoParams", self.alpha, self.beta, self.eta)

    @property
    def kernel(self) -> tuple[float, float, float, float, float, float]:
        """(a, b, c, c-a-b, c-a, c-b) of the kernel 2F1(a, b; c; .), with
        a = alpha+beta, b = -eta, c = alpha.  The differences are formed from
        the primitive orders (eta-beta, -beta, alpha+eta), so c-a-b and c-a
        are exact, where recomputing them from the rounded sum a would put
        ~1 ulp of noise next to a gamma pole."""
        a = self.alpha + self.beta
        return (a, -self.eta, self.alpha, self.eta - self.beta, -self.beta, self.alpha + self.eta)


# rounding allowance per combined piece: a few ulps of coefficient error
# (gamma-ratio construction) plus summation rounding.  Each piece's estimate
# already bounds the rounding of its own weighted sum; this is the other
# source, the coefficients and the sum of the parts.
_COMBINE_EPS = 4.0 * float(np.finfo(float).eps)


def _combine(parts, pref: float, tol: float) -> QuadratureResult:
    """pref * sum(coef * part) for parts of (coef, integrator, args):
    the one place that decides whether a transform meets tol, absolute or
    relative (module docstring).

    The first pass integrates every part at tol/4 of its own size.  If the
    sum misses tol, a second pass integrates again each part whose
    |pref * coef| * estimate exceeds an equal share of what tol leaves
    beside the rounding allowance, to that share; its result, evaluations
    included, replaces the first's, whose pieces it replays.  A part that
    raises AccuracyError still contributes its value, its (honest) estimate
    and its evaluations, and is not run again.

    The estimate is the parts', plus the rounding allowance of the
    coefficient combination: near-degenerate kernels (c-a-b within ~1e-5 of
    an integer) carry branch coefficients of order 1/|c-a-b - m| whose own
    rounding costs eps * sum|coef * part|, which no part's estimate sees.
    """
    results = [None] * len(parts)
    todo = enumerate([tol / 4] * len(parts))  # (part, its tol) to integrate
    spent = []  # parts that gave up: at any smaller tol they give up the same way
    for second_pass in (False, True):
        for i, part_tol in todo:
            _, integrate, args = parts[i]
            try:
                results[i] = integrate(*args, part_tol)
            except AccuracyError as exc:
                results[i] = QuadratureResult(exc.value, exc.error_estimate, exc.evaluations)
                spent.append(i)
        total = claimed = rounding = 0.0
        evals = 0
        for (coef, _, _), r in zip(parts, results):
            term = coef * r.value
            total += term
            claimed += abs(coef) * r.error_estimate
            rounding += abs(term)
            evals += r.evaluations
        value = pref * total
        allowance = abs(pref) * _COMBINE_EPS * rounding
        err = abs(pref) * claimed + allowance
        budget = tol * max(1.0, abs(value))
        # a value that is not finite ends here; a NaN estimate passes no
        # part's share test below
        if second_pass or err <= budget or not math.isfinite(value):
            break
        # no part takes a share when the rounding leaves no room (share <= 0)
        share = (budget - allowance) / len(parts)
        todo = [
            (i, share / (abs(pref * coef) * max(1.0, abs(r.value))))
            for i, ((coef, _, _), r) in enumerate(zip(parts, results))
            if abs(pref * coef) * r.error_estimate > share > 0.0 and i not in spent
        ]
    if not (math.isfinite(value) and err <= budget):
        raise AccuracyError(
            f"transform error estimate {err!r} exceeds tol {tol!r}"
            if math.isfinite(value)
            else f"transform value {value!r} is not finite",
            value=value,
            error_estimate=err,
            evaluations=evals,
        )
    return QuadratureResult(value, err, evals)


# Bounds of the per-draw memos (module docstring).  A draw transformed at
# several x on both sides keeps one split and 3 or so kernel node arrays live
# (one per part, shared by both sides), and 3 or so weight powers (u^exp0 per
# side, the lower half's (1-u)^(alpha-1)): on 1,000 benchmark
# monomial transforms the node-value hit share is 0.83 from 16 arrays up to
# 512 and the split hit share 0.90 from 1 split up.  The bounds leave room
# for about a dozen interleaved draws, at most ~0.1 MB each.  The caches are
# typed, so an int order never shares an entry with a float.
_SPLITS = 16
_NODE_VALUES = 64


@lru_cache(maxsize=_SPLITS, typed=True)
def _split(a, b, c, gamma, c_minus_a, c_minus_b) -> tuple:
    """A kernel's parts, shared by every x and side: first the upper half's
    direct 2F1(a, b; c; 1-u), as an analytic term of coefficient 1, then
    kernel_split's lower-half branches."""
    upper = KernelTerm(1.0, 0.0, False, lambda u: hyp2f1_kernel(a, b, c, 1.0 - u))
    return (upper, *kernel_split(a, b, c, gamma, c_minus_a, c_minus_b))


@lru_cache(maxsize=_NODE_VALUES, typed=True)
def _kernel_at(a, b, c, gamma, c_minus_a, c_minus_b, part: int, nodes: bytes) -> np.ndarray:
    """The series of _split's part at the float64 nodes u packed in nodes,
    read-only."""
    v = _split(a, b, c, gamma, c_minus_a, c_minus_b)[part].series(np.frombuffer(nodes))
    v.flags.writeable = False
    return v


@lru_cache(maxsize=_SPLITS, typed=True)
def _log_gamma_abs(alpha: float) -> float:
    """log|Gamma(alpha)| of a draw's prefactor, shared by every x and side."""
    return log_gamma(alpha).log_abs


@lru_cache(maxsize=_NODE_VALUES, typed=True)
def _draw_factor(e, reflect: bool, nodes: bytes) -> np.ndarray:
    """The weight power u^e, or (1-u)^e when reflect, at the float64 nodes u
    packed in nodes, read-only: shared by every x and side of a draw."""
    u = np.frombuffer(nodes)
    v = np.power(1.0 - u if reflect else u, e)
    v.flags.writeable = False
    return v


def _transform_core(p: SaigoParams, exp0: float, x_power: float, smooth, x: float, tol: float):
    """Shared left/right transform: quadrature over u in (0,1), then prefactor.

    Computes x^(x_power-beta)/Gamma(alpha) * int_0^1 (1-u)^(alpha-1) u^exp0
    K(1-u) smooth(u) du, one integral per part of the kernel (_split): the
    upper half u in [1/2, 1] under the (1-u)^(alpha-1) weight, then each
    lower-half branch under its u-power weight, times log(u) for a branch
    carrying one.  smooth must be analytic on [0, 1].
    """
    al = p.alpha
    kernel = p.kernel
    # smooth at each node set this transform reaches: the lower-half
    # branches of a connection kernel share theirs
    smooth_at = {}
    parts = []
    for i, part in enumerate(_split(*kernel)):
        e0 = exp0 + part.exponent
        # only the lower half's parts reach u = 0, where the integral may
        # diverge; all are checked before any is integrated
        if i and not (e0 > -1.0):
            raise DomainError(
                f"transform does not converge: kernel part {i} has u-power {e0!r} <= -1 at u = 0"
            )
        # the weight power the rule leaves to g: u^exp0 on the upper half,
        # (1-u)^(alpha-1) on the lower half
        power = (al - 1.0, True) if i else (exp0, False)

        def g(u, i=i, power=power):
            nodes = u.tobytes()
            k = _kernel_at(*kernel, i, nodes)
            v = smooth_at.get(nodes)
            if v is None:
                v = smooth_at[nodes] = smooth(u)
            return k * v * _draw_factor(*power, nodes)

        if not i:
            integrate, args = integrate_jacobi, (g, 0.5, 1.0, 0.0, al - 1.0)
        elif part.log_factor:
            integrate, args = integrate_log_jacobi, (g, 0.5, e0)
        else:
            integrate, args = integrate_jacobi, (g, 0.0, 0.5, e0, 0.0)
        parts.append((part.coef, integrate, args))
    # the prefactor too, so that one past the float range costs no quadrature
    try:
        pref = math.exp((x_power - p.beta) * math.log(x) - _log_gamma_abs(al))
    except OverflowError:
        raise OverflowError(
            f"transform prefactor x^{x_power - p.beta!r}/Gamma({al!r}) at x={x!r} "
            "leaves the float range"
        ) from None
    return _combine(parts, pref, tol)


def saigo_left(f: Integrand, p: SaigoParams, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Left-sided generalized fractional integral of f at x."""
    require_positive_finite("saigo_left", "x", x)
    require_positive_finite("saigo_left", "tol", tol)
    p0 = f.exponent_at_zero
    if p0 is None:
        raise DomainError("saigo_left: integrand must declare its t->0 power exponent")
    return _transform_core(p, p0, p0, lambda u: f.reduced_at_zero(x * u), x, tol)


def saigo_right(f: Integrand, p: SaigoParams, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Right-sided generalized fractional integral of f at x."""
    require_positive_finite("saigo_right", "x", x)
    require_positive_finite("saigo_right", "tol", tol)
    qi = f.exponent_at_infinity
    if qi is None:
        raise DomainError("saigo_right: integrand must declare its t->inf power exponent")
    # beta - 1 - qi is the u-power at 0 after t = x/u
    return _transform_core(p, p.beta - 1.0 - qi, qi, lambda u: f.reduced_at_infinity(x / u), x, tol)


def rl_left(f: Integrand, alpha: float, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Classical left Riemann-Liouville fractional integral (kernel = 1)."""
    return saigo_left(f, SaigoParams(alpha, family=Family.RIEMANN_LIOUVILLE), x, tol)


def rl_right(f: Integrand, alpha: float, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Classical right Riemann-Liouville (Weyl) fractional integral."""
    return saigo_right(f, SaigoParams(alpha, family=Family.RIEMANN_LIOUVILLE), x, tol)


def ek_left(f: Integrand, alpha: float, eta: float, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Left Erdelyi-Kober transform: x^(-alpha-eta)/Gamma(alpha) *
    int_0^x (x-t)^(alpha-1) t^eta f(t) dt."""
    return saigo_left(f, SaigoParams(alpha, eta=eta, family=Family.ERDELYI_KOBER), x, tol)


def ek_right(f: Integrand, alpha: float, eta: float, x: float, tol: float = 1e-9) -> QuadratureResult:
    """Right Erdelyi-Kober transform."""
    return saigo_right(f, SaigoParams(alpha, eta=eta, family=Family.ERDELYI_KOBER), x, tol)


# ---------------------------------------------------------------------------
# Closed-form monomial images
# ---------------------------------------------------------------------------


def _monomial_image(numerators, denominators, exponent: float) -> tuple[float, float]:
    """(prod Gamma(numerators) / prod Gamma(denominators), exponent) of a
    monomial image, after dropping each numerator/denominator pair that is
    exactly equal.  The transform of t^(lam-1) converges where every
    remaining numerator argument is positive: DomainError elsewhere."""
    denominators = list(denominators)
    kept = []
    for a in numerators:
        if a in denominators:
            denominators.remove(a)
        elif a > 0:
            kept.append(a)
        else:
            raise DomainError(f"monomial image: numerator gamma argument {a!r} must be positive")
    return gamma_ratio(kept, denominators).value, exponent


def saigo_left_monomial(p: SaigoParams, lam: float) -> tuple[float, float]:
    """(coefficient, exponent) with left-transform of t^(lam-1) equal to
    coefficient * x^exponent: Gamma(lam) Gamma(lam+eta-beta) /
    (Gamma(lam-beta) Gamma(lam+alpha+eta)) * x^(lam-beta-1)."""
    return _monomial_image(
        [lam, lam + p.eta - p.beta], [lam - p.beta, lam + p.alpha + p.eta], lam - p.beta - 1.0
    )


def saigo_right_monomial(p: SaigoParams, lam: float) -> tuple[float, float]:
    """(coefficient, exponent) for the right transform of t^(lam-1):
    Gamma(eta-lam+1) Gamma(beta-lam+1) / (Gamma(1-lam) Gamma(alpha+beta+eta-lam+1))
    * x^(lam-beta-1)."""
    return _monomial_image(
        [p.eta - lam + 1.0, p.beta - lam + 1.0],
        [1.0 - lam, p.alpha + p.beta + p.eta - lam + 1.0],
        lam - p.beta - 1.0,
    )


def ek_left_monomial(alpha: float, eta: float, lam: float) -> tuple[float, float]:
    """Left Erdelyi-Kober image of t^(lam-1), the Saigo image at beta = 0:
    Gamma(lam+eta)/Gamma(lam+alpha+eta) * x^(lam-1)."""
    return saigo_left_monomial(SaigoParams(alpha, eta=eta, family=Family.ERDELYI_KOBER), lam)


def ek_right_monomial(alpha: float, eta: float, lam: float) -> tuple[float, float]:
    """Right Erdelyi-Kober image of t^(lam-1), the Saigo image at beta = 0."""
    return saigo_right_monomial(SaigoParams(alpha, eta=eta, family=Family.ERDELYI_KOBER), lam)


def rl_left_monomial(alpha: float, lam: float) -> tuple[float, float]:
    """Left Riemann-Liouville image of t^(lam-1), the Saigo image at
    beta = -alpha: Gamma(lam)/Gamma(lam+alpha) * x^(lam+alpha-1)."""
    return saigo_left_monomial(SaigoParams(alpha, family=Family.RIEMANN_LIOUVILLE), lam)


def rl_right_monomial(alpha: float, lam: float) -> tuple[float, float]:
    """Right Riemann-Liouville image of t^(lam-1), the Saigo image at
    beta = -alpha."""
    return saigo_right_monomial(SaigoParams(alpha, family=Family.RIEMANN_LIOUVILLE), lam)
