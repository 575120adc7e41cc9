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

A transform is one quadrature call over its kernel's parts: part 0 is the
upper half u in [1/2, 1], where the kernel is its direct 2F1 series, and the
parts after it are the lower half's branches.  Each part is one
quadrature.JacobiPart, and only the rule differs between them (a
(1-u)^(alpha-1) weight on the upper half, a u-power weight on a lower-half
branch, times log(u) on a log branch).  The combined value is the
coefficient-weighted sum of the parts times the prefactor
x^(x_power-beta)/Gamma(alpha); integrate_jacobi forms it, with one heap of
pieces for all parts, bisecting wherever the error of that sum is largest.

Whether a transform converges is decided by its parts, in one place (the
loop of _transform_core that builds them), before any part is integrated:
the upper half lies on [1/2, 1], and each lower-half part must leave a
u-power above -1 at u = 0.  kernel_split omits a branch whose coefficient
is exactly 0, so at beta = 0, where Gamma(c-a) = Gamma(0), only the u^eta
branch counts.  A monomial image states its window the same way, through
its own gamma arguments.  Those are written once, for both sides, as the
image of a power (_power_image), which drops each gamma pair whose
difference, formed from the orders, is exactly 0; the monomial images and
closed_forms' k-Bessel images derive from it.  The Riemann-Liouville and
Erdelyi-Kober images are the Saigo image at their family's beta.

Whether a transform meets its tolerance is decided in one place too, on
the combined estimate, after that one call: integrate_jacobi returns at its
rounding floor even above tol, and the transform refuses such a result with
AccuracyError.

Each factor of a transform is computed once, at the narrowest scope it
depends on, and reused bit for bit:

* per draw (the kernel, SaigoParams.kernel, not x): one record (_draw, a
  bounded, typed LRU cache of at most _DRAWS kernels) holds the kernel's
  parts, the prefactor's log|Gamma(alpha)|, and a bounded store (at most
  _ARRAYS read-only arrays) of the node arrays the draw's transforms
  compute, keyed by which array and the nodes' bytes: a part's series, and
  the weight power a part's rule leaves to its integrand, u^exp0 on the
  upper half and (1-u)^(alpha-1) on the lower half;
* per (draw, exp0), exp0 the integrand's u-power at u = 0: the start plan
  (the record's plans, at most _PLANS per draw, the oldest dropped first),
  each part's JacobiPart and start piece (quadrature._start_pieces): its
  nodes, the store's kernel and weight-power arrays there, its rule pair
  and scale, and the parts' checks, so every later transform of the draw
  and exp0, at any x and on either side, integrates its start pieces with
  no lookup;
* per transform (one x): the integrand's smooth part at each node set, as
  the call's g, which integrate_jacobi evaluates once per node set, so the
  lower-half branches of a kernel, log branch included, which integrate
  over the same nodes, evaluate it once between them;
* per piece: the nodes, which quadrature maps once per piece geometry.

Both sides of a draw share the nodes of each half, so a transform finds the
factors that earlier transforms of its draw computed, at any x and on either
side, except on a piece none of them reached (a bisected piece).  A hit
returns the array a miss computed, multiplied in the same order (smooth
part, kernel, weight power: the kernel times the smooth part, as IEEE
products commute exactly), so results are bit-identical whether the memos
are warm or cold; an exception is never cached.  A cold plan computes
every part's kernel, weight power and rule before any smooth part is
evaluated, so where a plan's factor and the smooth part both fail, the
plan's error is the one raised, though the smooth part's nodes come first
in the integration.  A miss calls kernel_split, hyp2f1_kernel and
log_gamma, and a transform its integrator, through this module's globals,
so a wrapper placed there sees every such call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import AccuracyError, DomainError, require_finite, require_positive_finite
from .gammafns import gamma_ratio, log_gamma, pochhammer
from .hyp2f1 import KernelTerm, hyp2f1_kernel, kernel_split
from .integrands import Integrand
# integrate_log_jacobi is not called here: the benchmark's tracing wraps it by
# this module's name until the trace collector and its removal land (ROADMAP
# items 3 and 7)
from .quadrature import (
    JacobiPart, QuadratureResult, _start_pieces, integrate_jacobi, integrate_log_jacobi,
)


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


# Bounds of the per-draw memo (module docstring).  A draw's record holds one
# array per part and node set (a part reaches one half's nodes unless a piece
# is bisected) and one per weight power (u^exp0 per side, the lower half's
# (1-u)^(alpha-1)): at seed 3 every record held 4 to 7 arrays, over 6,000
# monomial-sweep ops and 408 verify-suite ones, so _ARRAYS leaves room for a
# few bisected pieces.  On benchmark monomial transforms the kernel hit
# share is 0.90 from 1 kernel up; _DRAWS leaves room for about a dozen
# interleaved draws, each about 16 KB with a full store of 31-node arrays.
# A draw's transforms reach one exp0 per side and integrand: two on a
# monomial-sweep draw, one on each verify-suite draw (every one of the 60
# kernels of the golden verify run), so _PLANS leaves room for two
# integrands per side; a plan holds references to arrays that the store and
# the rule cache built, and a few small tuples of its own.
# The caches are typed, so an int order never shares an entry with a float;
# the plans are not, as an int exp0 builds the same plan as its float.
_DRAWS = 16
_ARRAYS = 16
_PLANS = 4


class _Draw(NamedTuple):
    """A draw's x-independent state, shared by every x and side."""

    parts: tuple
    log_gamma_abs: float
    at: Callable[[object, bytes], np.ndarray]
    plan: Callable[[float], tuple]
    plans: dict


@lru_cache(maxsize=_DRAWS, typed=True)
def _draw(a, b, c, gamma, c_minus_a, c_minus_b) -> _Draw:
    """The record of the draw with kernel 2F1(a, b; c; .) (SaigoParams.kernel).

    parts: the kernel's parts, first the upper half's direct 2F1(a, b; c;
    1-u), as an analytic term of coefficient 1, then kernel_split's
    lower-half branches.  log_gamma_abs: log|Gamma(alpha)| of the
    prefactor, alpha = c.  at(which, nodes): an array at the float64 nodes
    u packed in nodes, read-only: for an int which, that part's series; for
    which = (e, reflect), the weight power u^e, or (1-u)^e when reflect.
    plan(exp0): the JacobiParts of a transform whose integrand has the
    u-power exp0 at u = 0, g left None, and their start pieces, kernel and
    weight power included (quadrature._start_pieces), kept in plans by exp0.
    """
    upper = KernelTerm(1.0, 0.0, False, lambda u: hyp2f1_kernel(a, b, c, 1.0 - u))
    parts = (upper, *kernel_split(a, b, c, gamma, c_minus_a, c_minus_b))

    @lru_cache(maxsize=_ARRAYS, typed=True)
    def at(which, nodes: bytes) -> np.ndarray:
        u = np.frombuffer(nodes)
        if isinstance(which, int):
            v = parts[which].series(u)
        else:
            e, reflect = which
            v = np.power(1.0 - u if reflect else u, e)
        v.flags.writeable = False
        return v

    plans = {}

    def plan(exp0):
        hit = plans.get(exp0)
        if hit is not None:
            return hit
        jparts = []
        for i, part in enumerate(parts):
            # the weight power the rule leaves to the integrand: u^exp0 on
            # the upper half, (1-u)^(alpha-1) on the lower half
            power = (c - 1.0, True) if i else (exp0, False)

            # the kernel, then the weight power, multiplied in that order
            # into the smooth part: (smooth * kernel) * power, which equals
            # (kernel * smooth) * power bit for bit
            def fixed(u, i=i, power=power):
                nodes = u.tobytes()
                return at(i, nodes), at(power, nodes)

            e0 = exp0 + part.exponent
            lo, hi, exp_lo, exp_hi = (0.0, 0.5, e0, 0.0) if i else (0.5, 1.0, 0.0, c - 1.0)
            jparts.append(JacobiPart(None, lo, hi, exp_lo, exp_hi, part.log_factor, part.coef, fixed))
        hit = tuple(jparts), _start_pieces(jparts)
        if len(plans) == _PLANS:  # the oldest goes
            del plans[next(iter(plans))]
        plans[exp0] = hit
        return hit

    return _Draw(parts, log_gamma(c).log_abs, at, plan, plans)


def _transform_core(p: SaigoParams, exp0: float, x_power: float, smooth, x: float, tol: float):
    """Shared left/right transform: quadrature over u in (0,1), then prefactor.

    Computes x^(x_power-beta)/Gamma(alpha) * int_0^1 (1-u)^(alpha-1) u^exp0
    K(1-u) smooth(u) du, one JacobiPart per part of the draw's kernel, all
    in one integrate_jacobi call: the upper half u in [1/2, 1] under the
    (1-u)^(alpha-1) weight, then each lower-half branch under its u-power
    weight, times log(u) for a branch carrying one.  smooth must be analytic
    on [0, 1].  Raises AccuracyError when the call's estimate misses tol.
    """
    draw = _draw(*p.kernel)
    # only the lower half's parts reach u = 0, where the integral may
    # diverge; all are checked before any is integrated
    for i, part in enumerate(draw.parts[1:], 1):
        e0 = exp0 + part.exponent
        if not (e0 > -1.0):
            raise DomainError(
                f"transform does not converge: kernel part {i} has u-power {e0!r} <= -1 at u = 0"
            )
    # the prefactor too, so that one past the float range costs no quadrature;
    # exp returns inf or nan for an inf or nan power instead of raising
    try:
        pref = math.exp((x_power - p.beta) * math.log(x) - draw.log_gamma_abs)
    except OverflowError:
        pref = math.inf
    if not math.isfinite(pref):
        raise OverflowError(
            f"transform prefactor x^{x_power - p.beta!r}/Gamma({p.alpha!r}) at x={x!r} "
            "leaves the float range"
        )
    # the plan after the prefactor, whose parts integrate_jacobi checked after it
    parts, start = draw.plan(exp0)
    # smooth is every part's g, once per node set: the lower-half branches
    # of a connection kernel share theirs
    r = integrate_jacobi(parts, tol, pref, start, smooth)
    if not r.error_estimate <= tol * max(1.0, abs(r.value)):
        raise AccuracyError(
            f"transform error estimate {r.error_estimate!r} exceeds tol {tol!r}",
            value=r.value,
            error_estimate=r.error_estimate,
            evaluations=r.evaluations,
        )
    return r


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


# ---------------------------------------------------------------------------
# The image of a power, and the monomial images
# ---------------------------------------------------------------------------


def _power_image(p, s: float, right: bool) -> tuple[list, list, list]:
    """The gamma arguments of the Saigo image of a power at index s (Saigo,
    Math. Rep. Kyushu Univ. 11 (1978) 135), for the orders of p (a
    SaigoParams, or any object with alpha, beta and eta):

        left, of t^(s-1):  Gamma(s) Gamma(s+eta-beta) / (Gamma(s-beta) Gamma(s+alpha+eta))
                           * x^(s-beta-1)
        right, of t^(-s):  Gamma(s+beta) Gamma(s+eta) / (Gamma(s) Gamma(s+alpha+beta+eta))
                           * x^(-s-beta)

    Returns (numerators, denominators, differences), differences[i][j]
    being numerators[i] - denominators[j] as formed from the orders; on both
    sides the full matrix is [[beta, -(alpha+eta)], [eta, -(alpha+beta)]].
    Each pair whose difference is exactly 0 is dropped, though rounding may
    leave its two arguments apart: the first pair at beta = 0, the second
    at beta = -alpha, the second numerator and first denominator at eta = 0."""
    al, be, et = p.alpha, p.beta, p.eta
    if right:
        numerators, denominators = [s + be, s + et], [s, s + al + be + et]
    else:
        numerators, denominators = [s, s + et - be], [s - be, s + al + et]
    differences = [[be, -(al + et)], [et, -(al + be)]]
    kept, rest = [], [0, 1]
    for i, diff in enumerate(differences):
        j = next((j for j in rest if diff[j] == 0.0), None)
        if j is None:
            kept.append(i)
        else:
            rest.remove(j)
    return (
        [numerators[i] for i in kept],
        [denominators[j] for j in rest],
        [[differences[i][j] for j in rest] for i in kept],
    )


def _monomial_coefficient(p: SaigoParams, s: float, right: bool) -> float:
    """The coefficient of the image of a power at index s (_power_image).
    Each pair of a numerator a <= 0 and a denominator d whose difference,
    from the orders, is a positive integer n is replaced by its continued
    ratio (d)_n.  The transform converges where every remaining numerator
    argument is positive: DomainError elsewhere."""
    numerators, denominators, differences = _power_image(p, s, right)
    rest = dict(enumerate(denominators))
    kept, scale = [], 1.0
    for a, diff in zip(numerators, differences):
        if a > 0:
            kept.append(a)
            continue
        # the difference from the orders, exact where the arguments' own
        # difference may miss an integer by rounding
        j = next((j for j in rest if diff[j] >= 1 and diff[j] == round(diff[j])), None)
        if j is None:
            raise DomainError(f"monomial image: numerator gamma argument {a!r} must be positive")
        scale *= pochhammer(rest.pop(j), round(diff[j]))
    return scale * gamma_ratio(kept, list(rest.values())).value


def saigo_left_monomial(p: SaigoParams, lam: float) -> tuple[float, float]:
    """(coefficient, exponent) with left-transform of t^(lam-1) equal to
    coefficient * x^exponent: the image of a power at s = lam,
    Gamma(lam) Gamma(lam+eta-beta) / (Gamma(lam-beta) Gamma(lam+alpha+eta))
    * x^(lam-beta-1)."""
    return _monomial_coefficient(p, lam, False), lam - p.beta - 1.0


def saigo_right_monomial(p: SaigoParams, lam: float) -> tuple[float, float]:
    """(coefficient, exponent) for the right transform of t^(lam-1): the
    image of a power at s = 1-lam, Gamma(1-lam+beta) Gamma(1-lam+eta) /
    (Gamma(1-lam) Gamma(1-lam+alpha+beta+eta)) * x^(lam-beta-1)."""
    return _monomial_coefficient(p, 1.0 - lam, True), lam - p.beta - 1.0
