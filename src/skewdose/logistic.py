"""The four-parameter logistic family and its exact analytic structure.

    f(x) = l1 + 1 / ((l2 - l1)^(-1) + exp(m x + p)),   m != 0,  l2 > l1

For ``m < 0`` the curve increases from l1 to l2; for ``m > 0`` the limits
swap.  The unique inflection point sits at

    theta = -(log(l2 - l1) + p) / m,

where the ordinate is the midrange ``(l1 + l2)/2`` and the slope is
``-m (l2 - l1)/4``.  Those identities invert: given the lower asymptote,
the value at 0 and the inflection data, the remaining parameters are

    l2 = 2 f(theta) - l1
    m  = -2 f'(theta) / (f(theta) - l1)
    p  = log( 1/(f(0) - l1) - 1/(2 (f(theta) - l1)) )

and the lower asymptote itself is a root of

    log( 2 (f(theta) - f(0)) / (f(0) - l1) + 1 )
        - 2 theta f'(theta) / (f(theta) - l1) = 0,

which is what the no-known-asymptote fitting regime solves numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_finite
from .quadrature import integrate

# exp argument beyond which the curve saturates to the asymptote
_EXP_MAX = 709.0


@dataclass(frozen=True)
class LogisticParams:
    """Slope m, offset p and asymptotes l1 < l2."""

    m: float
    p: float
    l1: float
    l2: float

    def __post_init__(self):
        require_finite(self, "m", "p", "l1", "l2")
        if self.m == 0.0:
            raise DomainError("m must be nonzero")
        if not self.l2 > self.l1:
            raise DomainError(
                f"need l2 > l1, got l1={self.l1!r}, l2={self.l2!r}")

    @property
    def width(self) -> float:
        return self.l2 - self.l1


@dataclass(frozen=True)
class InflectionData:
    """Abscissa, ordinate and slope at the inflection point.

    Kept as a standalone value so the fitting pipeline can push
    approximate midpoint/secant data through the same exact identities.
    """

    theta: float
    f_theta: float
    f_prime_theta: float


def evaluate(params: LogisticParams, x: float) -> float:
    """Curve value at x; saturates to the asymptote on exp overflow."""
    t = params.m * x + params.p
    if t >= _EXP_MAX:
        return params.l1
    return params.l1 + 1.0 / (1.0 / params.width + math.exp(t))


def derivative(params: LogisticParams, x: float) -> float:
    """First derivative; its sign is -sign(m) everywhere.

    Evaluated with exp(-|t|) so that neither tail overflows.
    """
    t = params.m * x + params.p
    c = 1.0 / params.width
    if t > 0.0:
        e = math.exp(-t)
        denom = c * e + 1.0
        return -params.m * e / (denom * denom)
    e = math.exp(t)
    denom = c + e
    return -params.m * e / (denom * denom)


def inflection(params: LogisticParams) -> InflectionData:
    """Exact inflection point: midrange ordinate, slope -m (l2 - l1)/4."""
    theta = -(math.log(params.width) + params.p) / params.m
    return InflectionData(
        theta=theta,
        f_theta=0.5 * (params.l1 + params.l2),
        f_prime_theta=-params.m * params.width / 4.0,
    )


def limits(params: LogisticParams) -> tuple[float, float]:
    """(limit at -inf, limit at +inf): (l1, l2) for m < 0, swapped else."""
    if params.m < 0.0:
        return params.l1, params.l2
    return params.l2, params.l1


def params_from_inflection(l1: float, f0: float,
                           inf: InflectionData) -> LogisticParams:
    """Rebuild the full parameter set from l1, f(0) and inflection data.

    Exact for consistent data; raises DomainError when the geometry is
    impossible (for example f(0) >= 2 f(theta) - l1, which makes the log
    argument nonpositive).
    """
    if not f0 > l1:
        raise DomainError(f"need f(0) > l1, got f0={f0!r}, l1={l1!r}")
    half_range = inf.f_theta - l1
    if not half_range > 0.0:
        raise DomainError("inflection ordinate must exceed l1")
    l2 = 2.0 * inf.f_theta - l1
    m = -2.0 * inf.f_prime_theta / half_range
    log_arg = 1.0 / (f0 - l1) - 1.0 / (2.0 * half_range)
    if not log_arg > 0.0:
        raise DomainError(
            f"inconsistent geometry: log argument {log_arg!r} is not positive")
    return LogisticParams(m=m, p=math.log(log_arg), l1=l1, l2=l2)


def l1_residual(l1_candidate: float, f0: float, inf: InflectionData) -> float:
    """Residual of the lower-asymptote equation at a candidate l1.

    Zero at the true l1 for exact logistic data.
    """
    if not f0 > l1_candidate:
        raise DomainError(
            f"need f(0) > l1 candidate, got f0={f0!r}, l1={l1_candidate!r}")
    log_arg = 2.0 * (inf.f_theta - f0) / (f0 - l1_candidate) + 1.0
    if not log_arg > 0.0:
        raise DomainError(
            f"invalid log argument {log_arg!r} at l1={l1_candidate!r}")
    return math.log(log_arg) \
        - 2.0 * inf.theta * inf.f_prime_theta / (inf.f_theta - l1_candidate)


def ode_residual(params: LogisticParams, x: float) -> float:
    """Defect of the curve in its own integral equation.

    The logistic solves
    ``y(x) = f(0) - m * integral_0^x (y - l1)(1 - (y - l1)/(l2 - l1)) du``;
    the integral is evaluated by adaptive Simpson quadrature to absolute
    tolerance 1e-8, so the residual is bounded by that for true parameters.
    """
    f0 = evaluate(params, 0.0)
    width = params.width

    def integrand(u: float) -> float:
        shifted = evaluate(params, u) - params.l1
        return shifted * (1.0 - shifted / width)

    rhs = f0 - params.m * integrate(integrand, 0.0, x, tol=1e-8)
    return abs(evaluate(params, x) - rhs)
