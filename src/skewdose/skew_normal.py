"""Skew-normal distribution and its moment parameterization.

The family is parameterized by location ``xi``, scale ``omega > 0`` and
shape ``alpha``; ``alpha = 0`` recovers the normal law.  Density:

    f(x) = exp(-(x - xi)^2 / (2 omega^2)) / (omega sqrt(2 pi))
           * [1 + erf(alpha (x - xi) / (omega sqrt(2)))]

With ``delta = alpha / sqrt(1 + alpha^2)`` the first three moments are

    mean     mu    = xi + omega delta sqrt(2/pi)
    variance sigma^2 = omega^2 (1 - 2 delta^2 / pi)
    skewness gamma = ((4 - pi)/2) (delta sqrt(2/pi))^3
                     / (1 - 2 delta^2/pi)^(3/2)

and the map inverts in closed form, which is how both the plug-in sample
estimators and the per-dose simulation parameters are produced.

The distribution function is closed-form too (Azzalini's identity):

    F(x) = Phi(z) - 2 T(z, alpha),    z = (x - xi) / omega

where Phi is the standard normal cdf and T is Owen's T function
(Owen 1956; Patefield & Tandy 2000, J. Stat. Softw. 5(5)), evaluated by
a fixed Gauss-Legendre rule once its shape is reduced to |a| <= 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateSample, DomainError, InfeasibleSkewness, \
    require_finite

_SQRT_2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Supremum of |skewness| over the whole family (attained as alpha -> inf).
GAMMA_MAX = ((4.0 - math.pi) / 2.0) * _SQRT_2_OVER_PI ** 3 \
    / (1.0 - 2.0 / math.pi) ** 1.5

#: Skewness magnitudes at or above this are clamped when clamping is on.
#: Strictly inside the feasible bound, so the clamped value always inverts.
CLAMP_LIMIT = 0.995

# nodes of the Owen's T rule; 20 give T to ~1e-16 absolute for 0 <= a <= 1
_OWENS_T_NODES = 20


@dataclass(frozen=True)
class SkewNormalParams:
    """Location / scale / shape triple of the skew-normal family."""

    xi: float
    omega: float
    alpha: float

    def __post_init__(self):
        require_finite(self, "xi", "omega", "alpha")
        if self.omega <= 0.0:
            raise DomainError(f"omega must be > 0, got {self.omega!r}")

    @property
    def delta(self) -> float:
        """Shape reparameterization alpha / sqrt(1 + alpha^2), in (-1, 1)."""
        return self.alpha / math.hypot(1.0, self.alpha)


@dataclass(frozen=True)
class MomentTriple:
    """Mean, standard deviation and Pearson skewness.

    Any finite skewness is representable (sample skewness routinely
    exceeds the family bound); feasibility for the skew-normal family,
    ``abs(gamma) < GAMMA_MAX``, is only enforced when converting to
    distribution parameters.
    """

    mu: float
    sigma: float
    gamma: float

    def __post_init__(self):
        require_finite(self, "mu", "sigma", "gamma")
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be > 0, got {self.sigma!r}")

    @property
    def feasible(self) -> bool:
        return abs(self.gamma) < GAMMA_MAX


def pdf(params: SkewNormalParams, x: float) -> float:
    """Density at x.  Nonnegative; reduces to the normal for alpha = 0.

    The bracket 1 + erf(t) is evaluated as erfc(-t) so that strong tail
    suppression yields a tiny positive number instead of rounding to zero.
    """
    z = (x - params.xi) / params.omega
    bracket = math.erfc(-params.alpha * z / _SQRT_2)
    return math.exp(-0.5 * z * z) / (params.omega * _SQRT_2PI) * bracket


def _normal_sf(h: float) -> float:
    """Standard normal upper tail 1 - Phi(h), accurate for large h."""
    return 0.5 * math.erfc(h / _SQRT_2)


@functools.cache
def _unit_rule() -> tuple[tuple[float, float], ...]:
    """Gauss-Legendre (node, weight) pairs mapped onto [0, 1].

    Built on first use: importing numpy.polynomial costs milliseconds that
    every command-line start-up would otherwise pay.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_OWENS_T_NODES)
    return tuple(zip((0.5 * (nodes + 1.0)).tolist(), (0.5 * weights).tolist()))


def _owens_t_unit(h: float, a: float) -> float:
    """T(h, a) for 0 <= a <= 1: the defining integral over [0, a]."""
    total = 0.0
    for u, w in _unit_rule():
        s = 1.0 + (a * u) ** 2
        total += w * math.exp(-0.5 * h * h * s) / s
    return a * total / (2.0 * math.pi)


def owens_t(h: float, a: float) -> float:
    """Owen's T function.

        T(h, a) = (1/2pi) int_0^a exp(-h^2 (1 + x^2)/2) / (1 + x^2) dx

    T is even in h and odd in a.  For a > 1 and h >= 0 the integral is
    reduced to one with shape 1/a < 1,

        T(h, a) = Q(h)/2 + Q(ah)/2 - Q(h) Q(ah) - T(ah, 1/a),

    with Q = 1 - Phi (the usual form written with Phi, rearranged so that
    nothing cancels when both tails are small).
    """
    sign = math.copysign(1.0, a)
    h, a = abs(h), abs(a)
    if a <= 1.0:
        return sign * _owens_t_unit(h, a)
    q_h, q_ah = _normal_sf(h), _normal_sf(a * h)
    return sign * (0.5 * (q_h + q_ah) - q_h * q_ah
                   - _owens_t_unit(a * h, 1.0 / a))


def cdf(params: SkewNormalParams, x: float) -> float:
    """Distribution function, in closed form: Phi(z) - 2 T(z, alpha).

    Agrees with an independent implementation to ~1e-14 absolute; clamped
    into [0, 1].  ``x = -inf`` gives 0 and ``x = inf`` gives 1; NaN raises
    :class:`~skewdose.errors.DomainError`.
    """
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    z = (x - params.xi) / params.omega
    mass = _normal_sf(-z) - 2.0 * owens_t(z, params.alpha)
    return min(1.0, max(0.0, mass))


def moments_of_params(params: SkewNormalParams) -> MomentTriple:
    """Closed-form (mean, sd, skewness) of the given parameters."""
    delta = params.delta
    mu_z = delta * _SQRT_2_OVER_PI
    var_z = 1.0 - 2.0 * delta * delta / math.pi
    gamma = (4.0 - math.pi) / 2.0 * mu_z ** 3 / var_z ** 1.5
    return MomentTriple(
        mu=params.xi + params.omega * mu_z,
        sigma=params.omega * math.sqrt(var_z),
        gamma=gamma,
    )


def clamp_skewness(gamma: float) -> tuple[float, bool]:
    """Clamp a skewness into the feasible range.

    Returns ``(possibly_clamped_value, was_clamped)``.  Values with
    ``abs(gamma) >= CLAMP_LIMIT`` map to ``+-CLAMP_LIMIT``.
    """
    if abs(gamma) >= CLAMP_LIMIT:
        return math.copysign(CLAMP_LIMIT, gamma), True
    return gamma, False


def params_of_moments(moments: MomentTriple, clamp: bool = True) -> SkewNormalParams:
    """Invert (mean, sd, skewness) to (location, scale, shape).

    With ``clamp=True`` (the default) skewness magnitudes >= CLAMP_LIMIT
    are pulled back to the boundary so the inversion is total; use
    :func:`clamp_skewness` to learn whether that happened.  With
    ``clamp=False`` an infeasible skewness raises
    :class:`~skewdose.errors.InfeasibleSkewness`.
    """
    gamma = moments.gamma
    if clamp:
        gamma, _ = clamp_skewness(gamma)
    elif abs(gamma) >= GAMMA_MAX:
        raise InfeasibleSkewness(
            f"|gamma| = {abs(gamma):.6g} is not attainable "
            f"(bound {GAMMA_MAX:.6f})")

    g = abs(gamma)
    abs_delta = (g ** (1.0 / 3.0) * math.sqrt(math.pi / 2.0)
                 / math.sqrt(g ** (2.0 / 3.0)
                             + ((4.0 - math.pi) / 2.0) ** (2.0 / 3.0)))
    delta = math.copysign(abs_delta, gamma)
    alpha = delta / math.sqrt(1.0 - delta * delta)
    omega = moments.sigma / math.sqrt(1.0 - 2.0 * delta * delta / math.pi)
    xi = moments.mu - omega * delta * _SQRT_2_OVER_PI
    return SkewNormalParams(xi=xi, omega=omega, alpha=alpha)


def estimate_moments(sample_values: Sequence[float]) -> MomentTriple:
    """Plug-in moment estimates with 1/n normalization throughout.

    Mean, standard deviation (population form, no Bessel correction) and
    skewness as the average cubed standardized deviation.
    """
    import numpy as np  # here, not at the top: curve-only paths never load it

    arr = np.asarray(sample_values, dtype=float)
    n = arr.size
    if n < 2:
        raise DegenerateSample(f"need at least 2 observations, got {n}")
    # huge observations overflow to inf/nan here; MomentTriple rejects the
    # result, so numpy's warnings would only add noise on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(arr.mean())
        centered = arr - mean
        var = float((centered * centered).mean())
        if var <= 0.0:
            raise DegenerateSample("all observations are equal")
        sd = math.sqrt(var)
        z = centered / sd
        # plain products keep (-a)^3 == -(a^3) exactly, so symmetric samples
        # report skewness 0 and hence shape 0 (the cube root would amplify
        # one-ulp noise into a visible shape estimate)
        skew = float((z * z * z).mean())
    return MomentTriple(mu=mean, sigma=sd, gamma=skew)


def estimate_params(sample_values: Sequence[float],
                    clamp: bool = True) -> SkewNormalParams:
    """Plug-in (location, scale, shape) estimates: moments, then inversion."""
    return params_of_moments(estimate_moments(sample_values), clamp=clamp)


def sample(params: SkewNormalParams, n: int, seed: int) -> "numpy.ndarray":
    """Draw n variates, reproducibly for a fixed seed.

    Uses the two-normal representation
    ``X = xi + omega (delta |Z0| + sqrt(1 - delta^2) Z1)``
    with independent standard normals Z0, Z1.
    """
    import numpy as np

    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    z0 = rng.standard_normal(n)
    z1 = rng.standard_normal(n)
    delta = params.delta
    mix = delta * np.abs(z0) + math.sqrt(1.0 - delta * delta) * z1
    return params.xi + params.omega * mix
