"""Assembled dose-effect model: per-dose law, simulation, dose selection.

A model bundles three curves over dose: a logistic mean, a dispersion
curve (logistic or zero-offset Gaussian-type, depending on the shape of
the per-dose standard deviations) and a Gaussian-type skewness curve.
At any dose the three curve values convert to skew-normal parameters,
which is what makes per-dose simulation possible.

Skewness curves routinely leave the feasible range of the skew-normal
family on part of the dose axis; evaluation there clamps the skewness
and flags the report rather than failing, so plotting and simulation
stay total.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import skew_normal
from .errors import (DomainError, NoAdmissibleDose, NoDecreasingTail,
                     TooFewPoints, require_increasing)
from .fitting import GaussianTypeParams, _uniform_grid, gaussian_type_value
from .logistic import LogisticParams, evaluate as logistic_value
from .skew_normal import MomentTriple, SkewNormalParams

SigmaCurve = Union[LogisticParams, GaussianTypeParams]

_GRID_POINTS = 1024
_HEAD_TOL_REL = 0.05  # a head this flat (range / mean) counts as constant
# the empirical turning dose is a coarse estimate; the fitted curve may
# peak slightly later, so the decreasing check tolerates a peak within
# this leading fraction of the grid
_START_FRACTION = 0.05


@dataclass(frozen=True)
class DoseEffectModel:
    """Mean, dispersion and skewness curves plus the turning dose."""

    mu_curve: LogisticParams
    sigma_curve: SigmaCurve
    gamma_curve: GaussianTypeParams
    d0_hat: float

    def __post_init__(self):
        if isinstance(self.sigma_curve, GaussianTypeParams) \
                and self.sigma_curve.l != 0.0:
            raise DomainError(
                "a Gaussian-type dispersion curve must have offset 0 "
                "(dispersion vanishes at large doses)")
        if not math.isfinite(self.d0_hat) or self.d0_hat < 0.0:
            raise DomainError(f"d0_hat must be finite and >= 0, got {self.d0_hat!r}")


@dataclass(frozen=True)
class DoseReport:
    """Moments and distribution parameters at one dose."""

    dose: float
    mean: float
    sd: float
    skewness: float
    skew_params: SkewNormalParams
    clamped: bool


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the numerical dispersion-shape checks."""

    decreasing_ok: bool
    first_violation: Optional[float]
    vanishing_ok: bool
    sigma_at_horizon: float
    start_dose: float


@dataclass(frozen=True)
class OptimalDoseResult:
    """Selected dose with the evidence used to select it.

    ``sd_model_min`` / ``sd_model_max`` are the dispersion extrema of the
    model curve on the search grid.
    """

    dose: float
    mode: str
    mean: float
    sd: float
    skewness: float
    objective: Optional[float]
    sd_model_min: float
    sd_model_max: float


def classify_sigma_shape(doses: Sequence[float],
                         sd_hats: Sequence[float]) -> tuple[str, float]:
    """Decide which family fits the per-dose standard deviations.

    The turning dose is the last dose attaining the maximum; the values
    must decrease strictly after it.  A head that is constant up to 5%
    (its range relative to its mean) points to the logistic family, a
    strictly increasing head to the Gaussian-type family.

    Returns ``(family, d0_hat)`` with family ``"logistic"`` or
    ``"gaussian_type"``.  Fewer than 3 doses raise
    :class:`~skewdose.errors.TooFewPoints`; doses that are not strictly
    increasing raise :class:`~skewdose.errors.NonMonotoneAbscissae`.
    """
    if len(doses) != len(sd_hats):
        raise ValueError("doses and sd_hats must have equal length")
    n = len(doses)
    if n < 3:
        raise TooFewPoints(f"need at least 3 doses, got {n}")
    require_increasing(doses)

    peak_value = max(sd_hats)
    peak = max(i for i, s in enumerate(sd_hats) if s == peak_value)
    tail = sd_hats[peak:]
    if len(tail) < 2 or any(b >= a for a, b in zip(tail, tail[1:])):
        raise NoDecreasingTail(
            "per-dose standard deviations never decrease after their maximum")

    head = sd_hats[:peak]
    if len(head) <= 1:
        family = "logistic"
    else:
        head_mean = math.fsum(head) / len(head)
        if max(head) - min(head) <= _HEAD_TOL_REL * abs(head_mean):
            family = "logistic"
        elif all(b > a for a, b in zip(head, head[1:])):
            family = "gaussian_type"
        else:
            raise DomainError(
                "per-dose standard deviations are neither constant nor "
                "increasing before their maximum")
    return family, doses[peak]


def sigma_value(curve: SigmaCurve, d: float) -> float:
    """Evaluate whichever dispersion family the model carries."""
    if isinstance(curve, LogisticParams):
        return logistic_value(curve, d)
    return gaussian_type_value(curve, d)


def _sigma_column(curve: SigmaCurve, grid: Sequence[float]) -> list[float]:
    """sigma_value over a grid, with the family resolved once."""
    if isinstance(curve, LogisticParams):
        return [logistic_value(curve, d) for d in grid]
    return [gaussian_type_value(curve, d) for d in grid]


def moments_at(model: DoseEffectModel, d: float) -> MomentTriple:
    """Model mean, standard deviation and skewness at dose d."""
    if d < 0.0:
        raise DomainError(f"dose must be >= 0, got {d!r}")
    return MomentTriple(
        mu=logistic_value(model.mu_curve, d),
        sigma=sigma_value(model.sigma_curve, d),
        gamma=gaussian_type_value(model.gamma_curve, d),
    )


def params_at(model: DoseEffectModel, d: float) -> DoseReport:
    """Per-dose skew-normal parameters, clamping infeasible skewness."""
    moments = moments_at(model, d)
    _, clamped = skew_normal.clamp_skewness(moments.gamma)
    params = skew_normal.params_of_moments(moments, clamp=True)
    return DoseReport(dose=d, mean=moments.mu, sd=moments.sigma,
                      skewness=moments.gamma, skew_params=params,
                      clamped=clamped)


def _substream_seed(seed: int, dose: float) -> int:
    """Derive a per-dose stream key: seed XOR the dose's IEEE-754 bits."""
    bits = struct.unpack("<Q", struct.pack("<d", float(dose)))[0]
    return (int(seed) ^ bits) & 0xFFFFFFFFFFFFFFFF


def simulate(model: DoseEffectModel, d: float, n: int,
             seed: int) -> "numpy.ndarray":
    """Draw n effect values at dose d; deterministic in (d, n, seed).

    Distinct doses under one seed use independent substreams keyed by
    the dose's bit pattern.
    """
    report = params_at(model, d)
    return skew_normal.sample(report.skew_params, n,
                              seed=_substream_seed(seed, d))


def check_assumptions(model: DoseEffectModel, horizon: float,
                      eps: float) -> AssumptionReport:
    """Verify the dispersion-curve shape numerically.

    Two clauses on a 1024-point uniform grid over [d0_hat, horizon]: the
    curve must decrease strictly past its peak (the peak may sit within the
    leading 5% of the grid, since the empirical turning dose is coarse),
    and the value at the horizon must fall below eps.  The dispersion
    family is resolved once for the whole grid.  A NaN eps, which no value
    falls below, raises :class:`~skewdose.errors.DomainError`.
    """
    if math.isnan(eps):
        raise DomainError(f"eps must not be NaN, got {eps!r}")
    if not horizon > model.d0_hat:
        raise DomainError("horizon must exceed d0_hat")
    grid = _uniform_grid(model.d0_hat, horizon, _GRID_POINTS)
    values = _sigma_column(model.sigma_curve, grid)

    peak = max(range(_GRID_POINTS), key=lambda i: values[i])
    start = peak if peak <= _START_FRACTION * (_GRID_POINTS - 1) else 0

    decreasing_ok = True
    first_violation = None
    for i in range(start, _GRID_POINTS - 1):
        if values[i + 1] < values[i]:
            continue
        if values[i] == 0.0 and values[i + 1] == 0.0:
            continue  # underflowed to zero: the curve has fully vanished
        decreasing_ok = False
        first_violation = grid[i + 1]
        break

    sigma_horizon = values[-1]
    return AssumptionReport(
        decreasing_ok=decreasing_ok,
        first_violation=first_violation,
        vanishing_ok=sigma_horizon < eps,
        sigma_at_horizon=sigma_horizon,
        start_dose=grid[start],
    )


def _moment_columns(model: DoseEffectModel, grid: list[float]
                    ) -> tuple[list[float], list[float], list[float]]:
    """Mean, sd and skewness columns over an increasing grid.

    The same values and the same first error as calling
    :func:`moments_at` at each grid dose in turn, without building a
    :class:`MomentTriple` per dose.
    """
    if grid[0] < 0.0:
        raise DomainError(f"dose must be >= 0, got {grid[0]!r}")
    try:
        mu_curve, gamma_curve = model.mu_curve, model.gamma_curve
        mus = [logistic_value(mu_curve, d) for d in grid]
        sds = _sigma_column(model.sigma_curve, grid)
        gammas = [gaussian_type_value(gamma_curve, d) for d in grid]
    except ArithmeticError:  # math.exp overflows at some dose
        # an earlier dose may hold an invalid moment, which takes precedence
        for d in grid:
            moments_at(model, d)
        raise
    # a finite sum means every term is finite
    if not (math.isfinite(sum(mus)) and math.isfinite(sum(sds))
            and math.isfinite(sum(gammas)) and min(sds) > 0.0):
        for mu, sd, gamma in zip(mus, sds, gammas):
            MomentTriple(mu=mu, sigma=sd, gamma=gamma)
    return mus, sds, gammas


def _minmax_normalize(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def optimal_dose(model: DoseEffectModel, interval: tuple[float, float],
                 weights: Optional[tuple[float, float, float]] = None,
                 thresholds: Optional[tuple[float, float, float]] = None,
                 ) -> OptimalDoseResult:
    """Select a dose on the interval, by thresholds or by weights.

    The candidates are a 1024-point uniform grid over the interval.  The
    mean, sd and skewness columns are evaluated curve by curve; they and
    any error equal what :func:`moments_at` gives dose by dose.

    Threshold mode (``thresholds = (mean_min, sd_max, skew_min)``)
    returns the *smallest* grid dose with mean >= mean_min,
    sd <= sd_max and skewness >= skew_min -- long-term medication makes
    the smallest sufficient dose the clinical target -- or raises
    :class:`~skewdose.errors.NoAdmissibleDose`.

    Weighted mode (``weights = (w_mean, w_sd, w_skew)``) maximizes
    ``w_mean mu~ - w_sd sd~ + w_skew gamma~`` where each column is
    min-max normalized over the grid (so the answer is invariant under
    positive affine rescaling of any single curve).  Ties go to the
    smallest dose.

    Weights must be finite and thresholds must not be NaN (an infinite
    threshold leaves its moment unconstrained); otherwise
    :class:`~skewdose.errors.DomainError` is raised.
    """
    lo, hi = interval
    if not lo < hi:
        raise DomainError(f"need lo < hi, got ({lo!r}, {hi!r})")
    if (weights is None) == (thresholds is None):
        raise ValueError("give exactly one of weights / thresholds")
    if weights is not None and not all(map(math.isfinite, weights)):
        raise DomainError(f"weights must be finite, got {weights!r}")
    if thresholds is not None and any(map(math.isnan, thresholds)):
        raise DomainError(f"thresholds must not be NaN, got {thresholds!r}")

    grid = _uniform_grid(lo, hi, _GRID_POINTS)
    mus, sds, gammas = _moment_columns(model, grid)

    if thresholds is not None:
        mean_min, sd_max, skew_min = thresholds
        chosen = None
        for i, d in enumerate(grid):
            if mus[i] >= mean_min and sds[i] <= sd_max and gammas[i] >= skew_min:
                chosen = i
                break
        if chosen is None:
            raise NoAdmissibleDose(
                "no grid dose meets the admissibility thresholds")
        mode = "admissible"
        objective = None
    else:
        w_mean, w_sd, w_skew = weights
        mu_n = _minmax_normalize(mus)
        sd_n = _minmax_normalize(sds)
        ga_n = _minmax_normalize(gammas)
        scores = [w_mean * mu_n[i] - w_sd * sd_n[i] + w_skew * ga_n[i]
                  for i in range(_GRID_POINTS)]
        best = max(scores)
        chosen = scores.index(best)  # first occurrence: smallest dose
        mode = "scalarized"
        objective = best

    return OptimalDoseResult(
        dose=grid[chosen],
        mode=mode,
        mean=mus[chosen],
        sd=sds[chosen],
        skewness=gammas[chosen],
        objective=objective,
        sd_model_min=min(sds),
        sd_model_max=max(sds),
    )
