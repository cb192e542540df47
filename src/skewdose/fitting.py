"""Parameter recovery for logistic and Gaussian-type curves.

Three knowledge regimes for the logistic asymptotes:

* both asymptotes known -- the transform
  ``Phi(y) = log(1/(y - l1) - 1/(l2 - l1))`` linearizes the curve exactly
  (``Phi(f(x)) = p - m x``), so (m, p) come from linear regression;
* lower asymptote known -- the steepest-secant midpoint approximates the
  inflection ordinate, giving ``l2 = 2 gamma_n - l1``, then the same
  transform applies;
* neither known -- the lower asymptote is the root of a scalar equation
  built from the steepest-secant data, and the remaining parameters
  follow from the exact inflection identities.

Dispersion and skewness curves ``v(d) = l + exp(-m d^2 + p d + q)`` are
fitted by quadratic least squares on ``log(v - l)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    DomainError,
    NoBracket,
    NoFeasibleOffset,
    NonFinite,
    NonMonotoneData,
    SingularDesign,
    TooFewPoints,
    require_finite,
    require_increasing,
)
from .logistic import (_EXP_MAX, InflectionData, LogisticParams, evaluate,
                       params_from_inflection)

_SCAN_POINTS = 512
_BISECT_WIDTH = 1e-12
_OFFSET_CANDIDATES = 256


def _uniform_grid(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced points from lo to hi, the last exactly hi.

    Non-finite endpoints raise :class:`~skewdose.errors.DomainError`.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(
            f"grid endpoints must be finite, got lo={lo!r}, hi={hi!r}")
    step = (hi - lo) / (n - 1)
    if math.isinf(step):
        # hi - lo overflows: step in halves, each of which stays finite
        half = hi / (2 * (n - 1)) - lo / (2 * (n - 1))
        grid = [lo + i * half + i * half for i in range(n)]
    else:
        grid = [lo + i * step for i in range(n)]
    grid[-1] = hi
    return grid


@dataclass(frozen=True)
class InflectionApprox:
    """Steepest-secant estimate of the inflection point.

    ``index`` is the 0-based left endpoint of the selected interval;
    ``theta_n`` / ``gamma_n`` are the interval midpoint abscissa and
    ordinate, ``delta_n`` the exact secant slope.
    """

    index: int
    theta_n: float
    gamma_n: float
    delta_n: float


@dataclass(frozen=True)
class GaussianTypeParams:
    """Bump curve v(d) = l + exp(-m d^2 + p d + q) with m > 0."""

    l: float
    m: float
    p: float
    q: float

    def __post_init__(self):
        require_finite(self, "l", "m", "p", "q")
        if not self.m > 0.0:
            raise DomainError(
                f"Gaussian-type curve needs m > 0, got m={self.m!r}")


def gaussian_type_value(params: GaussianTypeParams, d: float) -> float:
    """Evaluate l + exp(-m d^2 + p d + q)."""
    return params.l + math.exp(-params.m * d * d + params.p * d + params.q)


@dataclass(frozen=True)
class LinRegResult:
    """Estimates (m, p) from the decreasing line z = p - m x.

    ``slope_estimate`` is m (the negated raw regression slope),
    ``intercept_estimate`` is p.
    """

    slope_estimate: float
    intercept_estimate: float


@dataclass(frozen=True)
class FitReport:
    """Diagnostics attached to a logistic fit."""

    regime: str
    inflection: Optional[InflectionApprox]
    l1_equation_residual: Optional[float]
    sse: float


def phi_transform(y: float, l1: float, l2: float) -> float:
    """Linearizing transform log(1/(y - l1) - 1/(l2 - l1)).

    Defined strictly inside the band (l1, l2).  For the logistic with
    those asymptotes the transform is exactly the exponent:
    1/(f(x) - l1) - 1/(l2 - l1) = e^(m x + p), so the transformed values
    lie on the line m x + p.
    """
    if not (l1 < y < l2):
        raise DomainError(f"y={y!r} is outside the open band ({l1!r}, {l2!r})")
    arg = 1.0 / (y - l1) - 1.0 / (l2 - l1)
    if not arg > 0.0:
        raise DomainError(f"transform argument {arg!r} is not positive")
    return math.log(arg)


def linreg(xs: Sequence[float], zs: Sequence[float],
           centering: str = "n") -> LinRegResult:
    """Fit z = p - m x by least squares, in one of two centerings.

    ``centering="n"`` is ordinary least squares.  ``centering="n-1"``
    divides the centering terms by n - 1 instead:

        m = -( sum(x z) - sum(x) sum(z)/(n-1) )
            / ( sum(x^2) - sum(x)^2/(n-1) )
        p = ( sum(z) + m sum(x) ) / (n-1)

    The variants agree only asymptotically; the n-1 form is not
    consistent on finite noiseless samples and is kept so the
    finite-sample discrepancy stays measurable.
    """
    if centering not in ("n", "n-1"):
        raise ValueError(f"unknown centering {centering!r}")
    if len(xs) != len(zs):
        raise ValueError("xs and zs must have equal length")
    n = len(xs)
    if n < 2:
        raise SingularDesign(f"need at least 2 points, got {n}")
    if max(xs) == min(xs):
        raise SingularDesign("all abscissae are equal")
    k = float(n - 1) if centering == "n-1" else float(n)
    sx = math.fsum(xs)
    sz = math.fsum(zs)
    sxx = math.fsum(x * x for x in xs)
    sxz = math.fsum(x * z for x, z in zip(xs, zs))
    denom = sxx - sx * sx / k
    if denom == 0.0:
        raise SingularDesign("regression denominator vanishes")
    m_hat = -(sxz - sx * sz / k) / denom
    p_hat = (sz + m_hat * sx) / k
    return LinRegResult(slope_estimate=m_hat, intercept_estimate=p_hat)


def fit_known_limits(xs: Sequence[float], ys: Sequence[float],
                     l1: float, l2: float) -> LogisticParams:
    """Fit (m, p) given both asymptotes, via the linearizing transform.

    The regression is ordinary least squares, which is exact on noiseless
    logistic samples for any >= 2 distinct abscissae.
    """
    zs = [phi_transform(y, l1, l2) for y in ys]
    reg = linreg(xs, zs)
    # the transformed data lie on m x + p, so the decreasing-line slope
    # estimate carries the opposite sign of the logistic slope
    return LogisticParams(m=-reg.slope_estimate, p=reg.intercept_estimate,
                          l1=l1, l2=l2)


def detect_inflection(xs: Sequence[float], ys: Sequence[float]) -> InflectionApprox:
    """Locate the steepest secant; its midpoint approximates the inflection.

    Ties go to the smallest index so fits are reproducible.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    n = len(xs)
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    require_increasing(xs)
    best = 0
    best_abs = -math.inf
    slopes = []
    for i in range(n - 1):
        s = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        slopes.append(s)
        if abs(s) > best_abs:
            best_abs = abs(s)
            best = i
    return InflectionApprox(
        index=best,
        theta_n=0.5 * (xs[best] + xs[best + 1]),
        gamma_n=0.5 * (ys[best] + ys[best + 1]),
        delta_n=slopes[best],
    )


def l1_equation_residual(l1_candidate: float, y1: float,
                         approx: InflectionApprox) -> float:
    """Residual of the discretized lower-asymptote equation.

        (gamma_n - y1)/(y1 - l1) + 1/2
            - exp(2 theta_n delta_n / (gamma_n - l1)) / 2

    Overflow of the exponential yields -inf, which still carries usable
    sign information for bracketing.
    """
    if not y1 > l1_candidate:
        raise DomainError(
            f"candidate l1={l1_candidate!r} must lie below y1={y1!r}")
    expo = 2.0 * approx.theta_n * approx.delta_n / (approx.gamma_n - l1_candidate)
    tail = -math.inf if expo > _EXP_MAX else -0.5 * math.exp(expo)
    return (approx.gamma_n - y1) / (y1 - l1_candidate) + 0.5 + tail


def _l1_equation_slope(l1_candidate: float, y1: float,
                       approx: InflectionApprox) -> float:
    expo = 2.0 * approx.theta_n * approx.delta_n / (approx.gamma_n - l1_candidate)
    if expo > _EXP_MAX:
        return math.inf
    return ((approx.gamma_n - y1) / (y1 - l1_candidate) ** 2
            - approx.theta_n * approx.delta_n * math.exp(expo)
            / (approx.gamma_n - l1_candidate) ** 2)


def solve_l1(y1: float, approx: InflectionApprox) -> float:
    """Solve the lower-asymptote equation for increasing data.

    Scans ``_SCAN_POINTS`` candidates for a sign change on a bracket that
    reaches 10 midpoint gaps (gamma_n - y1) below y1 and stops just short
    of y1, bisects to interval width 1e-12, then applies one Newton polish
    step.
    """
    if not y1 < approx.gamma_n:
        raise DomainError(
            f"increasing-data convention requires y1 < gamma_n "
            f"(y1={y1!r}, gamma_n={approx.gamma_n!r})")
    lo = y1 - 10.0 * (approx.gamma_n - y1)
    hi = y1 - 1e-9 * (y1 - lo)

    def resid(l):
        return l1_equation_residual(l, y1, approx)

    grid = _uniform_grid(lo, hi, _SCAN_POINTS)
    values = [resid(l) for l in grid]
    if all(math.isinf(v) or math.isnan(v) for v in values):
        raise NonFinite("residual is non-finite over the whole scan grid")

    a = b = None
    for i in range(_SCAN_POINTS - 1):
        va, vb = values[i], values[i + 1]
        if math.isnan(va) or math.isnan(vb):
            continue
        if va == 0.0:
            return grid[i]
        if (va < 0.0) != (vb < 0.0):
            a, b = grid[i], grid[i + 1]
            va_sign = va < 0.0
            break
    else:
        if values[-1] == 0.0:
            return grid[-1]
        raise NoBracket("no sign change on the scan grid")

    for _ in range(200):
        if b - a <= _BISECT_WIDTH:
            break
        mid = 0.5 * (a + b)
        vm = resid(mid)
        if vm == 0.0:
            a = b = mid
            break
        if (vm < 0.0) == va_sign:
            a = mid
        else:
            b = mid

    root = 0.5 * (a + b)
    slope = _l1_equation_slope(root, y1, approx)
    if math.isfinite(slope) and slope != 0.0:
        polished = root - resid(root) / slope
        if lo < polished < y1 and \
                abs(resid(polished)) <= abs(resid(root)):
            root = polished
    return root


def _strict_direction(ys: Sequence[float]) -> int:
    """+1 for strictly increasing, -1 for strictly decreasing, else raise."""
    increasing = all(b > a for a, b in zip(ys, ys[1:]))
    if increasing:
        return 1
    decreasing = all(b < a for a, b in zip(ys, ys[1:]))
    if decreasing:
        return -1
    raise NonMonotoneData(
        "the no-known-asymptote regime needs strictly monotone ordinates")


def fit_logistic(xs: Sequence[float], ys: Sequence[float],
                 regime: str = "none",
                 l1: Optional[float] = None,
                 l2: Optional[float] = None) -> tuple[LogisticParams, FitReport]:
    """Fit a logistic curve under one of three knowledge regimes.

    regime = "both"  -- l1 and l2 given; transform-and-regress (ordinary
                        least squares).
    regime = "l1"    -- l1 given; l2 approximated as 2 gamma_n - l1,
                        then transform-and-regress.
    regime = "none"  -- lower asymptote solved from the steepest-secant
                        equation; remaining parameters from the exact
                        inflection identities.  Requires strictly
                        monotone ordinates; decreasing data are mirrored
                        through their midrange and mapped back.

    Abscissae must be strictly increasing.  They are shifted so the first
    one is 0 before fitting (the midpoint formulas assume it) and the
    offset parameter is mapped back afterward.

    Returns the parameters together with a :class:`FitReport` carrying
    the regime, the secant inflection estimate, the residual of the
    lower-asymptote equation at its root (regime "none" only) and the
    sum of squared curve residuals.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise TooFewPoints(f"need at least 2 points, got {len(xs)}")
    require_increasing(xs)

    x0 = xs[0]
    u = [x - x0 for x in xs]
    approx = detect_inflection(u, ys)
    eq_residual = None

    if regime == "both":
        if l1 is None or l2 is None:
            raise ValueError("regime 'both' requires l1 and l2")
        shifted = fit_known_limits(u, ys, l1, l2)
    elif regime == "l1":
        if l1 is None:
            raise ValueError("regime 'l1' requires l1")
        l2_n = 2.0 * approx.gamma_n - l1
        shifted = fit_known_limits(u, ys, l1, l2_n)
    elif regime == "none":
        direction = _strict_direction(ys)
        if direction > 0:
            shifted, eq_residual = _fit_increasing(u, ys, approx)
        else:
            mid2 = max(ys) + min(ys)
            mirrored = [mid2 - y for y in ys]
            fit, eq_residual = _fit_increasing(
                u, mirrored, detect_inflection(u, mirrored))
            shifted = LogisticParams(
                m=-fit.m,
                p=-fit.p - 2.0 * math.log(fit.l2 - fit.l1),
                l1=mid2 - fit.l2,
                l2=mid2 - fit.l1,
            )
    else:
        raise ValueError(f"unknown regime {regime!r}")

    # undo the abscissa shift: exponent m(x - x0) + p_s == m x + (p_s - m x0)
    params = LogisticParams(m=shifted.m, p=shifted.p - shifted.m * x0,
                            l1=shifted.l1, l2=shifted.l2)
    try:
        sse = math.fsum((evaluate(params, x) - y) ** 2 for x, y in zip(xs, ys))
    except OverflowError:  # a squared residual, or their sum, exceeds a float
        sse = math.inf
    report = FitReport(regime=regime, inflection=approx,
                       l1_equation_residual=eq_residual, sse=sse)
    return params, report


def _fit_increasing(u: Sequence[float], ys: Sequence[float],
                    approx: InflectionApprox) -> tuple[LogisticParams, float]:
    l1_n = solve_l1(ys[0], approx)
    residual = abs(l1_equation_residual(l1_n, ys[0], approx))
    inflection = InflectionData(theta=approx.theta_n, f_theta=approx.gamma_n,
                                f_prime_theta=approx.delta_n)
    return params_from_inflection(l1_n, ys[0], inflection), residual


def _quadratic_solver(xs: Sequence[float]):
    """Factor the normal equations of a quadratic fit on xs once.

    Returns ``solve(ys) -> (a, b, c)`` for y = a x^2 + b x + c.  The
    power sums and the partial-pivoting elimination of the 3x3 normal
    matrix depend on xs only, so they are done here; ``solve`` forms the
    right-hand side and replays the recorded row swaps and updates on it.
    The arithmetic is that of eliminating the augmented system directly.
    Needs at least three distinct abscissae; a singular matrix raises
    :class:`~skewdose.errors.SingularDesign` when ``solve`` is called.
    """
    if len(set(xs)) < 3:
        raise SingularDesign(
            f"need at least 3 distinct abscissae, got {len(set(xs))}")
    s = [math.fsum(x ** k for x in xs) for k in range(5)]
    powers = [[x ** k for x in xs] for k in range(3)]
    a = [[s[4], s[3], s[2]],
         [s[3], s[2], s[1]],
         [s[2], s[1], s[0]]]
    steps = []  # (column, pivot row, [(row, factor), ...])
    singular = False
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            singular = True
            break
        a[col], a[pivot] = a[pivot], a[col]
        updates = []
        for r in range(col + 1, 3):
            factor = a[r][col] / a[col][col]
            for c in range(col, 3):
                a[r][c] -= factor * a[col][c]
            updates.append((r, factor))
        steps.append((col, pivot, updates))

    def solve(ys: Sequence[float]) -> tuple[float, float, float]:
        t = [math.fsum([y * xk for xk, y in zip(pk, ys)]) for pk in powers]
        rhs = [t[2], t[1], t[0]]
        if singular:
            raise SingularDesign("normal equations are singular")
        for col, pivot, updates in steps:
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
            for r, factor in updates:
                rhs[r] -= factor * rhs[col]
        # back-substitution in the operation order of sum(), which starts at 0
        (u00, u01, u02), (_, u11, u12), (_, _, u22) = a
        r0, r1, r2 = rhs
        x2 = (r2 - 0) / u22
        x1 = (r1 - (0 + u12 * x2)) / u11
        x0 = (r0 - (0 + u01 * x1 + u02 * x2)) / u00
        return x0, x1, x2

    return solve


def polyfit_quadratic(xs: Sequence[float],
                      ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares quadratic y = a x^2 + b x + c via normal equations.

    The 3x3 system is solved by Gaussian elimination with partial
    pivoting; :func:`fit_gaussian_type` eliminates it once for all its
    offset candidates, with the same arithmetic.  Needs at least three
    distinct abscissae.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    return _quadratic_solver(xs)(ys)


def fit_gaussian_type(ds: Sequence[float], vs: Sequence[float],
                      offset: "float | str" = 0.0) -> GaussianTypeParams:
    """Fit v(d) = l + exp(-m d^2 + p d + q).

    ``offset`` is either a fixed l (the curve then log-linearizes, so the
    fit reduces to quadratic least squares on log(v - l)) or the string
    ``"grid"``: 256 uniform candidates on [min(vs) - span,
    min(vs) - 1e-6 span], span = max(vs) - min(vs) (or max(1, |min(vs)|)
    for constant values), are tried and the one with the smallest squared
    residual in original units wins.  The candidates share their
    abscissae, so the normal matrix of the quadratic fit is factored once
    per call and each candidate only solves for its own log-values.
    """
    if len(ds) != len(vs):
        raise ValueError("ds and vs must have equal length")

    if offset == "grid":
        lo_v = min(vs)
        span = max(vs) - lo_v
        if span <= 0.0:
            span = max(1.0, abs(lo_v))
        best = None
        best_sse = math.inf
        # factored at the first feasible candidate, so that data with no
        # feasible candidate still end in NoFeasibleOffset
        solve = None
        for cand in _uniform_grid(lo_v - span, lo_v - 1e-6 * span,
                                  _OFFSET_CANDIDATES):
            if any(v - cand <= 0.0 for v in vs):
                continue
            logs = [math.log(v - cand) for v in vs]
            if solve is None:
                solve = _quadratic_solver(ds)
            a, b, c = solve(logs)
            if a >= 0.0:
                continue  # would not decay; cannot be returned
            sse = math.fsum(
                (cand + math.exp(a * d * d + b * d + c) - v) ** 2
                for d, v in zip(ds, vs))
            if sse < best_sse:
                best_sse = sse
                best = (cand, a, b, c)
        if best is None:
            raise NoFeasibleOffset(
                "no candidate offset keeps all values positive above it "
                "and yields a decaying curve")
        cand, a, b, c = best
        return GaussianTypeParams(l=cand, m=-a, p=b, q=c)

    fixed = float(offset)
    if any(v - fixed <= 0.0 for v in vs):
        raise NoFeasibleOffset(
            f"some values are <= the fixed offset {fixed!r}")
    a, b, c = polyfit_quadratic(ds, [math.log(v - fixed) for v in vs])
    return GaussianTypeParams(l=fixed, m=-a, p=b, q=c)
