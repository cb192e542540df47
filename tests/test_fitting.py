"""Curve-parameter recovery: transforms, regressions, root solve, regimes.

Oracles: exact rational arithmetic (frozen below) for the two regression
centerings, numpy.polyfit for quadratic least squares, and synthetic
curves evaluated noiselessly for every recovery test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REFERENCE_SIGMA_COEFFS, TRIAL_DOSES, TRIAL_MEANS, TRIAL_SDS
from skewdose.errors import (
    DomainError,
    NoBracket,
    NoFeasibleOffset,
    NonMonotoneAbscissae,
    NonMonotoneData,
    SingularDesign,
    TooFewPoints,
)
from skewdose.fitting import (
    GaussianTypeParams,
    _uniform_grid,
    detect_inflection,
    fit_gaussian_type,
    fit_known_limits,
    fit_logistic,
    gaussian_type_value,
    l1_equation_residual,
    linreg,
    phi_transform,
    polyfit_quadratic,
    solve_l1,
)
from skewdose.logistic import LogisticParams, evaluate, limits


def sample_curve(params, xs):
    return [evaluate(params, x) for x in xs]


def aligned_grid(params, step, half_span):
    """Sampling grid with the true inflection at an interval midpoint.

    The secant-midpoint estimates are only as good as the grid placement
    (the inflection can sit up to half a step from the nearest interval
    midpoint), so convergence tests control that placement.
    """
    from skewdose.logistic import inflection

    theta = inflection(params).theta
    k = int(round(half_span / step))
    return [theta + (j - k + 0.5) * step for j in range(2 * k)]


class TestPhiTransform:
    def test_linearizes_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            l1 = float(rng.uniform(-10, 10))
            width = float(rng.uniform(0.5, 50))
            params = LogisticParams(m=float(rng.uniform(-2, -0.3)),
                                    p=float(rng.uniform(-3, 3)),
                                    l1=l1, l2=l1 + width)
            for x in rng.uniform(-4, 4, size=5):
                x = float(x)
                z = phi_transform(evaluate(params, x), l1, l1 + width)
                assert abs(z - params.m * x - params.p) \
                    <= 1e-12 * max(1.0, abs(z))

    def test_midpoint_value(self):
        l1, l2 = 2.0, 10.0
        z = phi_transform(0.5 * (l1 + l2), l1, l2)
        assert abs(z - math.log(1.0 / (l2 - l1))) < 1e-14

    def test_boundaries_rejected(self):
        with pytest.raises(DomainError):
            phi_transform(2.0, 2.0, 10.0)
        with pytest.raises(DomainError):
            phi_transform(10.0, 2.0, 10.0)
        with pytest.raises(DomainError):
            phi_transform(11.0, 2.0, 10.0)


class TestLinReg:
    # frozen sample; expectations computed once in exact rational
    # arithmetic (fractions.Fraction) from both centering formulas
    XS = (0.0, 1.0, 2.0, 3.0, 4.0)
    ZS = (2.05, 1.27, 0.62, -0.14, -0.79)

    def test_standard_centering_matches_polyfit_oracle(self):
        got = linreg(self.XS, self.ZS, centering="n")
        slope, intercept = np.polyfit(self.XS, self.ZS, 1)
        assert abs(got.slope_estimate - (-slope)) < 1e-12
        assert abs(got.intercept_estimate - intercept) < 1e-12
        assert abs(got.slope_estimate - 0.709) < 1e-12
        assert abs(got.intercept_estimate - 2.02) < 1e-12

    def test_alternative_centering_frozen_values(self):
        got = linreg(self.XS, self.ZS, centering="n-1")
        assert abs(got.slope_estimate - 1.719) < 1e-12
        assert abs(got.intercept_estimate - 5.05) < 1e-12

    def test_modes_differ_on_noisy_data(self):
        alt = linreg(self.XS, self.ZS, centering="n-1")
        std = linreg(self.XS, self.ZS, centering="n")
        assert abs(alt.slope_estimate - std.slope_estimate) > 0.5

    def test_standard_centering_exact_on_clean_line(self):
        xs = [0.0, 0.5, 1.25, 3.0]
        zs = [1.7 - 0.45 * x for x in xs]
        got = linreg(xs, zs, centering="n")
        assert abs(got.slope_estimate - 0.45) < 1e-12
        assert abs(got.intercept_estimate - 1.7) < 1e-12

    def test_equal_abscissae_rejected(self):
        with pytest.raises(SingularDesign):
            linreg([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_unknown_centering_rejected(self):
        with pytest.raises(ValueError):
            linreg(self.XS, self.ZS, centering="bessel")


class TestFitKnownLimits:
    def test_noiseless_recovery_ten_points(self):
        params = LogisticParams(m=-1.3, p=0.7, l1=2.0, l2=9.0)
        xs = list(np.linspace(0.0, 5.0, 10))
        fit = fit_known_limits(xs, sample_curve(params, xs), 2.0, 9.0)
        assert abs(fit.m - params.m) < 1e-9
        assert abs(fit.p - params.p) < 1e-9

    def test_two_points_suffice(self):
        params = LogisticParams(m=0.8, p=-0.2, l1=-1.0, l2=4.0)
        xs = [0.0, 1.0]
        fit = fit_known_limits(xs, sample_curve(params, xs), -1.0, 4.0)
        assert abs(fit.m - params.m) < 1e-9
        assert abs(fit.p - params.p) < 1e-9

    def test_unit_logistic_grid(self):
        params = LogisticParams(m=1.0, p=0.0, l1=0.0, l2=1.0)
        xs = [-2.0, -1.0, 0.0, 1.0, 2.0]
        fit = fit_known_limits(xs, sample_curve(params, xs), 0.0, 1.0)
        assert abs(fit.m - 1.0) < 1e-9

    def test_value_outside_band_rejected(self):
        with pytest.raises(DomainError):
            fit_known_limits([0.0, 1.0], [0.5, 1.5], 0.0, 1.0)


class TestDetectInflection:
    def test_trial_means(self):
        approx = detect_inflection(TRIAL_DOSES, TRIAL_MEANS)
        assert approx.index == 2  # the (1.5, 3) interval
        assert approx.theta_n == (1.5 + 3.0) / 2.0
        assert approx.gamma_n == (51.5 + 78.225) / 2.0
        assert approx.delta_n == (78.225 - 51.5) / (3.0 - 1.5)

    def test_two_points(self):
        approx = detect_inflection([0.0, 2.0], [1.0, 5.0])
        assert approx.index == 0
        assert approx.theta_n == 1.0
        assert approx.gamma_n == 3.0
        assert approx.delta_n == 2.0

    def test_tie_breaks_to_smallest_index(self):
        approx = detect_inflection([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert approx.index == 0

    def test_steepest_negative_slope_wins(self):
        approx = detect_inflection([0.0, 1.0, 2.0], [5.0, 4.0, 0.0])
        assert approx.index == 1

    def test_errors(self):
        with pytest.raises(TooFewPoints):
            detect_inflection([1.0], [2.0])
        with pytest.raises(NonMonotoneAbscissae):
            detect_inflection([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])


class TestSolveL1:
    def test_trial_root(self):
        approx = detect_inflection(TRIAL_DOSES, TRIAL_MEANS)
        root = solve_l1(TRIAL_MEANS[0], approx)
        assert abs(root - 21.8153) < 1e-3
        assert root < TRIAL_MEANS[0]
        assert abs(l1_equation_residual(root, TRIAL_MEANS[0], approx)) <= 1e-10

    def test_grid_refinement_converges(self):
        params = LogisticParams(m=-1.0, p=2.0, l1=5.0, l2=15.0)
        errors = []
        for step in (1.0, 0.5, 0.25):
            xs = aligned_grid(params, step, half_span=4.0)
            ys = sample_curve(params, xs)
            # the equation assumes the first abscissa is 0
            shifted = [x - xs[0] for x in xs]
            root = solve_l1(ys[0], detect_inflection(shifted, ys))
            errors.append(abs(root - params.l1))
        assert errors[1] <= errors[0]
        assert errors[2] <= errors[1]
        assert errors[-1] < 0.01

    def test_bracket_excluding_root_rejected(self):
        # inflection left of the first dose: the root lies outside the
        # bracket of 10 midpoint gaps below y1
        params = LogisticParams(m=-1.0, p=-5.0, l1=0.0, l2=100.0)
        xs = [0.0, 1.0, 2.0, 3.0, 4.0]
        ys = sample_curve(params, xs)
        with pytest.raises(NoBracket):
            solve_l1(ys[0], detect_inflection(xs, ys))

    def test_requires_increasing_convention(self):
        approx = detect_inflection(TRIAL_DOSES, TRIAL_MEANS)
        with pytest.raises(DomainError):
            solve_l1(100.0, approx)


class TestFitLogistic:
    def test_trial_means_full_recovery(self):
        params, report = fit_logistic(TRIAL_DOSES, TRIAL_MEANS, regime="none")
        assert abs(params.l1 - 21.8153) < 1e-3
        assert abs(1.0 / (params.l2 - params.l1) - 0.0116) < 1e-4
        assert abs(params.m - (-0.8278)) < 1e-3
        assert abs(params.p - (-2.5929)) < 1e-3
        assert report.regime == "none"
        assert report.inflection.theta_n == 2.25
        assert report.l1_equation_residual <= 1e-10
        assert report.sse < 15.0

    @pytest.mark.parametrize("regime,kwargs,step", [
        ("both", {"l1": 5.0, "l2": 15.0}, 0.05),
        ("l1", {"l1": 5.0}, 0.05),
        ("none", {}, 0.002),
    ])
    def test_noiseless_recovery_each_regime(self, regime, kwargs, step):
        params = LogisticParams(m=-1.0, p=2.0, l1=5.0, l2=15.0)
        xs = aligned_grid(params, step, half_span=4.0)
        fit, _ = fit_logistic(xs, sample_curve(params, xs),
                              regime=regime, **kwargs)
        assert abs(fit.m - params.m) < 1e-6
        assert abs(fit.p - params.p) < 1e-6
        assert abs(fit.l1 - params.l1) < 1e-6 * max(1.0, abs(params.l1))
        assert abs(fit.l2 - params.l2) < 1e-6 * max(1.0, abs(params.l2))

    def test_shifted_abscissae_map_back(self):
        # first abscissa far from 0: fit shifts internally, must undo it
        params = LogisticParams(m=-1.0, p=5.0, l1=0.0, l2=1.0)  # theta = 5
        xs = aligned_grid(params, 0.01, half_span=2.5)
        assert xs[0] > 2.0
        for regime, kwargs, tol in (("both", {"l1": 0.0, "l2": 1.0}, 1e-9),
                                    ("none", {}, 1e-4)):
            fit, _ = fit_logistic(xs, sample_curve(params, xs),
                                  regime=regime, **kwargs)
            assert abs(fit.m - params.m) < tol
            assert abs(fit.p - params.p) < tol

    def test_grid_consistency(self):
        params = LogisticParams(m=-1.0, p=2.0, l1=5.0, l2=15.0)
        errors = []
        for step in (1.0, 0.5):
            xs = aligned_grid(params, step, half_span=4.0)
            fit, _ = fit_logistic(xs, sample_curve(params, xs), regime="none")
            errors.append(max(abs(fit.m - params.m), abs(fit.p - params.p),
                              abs(fit.l1 - params.l1), abs(fit.l2 - params.l2)))
        assert errors[1] <= errors[0]

    def test_decreasing_data_mirrored(self):
        truth = LogisticParams(m=1.2, p=-5.68, l1=3.0, l2=11.0)  # theta ~ 3
        xs = aligned_grid(truth, 0.01, half_span=2.5)
        ys = sample_curve(truth, xs)
        assert all(b < a for a, b in zip(ys, ys[1:]))
        fit, _ = fit_logistic(xs, ys, regime="none")
        assert fit.m > 0
        assert limits(fit) == (fit.l2, fit.l1)
        assert abs(fit.m - truth.m) < 1e-4
        assert abs(fit.p - truth.p) < 1e-4
        assert abs(fit.l1 - truth.l1) < 1e-4
        assert abs(fit.l2 - truth.l2) < 1e-4

    def test_non_monotone_rejected_in_none_regime(self):
        with pytest.raises(NonMonotoneData):
            fit_logistic([0.0, 1.0, 2.0, 3.0], [1.0, 5.0, 3.0, 7.0],
                         regime="none")

    def test_missing_knowledge_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic([0.0, 1.0], [1.0, 2.0], regime="both", l1=0.0)
        with pytest.raises(ValueError):
            fit_logistic([0.0, 1.0], [1.0, 2.0], regime="l1")


class TestPolyfitQuadratic:
    def test_exact_quadratic(self):
        xs = [-2.0, -1.0, 0.5, 1.0, 3.0]
        ys = [1.5 * x * x - 0.4 * x + 2.25 for x in xs]
        a, b, c = polyfit_quadratic(xs, ys)
        assert abs(a - 1.5) < 1e-12
        assert abs(b + 0.4) < 1e-12
        assert abs(c - 2.25) < 1e-12

    def test_trial_dispersion_coefficients(self):
        a, b, c = polyfit_quadratic(TRIAL_DOSES,
                                    [math.log(s) for s in TRIAL_SDS])
        ref_a, ref_b, ref_c = REFERENCE_SIGMA_COEFFS
        assert abs(a - ref_a) < 5e-4
        assert abs(b - ref_b) < 5e-4
        assert abs(c - ref_c) < 5e-4

    def test_against_polyfit_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            xs = sorted(rng.uniform(-3, 3, size=7))
            ys = rng.uniform(-5, 5, size=7)
            a, b, c = polyfit_quadratic(list(xs), list(ys))
            oa, ob, oc = np.polyfit(xs, ys, 2)
            assert abs(a - oa) < 1e-9
            assert abs(b - ob) < 1e-9
            assert abs(c - oc) < 1e-9

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(34)
        xs = rng.uniform(-2, 4, size=9)
        ys = rng.uniform(0, 10, size=9)
        a, b, c = polyfit_quadratic(list(xs), list(ys))
        design = np.vstack([xs ** 2, xs, np.ones_like(xs)]).T
        lhs = design.T @ design @ np.array([a, b, c])
        rhs = design.T @ ys
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_too_few_distinct_abscissae(self):
        with pytest.raises(SingularDesign):
            polyfit_quadratic([1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0])


class TestFitGaussianType:
    def test_trial_dispersion_fixed_zero(self):
        fit = fit_gaussian_type(TRIAL_DOSES, TRIAL_SDS, offset=0.0)
        ref_a, ref_b, ref_c = REFERENCE_SIGMA_COEFFS
        assert fit.l == 0.0
        assert abs(fit.m - (-ref_a)) < 5e-4
        assert abs(fit.p - ref_b) < 5e-4
        assert abs(fit.q - ref_c) < 5e-4

    def test_synthetic_exact_recovery(self):
        ds = [0.0, 0.5, 1.0, 1.5, 2.5]
        vs = [0.5 + math.exp(-d * d + d) for d in ds]
        fit = fit_gaussian_type(ds, vs, offset=0.5)
        assert abs(fit.l - 0.5) < 1e-15
        assert abs(fit.m - 1.0) < 1e-10
        assert abs(fit.p - 1.0) < 1e-10
        assert abs(fit.q) < 1e-10

    def test_log_residuals_match_quadratic_fit(self):
        fit = fit_gaussian_type(TRIAL_DOSES, TRIAL_SDS, offset=0.0)
        logs = [math.log(s) for s in TRIAL_SDS]
        a, b, c = polyfit_quadratic(TRIAL_DOSES, logs)
        for d, y in zip(TRIAL_DOSES, logs):
            curve_log = math.log(gaussian_type_value(fit, d) - fit.l)
            quad = a * d * d + b * d + c
            assert abs((curve_log - y) - (quad - y)) < 1e-12

    def test_offset_at_or_above_data_rejected(self):
        with pytest.raises(NoFeasibleOffset):
            fit_gaussian_type([0.0, 1.0, 2.0], [1.0, 2.0, 1.5], offset=1.0)

    def test_grid_with_infeasible_range_rejected(self):
        with pytest.raises(NoFeasibleOffset):
            # convex data: no candidate gives a decaying curve
            fit_gaussian_type([0.0, 1.0, 2.0], [3.0, 1.0, 3.0], offset="grid")

    def test_grid_default_always_feasible_on_trial_skews(self):
        skews = [-0.0276, -0.1381, 1.2827, 0.3504]
        fit = fit_gaussian_type(TRIAL_DOSES, skews, offset="grid")
        assert fit.l < min(skews)
        assert fit.m > 0.0

    def test_curve_requires_decay(self):
        with pytest.raises(DomainError):
            GaussianTypeParams(l=0.0, m=-1.0, p=0.0, q=0.0)


def brute_force_grid_fit(ds, vs):
    """The offset grid search with one polyfit_quadratic call per candidate."""
    lo_v = min(vs)
    span = max(vs) - lo_v
    if span <= 0.0:
        span = max(1.0, abs(lo_v))
    best, best_sse = None, math.inf
    for cand in _uniform_grid(lo_v - span, lo_v - 1e-6 * span, 256):
        if any(v - cand <= 0.0 for v in vs):
            continue
        a, b, c = polyfit_quadratic(ds, [math.log(v - cand) for v in vs])
        if a >= 0.0:
            continue
        sse = math.fsum((cand + math.exp(a * d * d + b * d + c) - v) ** 2
                        for d, v in zip(ds, vs))
        if sse < best_sse:
            best, best_sse = (cand, a, b, c), sse
    if best is None:
        raise NoFeasibleOffset(
            "no candidate offset keeps all values positive above it "
            "and yields a decaying curve")
    cand, a, b, c = best
    return GaussianTypeParams(l=cand, m=-a, p=b, q=c)


def outcome(fn, *args):
    """repr of the result (it tells -0.0 from 0.0), or the exception."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 -- compared, not hidden
        return f"{type(exc).__name__}: {exc}"


@st.composite
def skew_tables(draw):
    """4-8 increasing doses with skewness-like values: mostly a rounded
    bump curve (as a published table prints it), else arbitrary values."""
    n = draw(st.integers(4, 8))
    ds = sorted(draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n,
                              unique=True)))
    if draw(st.integers(0, 3)):
        l = draw(st.floats(-2.0, 1.0))
        m = draw(st.floats(0.01, 3.0))
        p = draw(st.floats(-3.0, 3.0))
        q = draw(st.floats(-3.0, 2.0))
        vs = [round(l + math.exp(-m * d * d + p * d + q), 4) for d in ds]
    else:
        vs = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    return ds, vs


@settings(max_examples=150, deadline=None)
@given(skew_tables())
def test_offset_grid_equals_per_candidate_polyfit(table):
    ds, vs = table
    assert outcome(fit_gaussian_type, ds, vs, "grid") \
        == outcome(brute_force_grid_fit, ds, vs)
