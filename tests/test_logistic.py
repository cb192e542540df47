"""Logistic family: evaluation, derivatives, inflection identities, defects.

Oracles: central finite differences for the derivative, adaptive
quadrature for the integral-equation defect, and closed-form algebra for
the inflection identities.
"""

import math

import numpy as np
import pytest

from skewdose.errors import DomainError
from skewdose.logistic import (
    InflectionData,
    LogisticParams,
    derivative,
    evaluate,
    inflection,
    l1_residual,
    limits,
    ode_residual,
    params_from_inflection,
)

UNIT = LogisticParams(m=-1.0, p=0.0, l1=0.0, l2=1.0)


def reference_mean_curve():
    l1 = 21.8153
    return LogisticParams(m=-0.8278, p=-2.5929, l1=l1, l2=l1 + 1.0 / 0.0116)


def random_params(rng, n):
    out = []
    for _ in range(n):
        m = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
        l1 = float(rng.uniform(-50.0, 50.0))
        width = float(np.exp(rng.uniform(np.log(0.5), np.log(100.0))))
        out.append(LogisticParams(m=m, p=float(rng.uniform(-5.0, 5.0)),
                                  l1=l1, l2=l1 + width))
    return out


class TestValidation:
    def test_zero_slope_rejected(self):
        with pytest.raises(DomainError):
            LogisticParams(m=0.0, p=0.0, l1=0.0, l2=1.0)

    def test_asymptote_order(self):
        with pytest.raises(DomainError):
            LogisticParams(m=1.0, p=0.0, l1=1.0, l2=1.0)
        with pytest.raises(DomainError):
            LogisticParams(m=1.0, p=0.0, l1=2.0, l2=1.0)


class TestEvaluate:
    def test_reference_curve_at_zero(self):
        assert abs(evaluate(reference_mean_curve(), 0.0) - 33.39) < 0.01

    def test_reference_curve_at_three(self):
        assert abs(evaluate(reference_mean_curve(), 3.0) - 77.9) < 0.05

    def test_range_bound(self):
        # strictly interior away from the saturation region (exponent
        # magnitudes where e^t still registers against 1/(l2-l1))
        rng = np.random.default_rng(7)
        for params in random_params(rng, 25):
            theta = inflection(params).theta
            for u in rng.uniform(-8.0, 8.0, size=8):
                y = evaluate(params, theta + float(u) / abs(params.m))
                assert params.l1 < y < params.l2

    def test_strict_monotonicity_on_grid(self):
        rng = np.random.default_rng(8)
        for params in random_params(rng, 10):
            span = 10.0 / abs(params.m)
            xs = np.linspace(-span, span, 120)
            ys = [evaluate(params, float(x)) for x in xs]
            diffs = np.diff(ys)
            if params.m < 0:
                assert (diffs > 0).all()
            else:
                assert (diffs < 0).all()

    def test_saturation_at_extreme_arguments(self):
        params = reference_mean_curve()
        assert evaluate(params, -1e8) == params.l1
        assert evaluate(params, 1e8) == params.l2


class TestDerivative:
    def test_sign_is_opposite_of_m(self):
        rng = np.random.default_rng(9)
        for params in random_params(rng, 20):
            for x in rng.uniform(-15, 15, size=5):
                d = derivative(params, float(x))
                assert d > 0 if params.m < 0 else d < 0

    def test_slope_at_inflection_identity(self):
        rng = np.random.default_rng(10)
        for params in random_params(rng, 20):
            theta = inflection(params).theta
            expected = -params.m * (params.l2 - params.l1) / 4.0
            assert abs(derivative(params, theta) - expected) \
                <= 1e-12 * abs(expected)

    def test_central_difference_oracle(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for params in random_params(rng, 15):
            for x in rng.uniform(-5, 5, size=4):
                x = float(x)
                fd = (evaluate(params, x + h) - evaluate(params, x - h)) / (2 * h)
                assert abs(derivative(params, x) - fd) \
                    <= 1e-6 * max(1.0, abs(fd))

    def test_no_overflow_in_tails(self):
        params = LogisticParams(m=-2.0, p=0.0, l1=0.0, l2=1.0)
        assert derivative(params, 1e6) == 0.0
        assert derivative(params, -1e6) == 0.0


class TestInflection:
    def test_unit_logistic(self):
        data = inflection(UNIT)
        assert data.theta == 0.0
        assert data.f_theta == 0.5
        assert data.f_prime_theta == 0.25

    def test_reference_curve_location(self):
        assert abs(inflection(reference_mean_curve()).theta - 2.25) <= 1e-2

    def test_ordinate_consistency(self):
        rng = np.random.default_rng(12)
        for params in random_params(rng, 20):
            data = inflection(params)
            assert abs(evaluate(params, data.theta) - data.f_theta) \
                <= 1e-12 * max(1.0, abs(data.f_theta))
            assert abs(data.f_theta - 0.5 * (params.l1 + params.l2)) \
                <= 1e-12 * max(1.0, abs(data.f_theta))

    def test_second_derivative_changes_sign(self):
        rng = np.random.default_rng(13)
        h = 1e-4
        for params in random_params(rng, 10):
            theta = inflection(params).theta
            span = 0.5 / abs(params.m)

            def curvature(x):
                return (evaluate(params, x + h) - 2 * evaluate(params, x)
                        + evaluate(params, x - h))

            assert curvature(theta - span) * curvature(theta + span) < 0.0


class TestLimits:
    def test_orientation(self):
        increasing = reference_mean_curve()
        assert limits(increasing) == (increasing.l1, increasing.l2)
        decreasing = LogisticParams(m=1.0, p=0.0, l1=0.0, l2=1.0)
        assert limits(decreasing) == (decreasing.l2, decreasing.l1)

    def test_evaluate_approaches_limits(self):
        rng = np.random.default_rng(14)
        for params in random_params(rng, 10):
            lo, hi = limits(params)
            span = 50.0 / abs(params.m)
            assert abs(evaluate(params, -span) - lo) < 1e-6 * max(1, abs(lo))
            assert abs(evaluate(params, span) - hi) < 1e-6 * max(1, abs(hi))


class TestParamsFromInflection:
    def test_reference_numbers(self):
        rebuilt = params_from_inflection(
            21.8153, 33.3875,
            InflectionData(theta=2.25, f_theta=64.8625, f_prime_theta=17.8167))
        assert abs(rebuilt.m - (-0.8278)) < 1e-3
        assert abs(rebuilt.p - (-2.5929)) < 1e-3
        assert abs(rebuilt.l2 - 107.9097) < 1e-3

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(15)
        for params in random_params(rng, 100):
            f0 = evaluate(params, 0.0)
            if not f0 > params.l1:  # saturated curves cannot round-trip
                continue
            rebuilt = params_from_inflection(params.l1, f0, inflection(params))
            for field in ("m", "p", "l1", "l2"):
                a, b = getattr(params, field), getattr(rebuilt, field)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_inconsistent_geometry_rejected(self):
        data = inflection(UNIT)
        bad_f0 = 2.0 * data.f_theta - UNIT.l1 + 0.1
        with pytest.raises(DomainError):
            params_from_inflection(UNIT.l1, bad_f0, data)

    def test_f0_below_l1_rejected(self):
        with pytest.raises(DomainError):
            params_from_inflection(1.0, 0.5, inflection(UNIT))


class TestL1Residual:
    def test_zero_at_true_asymptote(self):
        rng = np.random.default_rng(16)
        for params in random_params(rng, 30):
            f0 = evaluate(params, 0.0)
            if not f0 > params.l1:
                continue
            r = l1_residual(params.l1, f0, inflection(params))
            assert abs(r) <= 1e-12 * max(1.0, abs(inflection(params).theta))

    def test_reference_data_residual(self):
        data = InflectionData(theta=2.25, f_theta=64.8625,
                              f_prime_theta=17.8167)
        assert abs(l1_residual(21.8153, 33.3875, data)) < 1e-3

    def test_continuity_below_f0(self):
        data = inflection(reference_mean_curve())
        f0 = evaluate(reference_mean_curve(), 0.0)
        candidates = np.linspace(15.0, f0 - 1.0, 50)
        values = [l1_residual(float(c), f0, data) for c in candidates]
        gaps = np.abs(np.diff(values))
        assert gaps.max() < 1.0  # no jumps on the admissible interval

    def test_candidate_above_f0_rejected(self):
        with pytest.raises(DomainError):
            l1_residual(50.0, 33.3875, inflection(reference_mean_curve()))


class TestOdeResidual:
    def test_zero_at_origin(self):
        assert ode_residual(reference_mean_curve(), 0.0) == 0.0

    def test_unit_logistic(self):
        assert ode_residual(UNIT, 5.0) <= 1e-8

    def test_random_sweep(self):
        rng = np.random.default_rng(17)
        for params in random_params(rng, 20):
            for x in rng.uniform(-10.0, 10.0, size=3):
                assert ode_residual(params, float(x)) <= 1e-6

    def test_nan_dose_raises(self):
        with pytest.raises(DomainError):
            ode_residual(UNIT, math.nan)
