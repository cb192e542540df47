"""Assembled model: shape classification, evaluation, simulation, selection."""

import math

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TRIAL_DOSES, TRIAL_SDS
from skewdose.dose_effect import (
    DoseEffectModel,
    check_assumptions,
    classify_sigma_shape,
    moments_at,
    optimal_dose,
    params_at,
    simulate,
)
from skewdose.errors import (
    DomainError,
    NoAdmissibleDose,
    NoDecreasingTail,
    NonMonotoneAbscissae,
)
from skewdose.fitting import GaussianTypeParams, _uniform_grid
from skewdose.logistic import LogisticParams
from skewdose.skew_normal import moments_of_params


class TestClassifySigmaShape:
    def test_trial_dispersion_is_gaussian_type(self):
        family, d0 = classify_sigma_shape(TRIAL_DOSES, TRIAL_SDS)
        assert family == "gaussian_type"
        assert d0 == 1.5

    def test_constant_head_is_logistic(self):
        family, d0 = classify_sigma_shape(
            [0.0, 1.0, 2.0, 3.0, 4.0], [10.0, 10.0, 10.0, 5.0, 2.0])
        assert family == "logistic"
        assert d0 == 2.0  # last dose attaining the maximum

    def test_nearly_constant_head_is_logistic(self):
        family, _ = classify_sigma_shape(
            [0.0, 1.0, 2.0, 3.0], [10.0, 10.2, 9.9, 5.0])
        assert family == "logistic"

    def test_increasing_throughout_rejected(self):
        with pytest.raises(NoDecreasingTail):
            classify_sigma_shape([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])

    def test_rebound_after_peak_rejected(self):
        with pytest.raises(NoDecreasingTail):
            classify_sigma_shape([0.0, 1.0, 2.0, 3.0], [1.0, 5.0, 3.0, 4.0])

    def test_disordered_head_rejected(self):
        with pytest.raises(DomainError):
            classify_sigma_shape([0.0, 1.0, 2.0, 3.0, 4.0],
                                 [5.0, 2.0, 9.0, 4.0, 1.0])
        # disordered doses are rejected before the values are looked at
        with pytest.raises(NonMonotoneAbscissae, match="index 2"):
            classify_sigma_shape([0.0, 2.0, 1.0, 3.0], [1.0, 2.0, 3.0, 1.0])


class TestEvaluation:
    def test_dispersion_at_selected_dose(self, fitted_model):
        assert abs(moments_at(fitted_model, 3.0).sigma - 32.4903) < 5e-3

    def test_mean_at_zero(self, fitted_model, reference_model):
        assert abs(moments_at(fitted_model, 0.0).mu - 33.39) < 0.01
        assert abs(moments_at(reference_model, 0.0).mu - 33.39) < 0.01

    def test_reference_skewness_curve_values(self, reference_model):
        assert abs(moments_at(reference_model, 0.0).gamma - 0.4487) < 1e-3
        assert abs(moments_at(reference_model, 3.0).gamma - 0.827) < 2e-3

    def test_negative_dose_rejected(self, fitted_model):
        with pytest.raises(DomainError):
            moments_at(fitted_model, -0.5)

    def test_clamped_near_skewness_peak(self, reference_model):
        # the fitted skewness curve tops out around dose 1.76, beyond the
        # family bound, so reports there carry the clamp flag
        report = params_at(reference_model, 1.76)
        assert report.clamped
        assert report.skewness > 1.0
        assert math.isfinite(report.skew_params.alpha)

    def test_unclamped_at_selected_dose(self, reference_model):
        report = params_at(reference_model, 3.0)
        assert not report.clamped
        assert math.isfinite(report.skew_params.alpha)

    def test_report_consistent_with_moment_map(self, fitted_model):
        for d in (0.0, 1.0, 2.5, 3.0):
            report = params_at(fitted_model, d)
            if report.clamped:
                continue
            back = moments_of_params(report.skew_params)
            assert abs(back.mu - report.mean) <= 1e-10 * max(1, abs(report.mean))
            assert abs(back.sigma - report.sd) <= 1e-10 * report.sd
            assert abs(back.gamma - report.skewness) \
                <= 1e-10 * max(1e-6, abs(report.skewness))

    def test_nearly_symmetric_model_has_tiny_shape(self, fitted_model):
        # skewness curve pinned (numerically) at zero: shape follows
        model = DoseEffectModel(
            mu_curve=fitted_model.mu_curve,
            sigma_curve=fitted_model.sigma_curve,
            gamma_curve=GaussianTypeParams(l=0.0, m=1.0, p=0.0, q=-700.0),
            d0_hat=fitted_model.d0_hat)
        for d in (0.0, 1.5, 3.0):
            assert abs(params_at(model, d).skew_params.alpha) < 1e-50


class TestSimulate:
    def test_deterministic(self, fitted_model):
        a = simulate(fitted_model, 3.0, 500, seed=9)
        b = simulate(fitted_model, 3.0, 500, seed=9)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self, fitted_model):
        a = simulate(fitted_model, 3.0, 500, seed=9)
        b = simulate(fitted_model, 3.0, 500, seed=10)
        assert not np.array_equal(a, b)

    def test_distinct_doses_are_independent_substreams(self, fitted_model):
        a = simulate(fitted_model, 1.0, 500, seed=9)
        b = simulate(fitted_model, 2.0, 500, seed=9)
        assert not np.array_equal(a, b)

    def test_monte_carlo_mean(self, fitted_model):
        n = 10 ** 6
        truth = moments_at(fitted_model, 3.0)
        draws = simulate(fitted_model, 3.0, n, seed=123)
        assert abs(draws.mean() - truth.mu) < 4 * truth.sigma / math.sqrt(n)

    def test_symmetric_model_empirical_skewness(self, fitted_model):
        model = DoseEffectModel(
            mu_curve=fitted_model.mu_curve,
            sigma_curve=fitted_model.sigma_curve,
            gamma_curve=GaussianTypeParams(l=0.0, m=1.0, p=0.0, q=-700.0),
            d0_hat=fitted_model.d0_hat)
        draws = simulate(model, 1.0, 10 ** 5, seed=77)
        z = (draws - draws.mean()) / draws.std()
        assert abs((z ** 3).mean()) < 0.05


class TestCheckAssumptions:
    def test_trial_model_passes(self, fitted_model):
        report = check_assumptions(fitted_model, horizon=20.0, eps=1e-3)
        assert report.decreasing_ok
        assert report.vanishing_ok
        assert report.sigma_at_horizon < 1e-3
        # the curve peak sits slightly past the empirical turning dose
        assert fitted_model.d0_hat < report.start_dose < 1.8

    def test_positive_floor_fails_vanishing(self, fitted_model):
        # horizon short of deep saturation, where adjacent grid values
        # would collide in floating point and trip the strict check
        model = DoseEffectModel(
            mu_curve=fitted_model.mu_curve,
            sigma_curve=LogisticParams(m=1.0, p=-2.0, l1=5.0, l2=30.0),
            gamma_curve=fitted_model.gamma_curve,
            d0_hat=0.5)
        report = check_assumptions(model, horizon=15.0, eps=1e-3)
        assert report.decreasing_ok
        assert not report.vanishing_ok
        assert abs(report.sigma_at_horizon - 5.0) < 1e-4

    def test_increasing_dispersion_fails_decreasing(self, fitted_model):
        model = DoseEffectModel(
            mu_curve=fitted_model.mu_curve,
            sigma_curve=LogisticParams(m=-1.0, p=0.0, l1=1.0, l2=9.0),
            gamma_curve=fitted_model.gamma_curve,
            d0_hat=0.5)
        report = check_assumptions(model, horizon=10.0, eps=1e-3)
        assert not report.decreasing_ok
        assert report.first_violation is not None

    def test_flat_dispersion_fails_decreasing(self, fitted_model):
        # adjacent grid values round to the same float: not strictly
        # decreasing, which is what "constant dispersion" degrades to
        model = DoseEffectModel(
            mu_curve=fitted_model.mu_curve,
            sigma_curve=LogisticParams(m=1.0, p=0.0, l1=10.0 - 1e-10,
                                       l2=10.0 + 1e-10),
            gamma_curve=fitted_model.gamma_curve,
            d0_hat=0.5)
        report = check_assumptions(model, horizon=10.0, eps=1e-3)
        assert not report.decreasing_ok

    def test_horizon_must_exceed_turning_dose(self, fitted_model):
        with pytest.raises(DomainError):
            check_assumptions(fitted_model, horizon=1.0, eps=1e-3)

    def test_decaying_dispersion_passes_at_any_large_horizon(self, fitted_model):
        # far past the underflow point of the exponential the curve sits
        # at exactly zero, which still counts as vanished, not as a stall
        for horizon in (20.0, 80.0, 500.0):
            report = check_assumptions(fitted_model, horizon=horizon, eps=1e-3)
            assert report.decreasing_ok
            assert report.vanishing_ok


class TestOptimalDose:
    def test_mean_weight_selects_right_endpoint(self, fitted_model):
        result = optimal_dose(fitted_model, (0.0, 3.0), weights=(1.0, 0.0, 0.0))
        assert result.dose == 3.0
        assert result.mode == "scalarized"
        assert result.objective == 1.0

    def test_monotone_argmax_generic(self, fitted_model):
        # any increasing mean curve puts the optimum at the right endpoint
        result = optimal_dose(fitted_model, (0.2, 2.2), weights=(1.0, 0.0, 0.0))
        assert result.dose == 2.2

    def test_rationale_reports_both_extrema(self, fitted_model):
        result = optimal_dose(fitted_model, (0.0, 3.0), weights=(1.0, 0.0, 0.0))
        assert result.sd_model_min < result.sd_model_max
        assert abs(result.sd - 32.4903) < 5e-3

    def test_unreachable_mean_threshold(self, fitted_model):
        with pytest.raises(NoAdmissibleDose):
            optimal_dose(fitted_model, (0.0, 3.0),
                         thresholds=(200.0, 50.0, 0.0))

    def test_smallest_admissible_dose(self, fitted_model):
        result = optimal_dose(fitted_model, (0.0, 3.0),
                              thresholds=(40.0, 50.0, 0.0))
        assert result.mode == "admissible"
        assert result.mean >= 40.0
        # the grid dose just below fails the mean threshold
        step = 3.0 / 1023
        previous = result.dose - step
        assert moments_at(fitted_model, previous).mu < 40.0

    def test_scalarized_invariant_under_affine_rescaling(self, fitted_model):
        base = optimal_dose(fitted_model, (0.0, 3.0), weights=(1.0, 0.5, 0.25))
        g = fitted_model.gamma_curve
        rescaled = DoseEffectModel(
            mu_curve=fitted_model.mu_curve,
            sigma_curve=fitted_model.sigma_curve,
            # skewness curve mapped to 2*gamma(d) + 1
            gamma_curve=GaussianTypeParams(l=2.0 * g.l + 1.0, m=g.m, p=g.p,
                                           q=g.q + math.log(2.0)),
            d0_hat=fitted_model.d0_hat)
        other = optimal_dose(rescaled, (0.0, 3.0), weights=(1.0, 0.5, 0.25))
        assert other.dose == base.dose

    def test_interval_and_mode_validation(self, fitted_model):
        with pytest.raises(DomainError):
            optimal_dose(fitted_model, (3.0, 0.0), weights=(1, 0, 0))
        with pytest.raises(ValueError):
            optimal_dose(fitted_model, (0.0, 3.0))
        with pytest.raises(ValueError):
            optimal_dose(fitted_model, (0.0, 3.0), weights=(1, 0, 0),
                         thresholds=(1, 1, 1))

    def test_non_finite_weights_and_nan_thresholds_rejected(self,
                                                            fitted_model):
        for weights in ((math.nan, 0, 0), (1, math.inf, 0)):
            with pytest.raises(DomainError):
                optimal_dose(fitted_model, (0.0, 3.0), weights=weights)
        with pytest.raises(DomainError):
            optimal_dose(fitted_model, (0.0, 3.0),
                         thresholds=(40.0, math.nan, 0.0))
        # an infinite threshold only lifts its constraint
        free = optimal_dose(fitted_model, (0.0, 3.0),
                            thresholds=(40.0, math.inf, -math.inf))
        assert free.mode == "admissible"


class TestModelValidation:
    def test_gaussian_dispersion_requires_zero_offset(self, fitted_model):
        with pytest.raises(DomainError):
            DoseEffectModel(
                mu_curve=fitted_model.mu_curve,
                sigma_curve=GaussianTypeParams(l=1.0, m=0.15, p=0.5, q=3.2),
                gamma_curve=fitted_model.gamma_curve,
                d0_hat=1.5)

    def test_turning_dose_must_be_nonnegative(self, fitted_model):
        with pytest.raises(DomainError):
            DoseEffectModel(
                mu_curve=fitted_model.mu_curve,
                sigma_curve=fitted_model.sigma_curve,
                gamma_curve=fitted_model.gamma_curve,
                d0_hat=-1.0)


def _signed(magnitude):
    return st.tuples(magnitude, st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0])


@st.composite
def models(draw):
    """Models whose dispersion may underflow to 0 and whose skewness may
    overflow, so the grid can hold invalid moments and raising doses."""
    l1 = draw(st.floats(-50.0, 50.0))
    mu = LogisticParams(m=draw(_signed(st.floats(0.05, 5.0))),
                        p=draw(st.floats(-10.0, 10.0)), l1=l1,
                        l2=l1 + draw(st.floats(0.1, 100.0)))
    if draw(st.booleans()):
        sigma = GaussianTypeParams(l=0.0, m=draw(st.floats(0.01, 50.0)),
                                   p=draw(st.floats(-5.0, 5.0)),
                                   q=draw(st.floats(-2.0, 5.0)))
    else:
        sigma = LogisticParams(m=draw(_signed(st.floats(0.05, 500.0))),
                               p=draw(st.floats(-10.0, 10.0)), l1=0.0,
                               l2=draw(st.floats(0.1, 100.0)))
    gamma = GaussianTypeParams(
        l=draw(st.floats(-2.0, 1.0)), m=draw(st.floats(0.01, 5.0)),
        p=draw(st.floats(-5.0, 5.0)),
        q=draw(st.one_of(st.floats(-3.0, 3.0), st.floats(700.0, 712.0))))
    return DoseEffectModel(mu_curve=mu, sigma_curve=sigma, gamma_curve=gamma,
                           d0_hat=0.0)


@settings(max_examples=150, deadline=None)
@given(model=models(), lo=st.floats(-1.0, 5.0), width=st.floats(1e-3, 10.0),
       weights=st.one_of(st.none(), st.tuples(*[st.floats(-2.0, 2.0)] * 3)),
       thresholds=st.tuples(st.floats(-60.0, 160.0), st.floats(0.0, 100.0),
                            st.floats(-3.0, 3.0)))
def test_optimal_dose_agrees_with_moments_at(model, lo, width, weights,
                                             thresholds):
    """Every field, and any error, is what moments_at gives dose by dose."""
    interval = (lo, lo + width)
    mode = {"weights": weights} if weights else {"thresholds": thresholds}
    grid = _uniform_grid(*interval, 1024)
    try:
        triples = [moments_at(model, d) for d in grid]
    except Exception as exc:  # noqa: BLE001 -- optimal_dose must match it
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            optimal_dose(model, interval, **mode)
        return
    admissible = [i for i, t in enumerate(triples) if weights is None
                  and t.mu >= thresholds[0] and t.sigma <= thresholds[1]
                  and t.gamma >= thresholds[2]]
    if weights is None and not admissible:
        with pytest.raises(NoAdmissibleDose):
            optimal_dose(model, interval, **mode)
        return
    result = optimal_dose(model, interval, **mode)
    chosen = grid.index(result.dose)
    if weights is None:
        assert chosen == admissible[0]
    at = triples[chosen]
    assert (result.mean, result.sd, result.skewness) \
        == (at.mu, at.sigma, at.gamma)
    assert result.sd_model_min == min(t.sigma for t in triples)
    assert result.sd_model_max == max(t.sigma for t in triples)


def test_invalid_moment_pre_empts_a_later_overflow():
    """The dispersion underflows to 0 near dose 1.4, before the skewness
    curve overflows near dose 2.8; the earlier dose's error wins."""
    model = DoseEffectModel(
        mu_curve=LogisticParams(m=-1.0, p=0.0, l1=0.0, l2=10.0),
        sigma_curve=GaussianTypeParams(l=0.0, m=400.0, p=0.0, q=0.0),
        gamma_curve=GaussianTypeParams(l=0.0, m=0.01, p=0.1, q=709.6),
        d0_hat=0.0)
    with pytest.raises(OverflowError):
        moments_at(model, 3.0)
    with pytest.raises(DomainError, match=r"^sigma must be > 0, got 0\.0$"):
        optimal_dose(model, (0.0, 5.0), weights=(1.0, 0.0, 0.0))
