"""Skew-normal distribution: density, cdf, moment maps, estimators, sampler.

Independent oracles: scipy.stats.skewnorm for the density/cdf (same
mathematical family, unrelated code path), scipy.special.owens_t for
Owen's T, scipy.integrate.quad for normalization, and hand arithmetic for
the small-sample estimators.
"""

import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from skewdose.errors import DegenerateSample, DomainError, InfeasibleSkewness
from skewdose.skew_normal import (
    CLAMP_LIMIT,
    GAMMA_MAX,
    MomentTriple,
    SkewNormalParams,
    cdf,
    clamp_skewness,
    estimate_moments,
    estimate_params,
    moments_of_params,
    owens_t,
    params_of_moments,
    pdf,
    sample,
)

RNG_SEED = 1234


def random_params(rng, n):
    out = []
    for _ in range(n):
        out.append(SkewNormalParams(
            xi=float(rng.uniform(-50.0, 50.0)),
            omega=float(np.exp(rng.uniform(np.log(0.1), np.log(50.0)))),
            alpha=float(rng.uniform(-8.0, 8.0)),
        ))
    return out


class TestValidation:
    def test_omega_must_be_positive(self):
        with pytest.raises(DomainError):
            SkewNormalParams(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            SkewNormalParams(0.0, -1.0, 1.0)

    def test_fields_must_be_finite(self):
        with pytest.raises(DomainError):
            SkewNormalParams(float("inf"), 1.0, 0.0)
        with pytest.raises(DomainError):
            MomentTriple(0.0, float("nan"), 0.0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(DomainError):
            MomentTriple(0.0, 0.0, 0.0)

    def test_feasibility_flag(self):
        assert MomentTriple(0.0, 1.0, 0.9).feasible
        assert not MomentTriple(0.0, 1.0, 1.2827).feasible


class TestPdf:
    def test_normal_reduction_at_mode(self):
        value = pdf(SkewNormalParams(0.0, 1.0, 0.0), 0.0)
        assert abs(value - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15

    def test_strong_suppression_stays_positive(self):
        value = pdf(SkewNormalParams(0.0, 1.0, 5.0), -3.0)
        assert 0.0 < value < 1e-4

    def test_matches_scipy_over_grid(self):
        rng = np.random.default_rng(RNG_SEED)
        for params in random_params(rng, 10):
            xs = params.xi + params.omega * np.linspace(-4.0, 4.0, 41)
            for x in xs:
                ref = scipy_stats.skewnorm.pdf(
                    x, a=params.alpha, loc=params.xi, scale=params.omega)
                got = pdf(params, float(x))
                assert got >= 0.0
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_alpha_zero_equals_normal_density_1000_points(self):
        params = SkewNormalParams(1.5, 2.5, 0.0)
        xs = np.linspace(params.xi - 8 * params.omega,
                         params.xi + 8 * params.omega, 1000)
        for x in xs:
            z = (x - params.xi) / params.omega
            ref = math.exp(-0.5 * z * z) / (params.omega * math.sqrt(2 * math.pi))
            assert abs(pdf(params, float(x)) - ref) <= 1e-14 * max(1.0, ref)

    def test_normalizes_to_one(self):
        cases = [SkewNormalParams(48.35, 43.75, 1.65)]
        rng = np.random.default_rng(RNG_SEED + 1)
        cases += random_params(rng, 5)
        for params in cases:
            mass, _ = scipy_integrate.quad(
                lambda x: pdf(params, x),
                params.xi - 12 * params.omega, params.xi + 12 * params.omega,
                limit=200)
            assert abs(mass - 1.0) < 1e-8

    def test_reflection_identity(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for params in random_params(rng, 10):
            mirrored = SkewNormalParams(params.xi, params.omega, -params.alpha)
            for x in params.xi + params.omega * np.linspace(-3, 3, 13):
                a = pdf(mirrored, 2.0 * params.xi - float(x))
                b = pdf(params, float(x))
                assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


class TestCdf:
    def test_symmetric_median(self):
        assert abs(cdf(SkewNormalParams(0.0, 1.0, 0.0), 0.0) - 0.5) < 1e-9

    def test_value_at_location_formula(self):
        # P(X <= xi) = 1/2 - arctan(alpha)/pi
        for alpha in (0.5, 1.0, 2.0, -3.0):
            expected = 0.5 - math.atan(alpha) / math.pi
            got = cdf(SkewNormalParams(0.0, 1.0, alpha), 0.0)
            assert abs(got - expected) < 1e-9

    def test_total_mass(self):
        assert cdf(SkewNormalParams(0.0, 1.0, 4.0), 50.0) == 1.0
        assert abs(cdf(SkewNormalParams(0.0, 1.0, 4.0), 13.0) - 1.0) < 1e-9

    def test_limits_and_monotonicity(self):
        params = SkewNormalParams(2.0, 3.0, -1.5)
        xs = np.linspace(params.xi - 6 * params.omega,
                         params.xi + 6 * params.omega, 61)
        values = [cdf(params, float(x)) for x in xs]
        assert values[0] < 1e-8
        assert values[-1] > 1.0 - 1e-8
        # nondecreasing up to the quadrature tolerance of two evaluations
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9

    def test_matches_scipy(self):
        params = SkewNormalParams(48.35, 43.75, 1.65)
        for x in (0.0, 30.0, 78.0, 150.0):
            ref = scipy_stats.skewnorm.cdf(
                x, a=params.alpha, loc=params.xi, scale=params.omega)
            assert abs(cdf(params, x) - ref) < 1e-8

    # shapes include both sides of the a = 1 switch of Owen's T
    NEAR_UNIT_SHAPES = [-1.001, -1.0, -0.999, 0.999, 1.0, 1.001]

    def test_owens_t_matches_scipy_on_wide_grid(self):
        alphas = np.concatenate([np.linspace(-50.0, 50.0, 201),
                                 self.NEAR_UNIT_SHAPES])
        zs = np.linspace(-40.0, 40.0, 321)
        for alpha in alphas.tolist():
            ref = scipy_special.owens_t(zs, alpha)
            got = np.array([owens_t(z, alpha) for z in zs.tolist()])
            assert np.max(np.abs(got - ref)) <= 1e-12, alpha

    def test_matches_scipy_on_wide_grid(self):
        # a coarser grid over the same box: scipy's skewnorm.cdf is slow
        alphas = np.concatenate([np.linspace(-50.0, 50.0, 41),
                                 self.NEAR_UNIT_SHAPES])
        zs = np.linspace(-40.0, 40.0, 81)
        for alpha in alphas.tolist():
            params = SkewNormalParams(0.0, 1.0, alpha)
            ref = scipy_stats.skewnorm.cdf(zs, alpha)
            got = np.array([cdf(params, z) for z in zs.tolist()])
            assert np.max(np.abs(got - ref)) <= 1e-12, alpha

    def test_location_identity_is_exact(self):
        # P(X <= xi) = 1/2 - arctan(alpha)/pi, over both branches of T
        for alpha in np.linspace(-50.0, 50.0, 1001).tolist():
            expected = 0.5 - math.atan(alpha) / math.pi
            got = cdf(SkewNormalParams(3.0, 2.0, alpha), 3.0)
            assert abs(got - expected) <= 1e-14, alpha

    def test_infinite_and_nan_inputs(self):
        for alpha in (-20.0, -1.0, 0.0, 0.5, 1.0, 7.0):
            params = SkewNormalParams(2.0, 3.0, alpha)
            assert cdf(params, -math.inf) == 0.0
            assert cdf(params, math.inf) == 1.0
            with pytest.raises(DomainError):
                cdf(params, math.nan)

    def test_owens_t_symmetries(self):
        for h, a in ((0.3, 0.4), (1.7, 2.5), (4.0, 30.0), (0.0, 3.0)):
            assert owens_t(-h, a) == owens_t(h, a)
            assert owens_t(h, -a) == -owens_t(h, a)
        # T(0, a) = arctan(a) / 2pi
        for a in (0.2, 1.0, 5.0):
            assert abs(owens_t(0.0, a) - math.atan(a) / (2.0 * math.pi)) \
                <= 1e-16


class TestMomentMaps:
    def test_normal_reduction(self):
        t = moments_of_params(SkewNormalParams(7.0, 2.0, 0.0))
        assert (t.mu, t.sigma, t.gamma) == (7.0, 2.0, 0.0)

    def test_unit_alpha_closed_form(self):
        t = moments_of_params(SkewNormalParams(0.0, 1.0, 1.0))
        delta = 1.0 / math.sqrt(2.0)
        mu = delta * math.sqrt(2.0 / math.pi)
        sigma = math.sqrt(1.0 - 2.0 * delta * delta / math.pi)
        gamma = (4.0 - math.pi) / 2.0 * mu ** 3 / sigma ** 3
        assert abs(t.mu - mu) < 1e-15
        assert abs(t.sigma - sigma) < 1e-15
        assert abs(t.gamma - gamma) < 1e-15
        # quoted to 5 digits
        assert abs(t.mu - 0.56419) < 1e-5
        assert abs(t.sigma - 0.82565) < 1e-5
        assert abs(t.gamma - 0.13696) < 2e-5

    def test_gamma_sign_follows_alpha(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for params in random_params(rng, 20):
            gamma = moments_of_params(params).gamma
            if params.alpha == 0.0:
                assert gamma == 0.0
            else:
                assert math.copysign(1.0, gamma) == math.copysign(1.0, params.alpha)

    def test_symmetric_inversion(self):
        p = params_of_moments(MomentTriple(5.0, 3.0, 0.0))
        assert (p.xi, p.omega, p.alpha) == (5.0, 3.0, 0.0)

    def test_trial_row_inversion(self):
        p = params_of_moments(MomentTriple(78.225, 31.9657, 0.3504))
        assert abs(p.delta - 0.8557) < 1e-3
        assert abs(p.alpha - 1.6542) < 1e-3

    def test_trial_row_round_trip(self):
        t = MomentTriple(78.225, 31.9657, 0.3504)
        back = moments_of_params(params_of_moments(t))
        assert abs(back.mu - t.mu) <= 1e-10 * abs(t.mu)
        assert abs(back.sigma - t.sigma) <= 1e-10 * abs(t.sigma)
        assert abs(back.gamma - t.gamma) <= 1e-10 * abs(t.gamma)

    def test_round_trip_sweep(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(200):
            t = MomentTriple(
                mu=float(rng.uniform(-1e3, 1e3)),
                sigma=float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6)))),
                gamma=float(rng.uniform(-0.9, 0.9)),
            )
            back = moments_of_params(params_of_moments(t))
            assert abs(back.mu - t.mu) <= 1e-10 * max(abs(t.mu), t.sigma)
            assert abs(back.sigma - t.sigma) <= 1e-10 * t.sigma
            assert abs(back.gamma - t.gamma) <= 1e-10 * max(abs(t.gamma), 1e-6)

    def test_infeasible_raises_when_clamp_off(self):
        with pytest.raises(InfeasibleSkewness):
            params_of_moments(MomentTriple(0.0, 1.0, 0.999), clamp=False)
        with pytest.raises(InfeasibleSkewness):
            params_of_moments(MomentTriple(0.0, 1.0, -1.2827), clamp=False)

    def test_clamp_keeps_inversion_total(self):
        p = params_of_moments(MomentTriple(0.0, 1.0, 1.2827), clamp=True)
        assert math.isfinite(p.alpha) and p.alpha > 0.0
        back = moments_of_params(p)
        assert abs(back.gamma - CLAMP_LIMIT) < 1e-9

    def test_clamp_flag(self):
        assert clamp_skewness(0.5) == (0.5, False)
        value, flagged = clamp_skewness(-1.3)
        assert flagged and value == -CLAMP_LIMIT
        # boundary: the clamp threshold itself is clamped
        assert clamp_skewness(CLAMP_LIMIT)[1]

    def test_feasible_band_between_clamp_and_bound(self):
        gamma = 0.5 * (CLAMP_LIMIT + GAMMA_MAX)
        p = params_of_moments(MomentTriple(0.0, 1.0, gamma), clamp=False)
        assert math.isfinite(p.alpha)


class TestEstimators:
    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateSample):
            estimate_moments([4.2, 4.2, 4.2, 4.2])

    def test_too_small_sample(self):
        with pytest.raises(DegenerateSample):
            estimate_moments([1.0])

    def test_symmetric_three_points(self):
        t = estimate_moments([-1.0, 0.0, 1.0])
        assert t.mu == 0.0
        assert abs(t.sigma - math.sqrt(2.0 / 3.0)) < 1e-15
        assert abs(t.gamma) < 1e-15

    def test_hand_arithmetic_case(self):
        # (0, 0, 3): mean 1, population variance 2, skew 1/sqrt(2)
        t = estimate_moments([0.0, 0.0, 3.0])
        assert t.mu == 1.0
        assert abs(t.sigma - math.sqrt(2.0)) < 1e-15
        assert abs(t.gamma - 1.0 / math.sqrt(2.0)) < 1e-15

    def test_one_over_n_not_bessel(self):
        data = [1.0, 2.0, 3.0, 4.0]
        t = estimate_moments(data)
        arr = np.asarray(data)
        assert abs(t.sigma - arr.std(ddof=0)) < 1e-15
        assert t.sigma < arr.std(ddof=1)

    def test_estimate_params_symmetric(self):
        p = estimate_params([-1.0, 0.0, 1.0])
        assert p.alpha == 0.0
        assert abs(p.xi) < 1e-15

    def test_estimate_params_positive_skew(self):
        p = estimate_params([0.0, 0.0, 3.0])
        assert math.isfinite(p.alpha) and p.alpha > 0.0

    def test_estimator_consistency_on_big_sample(self):
        truth = SkewNormalParams(0.0, 1.0, 3.0)
        draws = sample(truth, 10 ** 6, seed=RNG_SEED)
        p_hat = estimate_params(draws)
        assert abs(p_hat.alpha - 3.0) < 0.25
        assert abs(p_hat.xi - truth.xi) < 0.02
        assert abs(p_hat.omega - truth.omega) < 0.02


class TestSampler:
    def test_deterministic(self):
        params = SkewNormalParams(1.0, 2.0, -1.0)
        a = sample(params, 1000, seed=5)
        b = sample(params, 1000, seed=5)
        assert np.array_equal(a, b)
        c = sample(params, 1000, seed=6)
        assert not np.array_equal(a, c)

    def test_alpha_zero_is_plain_normal(self):
        params = SkewNormalParams(3.0, 2.0, 0.0)
        draws = sample(params, 200000, seed=11)
        assert abs(draws.mean() - 3.0) < 4 * 2.0 / math.sqrt(200000)
        assert abs(draws.std() - 2.0) < 0.02
        t = estimate_moments(draws)
        assert abs(t.gamma) < 0.03
        # structural reduction: delta = 0 leaves exactly xi + omega * Z1
        rng = np.random.Generator(np.random.PCG64(11))
        rng.standard_normal(200000)  # the unused half-normal stream
        assert np.array_equal(draws, 3.0 + 2.0 * rng.standard_normal(200000))

    def test_unit_alpha_mean_bound(self):
        params = SkewNormalParams(0.0, 1.0, 1.0)
        truth = moments_of_params(params)
        draws = sample(params, 10 ** 6, seed=21)
        assert abs(draws.mean() - truth.mu) < 4 * truth.sigma / 1000.0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            sample(SkewNormalParams(0.0, 1.0, 0.0), 0, seed=1)

    def test_moment_match_small_sweep(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        n = 200000
        for params in random_params(rng, 5):
            truth = moments_of_params(params)
            draws = sample(params, n, seed=int(rng.integers(0, 2 ** 32)))
            assert abs(draws.mean() - truth.mu) < 5 * truth.sigma / math.sqrt(n)
            assert abs(draws.std() - truth.sigma) < 0.02 * truth.sigma
            got = estimate_moments(draws)
            assert abs(got.gamma - truth.gamma) < 0.05
