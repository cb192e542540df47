"""Adaptive Simpson integrator checks against closed forms."""

import math

import pytest

from skewdose.errors import DomainError
from skewdose.quadrature import integrate


def test_cubic_is_near_exact():
    # Simpson integrates cubics exactly up to rounding
    assert abs(integrate(lambda x: x ** 3 - 2 * x, 0.0, 2.0) - 0.0) < 1e-12


def test_sine_arch():
    assert abs(integrate(math.sin, 0.0, math.pi, tol=1e-12) - 2.0) < 1e-11


def test_gaussian_mass():
    f = lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    assert abs(integrate(f, -10.0, 10.0, tol=1e-12) - 1.0) < 1e-10


def test_reversed_limits_flip_sign():
    forward = integrate(math.exp, 0.0, 1.0)
    assert abs(integrate(math.exp, 1.0, 0.0) + forward) < 1e-14


def test_empty_interval():
    assert integrate(math.exp, 3.0, 3.0) == 0.0


def test_oscillatory_integrand():
    f = lambda x: math.exp(-x) * math.sin(3 * x)
    # antiderivative of e^-x sin(3x) is e^-x (-sin(3x) - 3 cos(3x)) / 10
    exact = (3.0 + math.exp(-5.0) * (-math.sin(15.0) - 3.0 * math.cos(15.0))) / 10.0
    got = integrate(f, 0.0, 5.0, tol=1e-11)
    assert abs(got - exact) < 1e-10


def test_nonfinite_limits_raise():
    for a, b in ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                 (-math.inf, 0.0)):
        with pytest.raises(DomainError):
            integrate(math.exp, a, b)


def test_nonfinite_integrand_raises():
    # a NaN panel estimate never meets the tolerance; refining it would
    # recurse toward 2^48 panels instead of failing
    with pytest.raises(DomainError):
        integrate(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(lambda x: 1.0 / x if x > 0.0 else math.inf, 0.0, 1.0)
