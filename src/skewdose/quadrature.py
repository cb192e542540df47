"""Adaptive Simpson integration.

Deterministic, dependency-free quadrature for the smooth integrands this
package needs (densities and logistic nonlinearities).  The interval is
split recursively until the classical Richardson estimate of the local
error drops below the allotted tolerance.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float,
             fb: float) -> tuple[float, float, float]:
    """One Simpson panel on [a, b]; returns (midpoint, f(midpoint), estimate)."""
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if not math.isfinite(delta):
        raise DomainError(
            f"integrand is not finite on the panel [{a!r}, {b!r}]")
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-10, max_depth: int = 48) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Handles reversed limits by sign; returns 0 for an empty interval.
    Raises :class:`~skewdose.errors.DomainError` for a non-finite limit or
    a non-finite panel estimate, which no amount of refinement can fix.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"limits must be finite, got [{a!r}, {b!r}]")
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return sign * _adaptive(f, a, fa, b, fb, m, fm, whole, tol, max_depth)
