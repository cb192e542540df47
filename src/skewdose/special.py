"""Scalar error function.

The density of the asymmetric normal family is defined through erf, so its
accuracy is part of this package's contract: relative error <= 1e-13 over
the real line (checked in the test suite).  Both functions delegate to the
C library through :mod:`math`, which meets it.
"""

from __future__ import annotations

import math


def erf(x: float) -> float:
    """Error function erf(x) = (2/sqrt(pi)) * integral_0^x exp(-t^2) dt."""
    return math.erf(x)


def erfc(x: float) -> float:
    """Complementary error function 1 - erf(x), accurate in the far tail.

    Unlike ``1.0 - erf(x)``, this keeps full relative accuracy for large
    positive x (down to the underflow threshold near x = 27).
    """
    return math.erfc(x)
