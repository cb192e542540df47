"""Exception types shared across the package, and the input checks that
raise them.

Every error carries a stable ``code`` (the class name) so the command-line
front end can print ``ERROR <code>: <message>`` lines without string
matching on messages.
"""

from __future__ import annotations

import math
from typing import Sequence


class SkewDoseError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class DomainError(SkewDoseError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleSkewness(SkewDoseError):
    """Requested skewness exceeds what the skew-normal family can attain."""


class DegenerateSample(SkewDoseError):
    """Sample has fewer than two points or zero variance."""


class SingularDesign(SkewDoseError):
    """Regression design matrix is singular (e.g. all abscissae equal)."""


class TooFewPoints(SkewDoseError):
    """Not enough data points for the requested operation."""


class NonMonotoneAbscissae(SkewDoseError):
    """Abscissae must be strictly increasing."""


class NonMonotoneData(SkewDoseError):
    """Ordinates must be strictly monotone for this fitting regime."""


class NoBracket(SkewDoseError):
    """Root scan found no sign change on the search interval."""


class NonFinite(SkewDoseError):
    """Every scan point overflowed; no finite residual available."""


class NoFeasibleOffset(SkewDoseError):
    """Every candidate offset leaves some value at or below the offset."""


class NoDecreasingTail(SkewDoseError):
    """Dispersion estimates never decrease after their maximum."""


class NoAdmissibleDose(SkewDoseError):
    """No dose on the search grid satisfies the admissibility thresholds."""


class ParseError(SkewDoseError):
    """Malformed input row."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class NegativeDose(SkewDoseError):
    """Dose values must be nonnegative."""

    def __init__(self, line: int):
        super().__init__(f"line {line}: dose must be >= 0")
        self.line = line


class EmptyInput(SkewDoseError):
    """Input contains a header but no data rows."""


class DegenerateCohort(SkewDoseError):
    """A cohort has fewer than two observations or zero variance."""

    def __init__(self, dose: float):
        super().__init__(f"cohort at dose {dose:g} has n < 2 or zero variance")
        self.dose = dose


def require_finite(obj, *names: str) -> None:
    """Raise DomainError unless each named attribute of obj is finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def require_increasing(xs: Sequence[float]) -> None:
    """Raise NonMonotoneAbscissae unless xs is strictly increasing."""
    for i in range(len(xs) - 1):
        if not xs[i + 1] > xs[i]:
            raise NonMonotoneAbscissae(
                f"abscissae must be strictly increasing (violated at index {i + 1})")
