"""Dataset ingestion, per-dose summaries and text/SVG emission.

Two CSV shapes are understood:

* raw long format, header ``dose,value``, one observation per row --
  unequal cohort sizes are fine, doses are compared exactly (a dose is a
  design choice, not a measurement, so no epsilon merging);
* summary format, header ``dose,mean,sd,skew[,n]`` -- for trials where
  only per-dose statistics are available.

Raw observations round-trip exactly: the long-format emitter prints 17
significant digits, which is lossless for binary doubles.  Summary
emission uses 6 significant digits.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import skew_normal
from .errors import (
    DegenerateCohort,
    DegenerateSample,
    DomainError,
    EmptyInput,
    NegativeDose,
    ParseError,
)
from .fitting import _uniform_grid

_RAW_HEADER = "dose,value"
_SUMMARY_FIELDS = ("dose", "mean", "sd", "skew")


@dataclass(frozen=True)
class DoseCohort:
    """All effect observations collected at one dose."""

    dose: float
    observations: tuple[float, ...]

    def __post_init__(self):
        if not math.isfinite(self.dose) or self.dose < 0.0:
            raise DomainError(f"dose must be finite and >= 0, got {self.dose!r}")
        if len(self.observations) == 0:
            raise DomainError("a cohort needs at least one observation")


@dataclass(frozen=True)
class SummaryRow:
    """Per-dose mean, standard deviation and skewness (1/n normalized)."""

    dose: float
    mean_hat: float
    sd_hat: float
    skew_hat: float
    n: int


def _decode(data: "str | bytes") -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(line, f"input is not UTF-8 (byte {exc.start})") \
                from None
    return data


def _parse_number(text: str, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(line_no, f"{column} field {text!r} is not a number") \
            from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"{column} field {text!r} is not finite")
    return value


def _data_lines(text: str, expected_header: str) -> list[tuple[int, str]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() == "":
        raise ParseError(1, f"expected header {expected_header!r}")
    if lines[0].strip() != expected_header:
        raise ParseError(1, f"expected header {expected_header!r}, "
                            f"got {lines[0].strip()!r}")
    rows = [(i + 1, line) for i, line in enumerate(lines)
            if i > 0 and line.strip() != ""]
    if not rows:
        raise EmptyInput("no data rows after the header")
    return rows


def parse_csv(data: "str | bytes") -> list[DoseCohort]:
    """Parse raw long-format observations into cohorts, sorted by dose.

    Within a cohort the observations keep their file order; doses that
    compare equal share one cohort, whose dose is the first one seen.
    Well-formed input is parsed by numpy in one pass.  Anything else goes
    to the row-wise parser, which alone decides the result, and every
    error line and message.
    """
    text = _decode(data)
    body = text[len(_RAW_HEADER) + 1:]
    # numpy's parser strips the same whitespace as float() and converts
    # with the same routine, but it takes no "_" separators and no
    # non-ASCII digits, and it breaks lines at fewer characters than
    # str.splitlines().  So ASCII text whose only line break is "\n"
    # parses the same way; any other text goes row by row, and so does a
    # blank body, which loadtxt would warn about on stderr.
    if (not text.startswith(_RAW_HEADER + "\n") or not body.isascii()
            or not body or body.isspace()
            or any(c in body for c in "\r\v\f\x1c\x1d\x1e")):
        return _parse_csv_rows(text)
    import numpy as np  # raw input goes on to estimate_moments, which loads it

    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None,
                           ndmin=2)
    except ValueError:
        return _parse_csv_rows(text)
    if (table.shape[1] != 2 or not np.isfinite(table).all()
            or not (table[:, 0] >= 0.0).all()):
        return _parse_csv_rows(text)
    order = np.argsort(table[:, 0], kind="stable")  # keeps file order
    doses = table[order, 0]
    values = table[order, 1].tolist()
    cuts = (np.flatnonzero(doses[1:] != doses[:-1]) + 1).tolist()
    return [DoseCohort(dose=float(doses[lo]), observations=tuple(values[lo:hi]))
            for lo, hi in zip([0] + cuts, cuts + [len(values)])]


def _parse_csv_rows(text: str) -> list[DoseCohort]:
    """Row-wise reference parse of :func:`parse_csv`; the errors come from here."""
    by_dose: dict[float, list[float]] = {}
    for line_no, line in _data_lines(text, _RAW_HEADER):
        fields = line.strip().split(",")
        if len(fields) != 2:
            raise ParseError(line_no, f"expected 2 fields, got {len(fields)}")
        dose = _parse_number(fields[0], line_no, "dose")
        if dose < 0.0:
            raise NegativeDose(line_no)
        value = _parse_number(fields[1], line_no, "value")
        by_dose.setdefault(dose, []).append(value)
    return [DoseCohort(dose=d, observations=tuple(by_dose[d]))
            for d in sorted(by_dose)]


def parse_summary_csv(data: "str | bytes") -> list[SummaryRow]:
    """Parse per-dose summary rows (header dose,mean,sd,skew[,n])."""
    text = _decode(data)
    lines = text.splitlines()
    header = lines[0].strip() if lines else ""
    with_n = header == ",".join(_SUMMARY_FIELDS + ("n",))
    expected = header if with_n else ",".join(_SUMMARY_FIELDS)
    rows = []
    for line_no, line in _data_lines(text, expected):
        fields = line.strip().split(",")
        want = 5 if with_n else 4
        if len(fields) != want:
            raise ParseError(line_no, f"expected {want} fields, got {len(fields)}")
        dose = _parse_number(fields[0], line_no, "dose")
        if dose < 0.0:
            raise NegativeDose(line_no)
        mean = _parse_number(fields[1], line_no, "mean")
        sd = _parse_number(fields[2], line_no, "sd")
        skew = _parse_number(fields[3], line_no, "skew")
        if sd <= 0.0:
            raise ParseError(line_no, f"sd must be > 0, got {sd!r}")
        n = 0
        if with_n:
            try:
                n = int(fields[4])
            except ValueError:
                raise ParseError(line_no, f"n field {fields[4]!r} is not an "
                                          "integer") from None
        rows.append(SummaryRow(dose=dose, mean_hat=mean, sd_hat=sd,
                               skew_hat=skew, n=n))
    rows.sort(key=lambda r: r.dose)
    return rows


def summarize(cohorts: Sequence[DoseCohort]) -> list[SummaryRow]:
    """Per-dose plug-in mean, sd and skewness (1/n normalization)."""
    rows = []
    for cohort in cohorts:
        try:
            moments = skew_normal.estimate_moments(cohort.observations)
        except DegenerateSample as exc:
            raise DegenerateCohort(cohort.dose) from exc
        rows.append(SummaryRow(dose=cohort.dose, mean_hat=moments.mu,
                               sd_hat=moments.sigma, skew_hat=moments.gamma,
                               n=len(cohort.observations)))
    return rows


def emit_observations(cohorts: Sequence[DoseCohort]) -> str:
    """Long-format CSV at 17 significant digits (lossless round trip)."""
    lines = [_RAW_HEADER]
    for cohort in cohorts:
        for value in cohort.observations:
            lines.append(f"{cohort.dose:.17g},{value:.17g}")
    return "\n".join(lines) + "\n"


def emit_summary(rows: Sequence[SummaryRow]) -> str:
    """Summary CSV at 6 significant digits."""
    lines = ["dose,mean,sd,skew,n"]
    for row in rows:
        lines.append(f"{row.dose:.6g},{row.mean_hat:.6g},{row.sd_hat:.6g},"
                     f"{row.skew_hat:.6g},{row.n}")
    return "\n".join(lines) + "\n"


def _curve_grid(interval: tuple[float, float], steps: int) -> list[float]:
    lo, hi = interval
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    grid = _uniform_grid(lo, hi, max(steps, 2))  # checks the endpoints
    return grid if steps > 1 else [0.5 * lo + 0.5 * hi]  # lo + hi may overflow


def emit_curve_points(curve: Callable[[float], float],
                      interval: tuple[float, float], steps: int) -> str:
    """Uniform-grid curve samples as x,y CSV (midpoint only for steps=1)."""
    lines = ["x,y"]
    for x in _curve_grid(interval, steps):
        lines.append(f"{x:.17g},{curve(x):.17g}")
    return "\n".join(lines) + "\n"


# fixed SVG geometry
_SVG_W, _SVG_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 65, 20, 20, 45
_TICKS = 5


def emit_curve_svg(curve: Callable[[float], float],
                   interval: tuple[float, float], steps: int) -> str:
    """Static SVG polyline of the curve: 800x500, linear axes, ticks."""
    if interval[0] == interval[1]:
        raise DomainError(f"an SVG plot needs lo != hi, got {interval!r}")
    xs = _curve_grid(interval, max(steps, 2))
    ys = [curve(x) for x in xs]
    x_lo, x_hi = xs[0], xs[-1]
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B
    # an axis wider than the largest float is measured in half-doses
    # (halving is exact); any other axis keeps scale 1 and its digits
    x_scale = 1.0 if math.isfinite(x_hi - x_lo) else 0.5
    x_start = x_lo * x_scale
    x_span = x_hi * x_scale - x_start

    def px(x: float) -> float:
        return _MARGIN_L + (x * x_scale - x_start) / x_span * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" '
        f'x2="{_MARGIN_L}" y2="{_MARGIN_T + plot_h}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        tx = (x_start + frac * x_span) / x_scale
        ty = y_lo + frac * (y_hi - y_lo)
        x_pix = px(tx)
        y_pix = py(ty)
        parts.append(f'<line x1="{x_pix:.2f}" y1="{_MARGIN_T + plot_h}" '
                     f'x2="{x_pix:.2f}" y2="{_MARGIN_T + plot_h + 5}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x_pix:.2f}" y="{_MARGIN_T + plot_h + 20}" '
                     f'font-size="12" text-anchor="middle">{tx:.4g}</text>')
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{y_pix:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{y_pix:.2f}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y_pix + 4:.2f}" '
                     f'font-size="12" text-anchor="end">{ty:.4g}</text>')
    parts.append(f'<polyline fill="none" stroke="#1f77b4" stroke-width="2" '
                 f'points="{points}"/>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
