"""Output verifiers, built on numpy and scipy rather than on skewdose.

Each ``verify_*`` returns ``None`` for a correct output or a short
failure code.  Tolerances are fixed from the arithmetic involved, never
from recorded program output, so a refactor that moves the last digit
of a result still passes.  They run after the timed loop.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

import truth

GRID_POINTS = 1024        # the documented grid of optimal_dose
OFFSET_CANDIDATES = 256   # the documented offset grid of fit_gaussian_type


def _close(a, b, rel, abs_tol=0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.abs(b) + abs_tol))


def _pairs(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if line)


# --- summarize -------------------------------------------------------------

def raw_moments(raw_path) -> list:
    """(dose, mean, sd, skew, n) per dose, 1/n moments, from the raw file."""
    data = np.loadtxt(raw_path, delimiter=",", skiprows=1, ndmin=2)
    out = []
    for dose in np.unique(data[:, 0]):
        v = data[data[:, 0] == dose, 1]
        out.append((float(dose), float(np.mean(v)), float(np.std(v)),
                    float(stats.skew(v, bias=True)), v.size))
    return out


def six_digits(printed: float, exact: float) -> bool:
    """printed is exact rounded to 6 significant digits (half a unit)."""
    if exact == 0.0:
        return printed == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(printed - exact) <= 0.5 * unit * (1 + 1e-9) + 1e-15 * abs(exact)


def verify_summary(text: str, moments: list) -> str | None:
    lines = text.splitlines()
    if lines[0] != "dose,mean,sd,skew,n" or len(lines) != len(moments) + 1:
        return "summary-shape"
    for line, (dose, mean, sd, skew, n) in zip(lines[1:], moments):
        fields = line.split(",")
        values = [float(f) for f in fields[:4]]
        if int(fields[4]) != n:
            return "summary-n"
        if not all(six_digits(p, e) for p, e in
                   zip(values, (dose, mean, sd, skew))):
            return "summary-value"
    return None


# --- fit -------------------------------------------------------------------

def _secant(x, y):
    """(theta, gamma, delta) of the steepest secant, first on ties."""
    slopes = np.diff(y) / np.diff(x)
    i = int(np.argmax(np.abs(slopes)))
    return 0.5 * (x[i] + x[i + 1]), 0.5 * (y[i] + y[i + 1]), slopes[i]


def _logistic_from_l1(x, y, l1, l2):
    """(m, p) by least squares on log(1/(y - l1) - 1/(l2 - l1))."""
    slope, intercept = np.polyfit(x, np.log(1 / (y - l1) - 1 / (l2 - l1)), 1)
    return slope, intercept


def _check_l1_regime(curve: dict, x, y, l1) -> bool:
    _, gamma_n, _ = _secant(x, y)
    l2 = 2.0 * gamma_n - l1
    m, p = _logistic_from_l1(x, y, l1, l2)
    return (curve["l1"] == l1 and _close(curve["l2"], l2, 1e-12)
            and _close([curve["m"], curve["p"]], [m, p], 1e-8, 1e-10))


def _check_none_regime(curve: dict, x, y) -> bool:
    theta, gamma_n, delta = _secant(x - x[0], y)
    l1, y1 = curve["l1"], y[0]
    if not l1 < y1:
        return False
    residual = ((gamma_n - y1) / (y1 - l1) + 0.5
                - 0.5 * math.exp(2 * theta * delta / (gamma_n - l1)))
    m = -2.0 * delta / (gamma_n - l1)
    p = math.log(1 / (y1 - l1) - 1 / (2 * (gamma_n - l1))) - m * x[0]
    return (abs(residual) <= 1e-7 and _close(curve["l2"], 2 * gamma_n - l1, 1e-12)
            and _close(curve["m"], m, 1e-9) and _close(curve["p"], p, 0, 1e-8))


def _quadratic_matches(curve: dict, x, v, offset) -> bool:
    """Gaussian-type curve equals numpy.polyfit on log(v - offset)."""
    coeffs = np.polyfit(x, np.log(v - offset), 2)
    fitted = -curve["m"] * x * x + curve["p"] * x + curve["q"]
    scale = 1.0 + np.max(np.abs(np.polyval(coeffs, x)))
    return curve["l"] == offset and _close(
        fitted, np.polyval(coeffs, x), 0, 1e-8 * scale)


def _grid_offset_ok(curve: dict, x, v) -> bool:
    """The offset is a grid candidate with the least feasible SSE."""
    lo_v, span = float(v.min()), float(v.max() - v.min())
    if span <= 0.0:
        span = max(1.0, abs(lo_v))
    candidates = np.linspace(lo_v - span, lo_v - 1e-6 * span,
                             OFFSET_CANDIDATES)
    if np.min(np.abs(candidates - curve["l"])) > 1e-9 * span:
        return False
    best = math.inf
    for cand in candidates:
        if np.any(v - cand <= 0.0):
            continue
        a, b, c = np.polyfit(x, np.log(v - cand), 2)
        if a < 0.0:
            sse = float(np.sum((cand + np.exp(a * x * x + b * x + c) - v) ** 2))
            best = min(best, sse)
    a, b, c = np.polyfit(x, np.log(v - curve["l"]), 2)
    mine = float(np.sum((curve["l"] + np.exp(a * x * x + b * x + c) - v) ** 2))
    return (a < 0.0 and mine <= best * (1 + 1e-6) + 1e-12
            and _quadratic_matches(curve, x, v, curve["l"]))


def sigma_family(sds) -> tuple:
    """(family, turning index) by the documented shape rule."""
    sds = np.asarray(sds)
    peak = int(np.flatnonzero(sds == sds.max())[-1])
    head = sds[:peak]
    if len(head) <= 1 or head.max() - head.min() <= 0.05 * abs(head.mean()):
        return "logistic", peak
    return "gaussian_type", peak


def verify_fit(model: truth.Model, table, regime: str, offset: str,
               l1=None, l2=None, truth_mp=None) -> str | None:
    x, means, sds, skews = (np.asarray(c, dtype=float) for c in table)
    if regime == "both":
        ok = (model.mu["l1"] == l1 and model.mu["l2"] == l2 and _close(
            [model.mu["m"], model.mu["p"]], truth_mp, 1e-3, 1e-3))
    elif regime == "l1":
        ok = _check_l1_regime(model.mu, x, means, l1)
    else:
        ok = _check_none_regime(model.mu, x, means)
    if not ok:
        return f"fit-mu-{regime}"
    family, peak = sigma_family(sds)
    if model.sigma_family != family or model.d0_hat != x[peak]:
        return "fit-sigma-family"
    if family == "gaussian_type":
        ok = _quadratic_matches(model.sigma, x, sds, 0.0)
    else:
        ok = _check_l1_regime(model.sigma, x, sds, 0.0)
    if not ok:
        return "fit-sigma"
    if offset == "zero":
        ok = _quadratic_matches(model.gamma, x, skews, 0.0)
    else:
        ok = _grid_offset_ok(model.gamma, x, skews)
    return None if ok else f"fit-gamma-{offset}"


# --- optimal ---------------------------------------------------------------

def _grid(lo: float, hi: float) -> np.ndarray:
    grid = lo + np.arange(GRID_POINTS) * ((hi - lo) / (GRID_POINTS - 1))
    grid[-1] = hi
    return grid


def _on_grid(value: float, grid) -> int | None:
    i = int(np.argmin(np.abs(grid - value)))
    return i if abs(grid[i] - value) <= 1e-12 * (1 + abs(grid[-1])) else None


def _normalize(v):
    span = v.max() - v.min()
    return np.zeros_like(v) if span == 0 else (v - v.min()) / span


def verify_optimal(text: str, model: truth.Model, interval,
                   weights) -> str | None:
    """The dose is on the grid and is the argmax of the weighted score."""
    out = _pairs(text)
    grid = _grid(*interval)
    mu, sd, ga = model.mean(grid), model.sd(grid), model.skew(grid)
    i = _on_grid(float(out["dose"]), grid)
    if i is None:
        return "optimal-off-grid"
    printed = [float(out[k]) for k in ("mean", "sd", "skewness",
                                       "sd_model_min", "sd_model_max")]
    if not _close(printed, [mu[i], sd[i], ga[i], sd.min(), sd.max()],
                  1e-9, 1e-12):
        return "optimal-values"
    score = (weights[0] * _normalize(mu) - weights[1] * _normalize(sd)
             + weights[2] * _normalize(ga))
    if (out["mode"] != "scalarized" or score[i] < score.max() - 1e-9
            or not _close(float(out["objective"]), score[i], 0, 1e-9)):
        return "optimal-not-argmax"
    return None


def _tolerance(v):
    return 1e-9 * (1.0 + np.abs(v))


def verify_thresholds(text: str, model: truth.Model, interval,
                      thresholds) -> str | None:
    """The dose is the smallest grid dose that meets the thresholds.

    A grid dose within rounding of a threshold may go either way.
    """
    out = _pairs(text)
    grid = _grid(*interval)
    mu, sd, ga = model.mean(grid), model.sd(grid), model.skew(grid)
    i = _on_grid(float(out["dose"]), grid)
    if i is None:
        return "thresholds-off-grid"
    printed = [float(out[k]) for k in ("mean", "sd", "skewness",
                                       "sd_model_min", "sd_model_max")]
    if not _close(printed, [mu[i], sd[i], ga[i], sd.min(), sd.max()],
                  1e-9, 1e-12):
        return "thresholds-values"
    mean_min, sd_max, skew_min = thresholds
    meets = ((mu >= mean_min - _tolerance(mu)) & (sd <= sd_max + _tolerance(sd))
             & (ga >= skew_min - _tolerance(ga)))
    clearly = ((mu > mean_min + _tolerance(mu)) & (sd < sd_max - _tolerance(sd))
               & (ga > skew_min + _tolerance(ga)))
    if out["mode"] != "admissible" or "objective" in out or not meets[i]:
        return "thresholds-not-met"
    if clearly[:i].any():
        return "thresholds-not-smallest"
    return None


# --- check -----------------------------------------------------------------

CHECK_HORIZON = 20.0      # the CLI's default --horizon
CHECK_EPS = 1e-3          # the CLI's default --eps
START_FRACTION = 0.05     # the documented leading share the peak may sit in


def verify_check(text: str, model: truth.Model) -> str | None:
    """Recompute the dispersion-shape report on its documented grid."""
    out = _pairs(text)
    d0 = model.d0_hat
    grid = d0 + np.arange(GRID_POINTS) * ((CHECK_HORIZON - d0)
                                         / (GRID_POINTS - 1))
    v = model.sd(grid)
    peak = int(np.argmax(v))
    start = peak if peak <= START_FRACTION * (GRID_POINTS - 1) else 0
    bad = np.flatnonzero((v[start + 1:] >= v[start:-1])
                         & ~((v[start + 1:] == 0.0) & (v[start:-1] == 0.0)))
    want = {"decreasing_ok": "false" if bad.size else "true",
            "vanishing_ok": "true" if v[-1] < CHECK_EPS else "false"}
    if any(out.get(k) != w for k, w in want.items()):
        return "check-flags"
    if ("first_violation" in out) != bool(bad.size):
        return "check-violation"
    numbers = [(out["sigma_at_horizon"], v[-1]),
               (out["start_dose"], grid[start])]
    if bad.size:
        numbers.append((out["first_violation"], grid[start + 1 + bad[0]]))
    if not all(_close(float(a), b, 1e-9, 1e-300) for a, b in numbers):
        return "check-values"
    return None


# --- plot ------------------------------------------------------------------

def verify_plot(text: str, model: truth.Model, curve: str, interval,
                steps: int) -> str | None:
    """x,y rows on the uniform grid, y the named curve of the model."""
    lines = text.splitlines()
    if lines[0] != "x,y" or len(lines) != steps + 1:
        return "plot-shape"
    xy = np.array([[float(f) for f in ln.split(",")] for ln in lines[1:]])
    lo, hi = interval
    xs = lo + np.arange(steps) * ((hi - lo) / (steps - 1))
    xs[-1] = hi
    ys = {"mu": model.mean, "sigma": model.sd, "gamma": model.skew}[curve](xs)
    if not _close(xy[:, 0], xs, 1e-12, 1e-15):
        return "plot-x"
    return None if _close(xy[:, 1], ys, 1e-9, 1e-300) else "plot-y"


# --- simulate ----------------------------------------------------------------

def verify_sample(path, model: truth.Model, dose: float,
                  n: int) -> str | None:
    """Header, n rows at the dose, and moments within sampling error."""
    with open(path, "rb") as fh:
        header = fh.readline()
        fh.seek(-1, 2)
        last = fh.read(1)
    if header != b"dose,value\n" or last != b"\n":
        return "sample-shape"
    cells = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if cells.shape != (n, 2):
        return "sample-shape"
    if np.any(cells[:, 0] != dose):
        return "sample-dose"
    v = cells[:, 1]
    mu, sd = float(model.mean(dose)), float(model.sd(dose))
    gamma = float(truth.clamp(model.skew(dose)))
    # 6 standard errors; the skew-normal excess kurtosis is below 0.87
    se_sd = sd * math.sqrt((2.0 + 0.87) / (4 * n))
    se_skew = math.sqrt(6.0 / n) * 2.0
    ok = (abs(v.mean() - mu) <= 6 * sd / math.sqrt(n)
          and abs(v.std() - sd) <= 6 * se_sd
          and abs(stats.skew(v) - gamma) <= 6 * se_skew)
    return None if ok else "sample-moments"


# --- law_query -------------------------------------------------------------

def verify_law(result: dict, law: dict, truth_mp) -> str | None:
    model = truth.Model(**result["model"])
    failure = verify_fit(model, law["table"], law["regime"], law["offset"],
                         law["l1"], law["l2"], truth_mp)
    if failure:
        return failure
    if result["ode_residual"] > 1e-6:
        return "law-ode"
    for q, r in zip(law["queries"], result["queries"]):
        d = q["dose"]
        moments = [model.mean(d), model.sd(d), model.skew(d)]
        if not _close([r["mean"], r["sd"], r["skewness"]], moments, 1e-9):
            return "law-moments"
        if r["clamped"] != (abs(moments[2]) >= truth.CLAMP_LIMIT):
            return "law-clamped"
        law_ = stats.skewnorm(r["alpha"], loc=r["xi"], scale=r["omega"])
        mean, var, skew = law_.stats(moments="mvs")
        if not _close([mean, math.sqrt(var), skew],
                      [moments[0], moments[1], truth.clamp(moments[2])],
                      1e-8, 1e-12):
            return "law-params"
        if not _close(r["pdf"], law_.pdf(q["x"]), 1e-9, 1e-300):
            return "law-pdf"
        cdf = np.asarray(r["cdf"])
        if not _close(cdf, law_.cdf(q["t"]), 0, 1e-8):
            return "law-cdf"
        if not np.array_equal(r["p_exceed"], 1.0 - cdf):
            return "law-p-exceed"
    return None
