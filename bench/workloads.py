"""Seeded inputs for the four benchmark workloads.

``make(workload, seed, workdir)`` writes every input file under
``workdir/inputs`` and returns the job list.  Nothing is generated while
the clock runs: the program receives only these files and argv (or, for
``law_query``, these arrays).  The same seed gives the same inputs.

Every job draws its own ground-truth law from the ranges in
``draw_truth``.  A draw the program fails on is kept and counts as a
failed job; nothing is filtered or redrawn.  Job sizes (and simulate
doses) follow fixed low-discrepancy sequences, so every prefix of the job
list -- a run completes as many jobs as fit in its time -- covers the
whole size range, and runs with different seeds carry the same amount
of work.

Workloads, and why each exists:

* ``trial_ingest`` -- raw ``dose,value`` trials, 6-8 doses with
  log-uniform 2e3-2e4 observations per dose.  Job: ``summarize``, ``fit``
  on the raw file (which parses it again), ``optimal --weights``.  One
  job in eight carries one defect at a random data row (non-numeric
  field, negative dose or wrong field count) and must exit 1 with the
  exact ``ERROR <code>: line N: ...`` line.  Items: input rows.  The
  parse and the per-dose estimators dominate: this is where a faster
  ``trial_io`` parse shows, and the defects show whether it keeps the
  line-number contract.
* ``simulate_emit`` -- ``simulate --dose d --n N`` on a model document,
  d spread over the trial's dose range, N log-uniform in 1e4-2e5.
  Items: draws written.  The write side of ``trial_io`` plus the
  sampler; a parse-only change should leave it unchanged.
* ``summary_fit`` -- published-summary trials (``dose,mean,sd,skew``,
  4-8 doses, true curve values rounded to 4 decimals, as in the paper's
  table), cycling over regimes none/l1/both (with the true asymptotes
  where a regime needs them), both dispersion families and both skewness
  offsets.  Job: ``fit``, ``optimal --weights``, ``optimal --thresholds``,
  ``check`` and ``plot --format csv``.  Items: trials.  The paper's own
  use case: a few hundred bytes of I/O, so the time goes to the offset
  grid and the l1 scan of ``fitting``, the 1024-point grids of
  ``dose_effect``, ``logistic``, ``model_doc`` and ``cli``.
* ``law_query`` -- the library without the CLI: fit a published-summary
  trial (``dose,mean,sd,skew``, 4-8 doses, true curve values rounded to
  4 decimals, as in the paper's table), cycling over regimes
  none/l1/both, both dispersion families and both skewness offsets; then
  ``params_at`` at four doses, ``skew_normal.pdf`` on an x grid and
  ``skew_normal.cdf`` at three responder thresholds at each, and one
  ``logistic.ode_residual``.  Items: cdf evaluations.  The only path
  through ``special`` and ``quadrature``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import truth

WORKLOADS = ("trial_ingest", "simulate_emit", "law_query", "summary_fit")

# distinct jobs generated per run; a run that finishes them starts over
DISTINCT = {"trial_ingest": 24, "simulate_emit": 32, "summary_fit": 60,
            "law_query": 60}
# jobs in one pass of a traced run (a fixed prefix, so counts repeat)
TRACE_JOBS = {"trial_ingest": 8, "simulate_emit": 8, "summary_fit": 12,
              "law_query": 6}

ROWS_PER_DOSE = (2e3, 2e4)
SIM_DRAWS = (1e4, 2e5)
DEFECT_EVERY = 8
# a reduced size for the self-test only
TINY_ROWS_PER_DOSE = (1000, 2000)
TINY_SIM_DRAWS = (500, 2000)

# law_query trial configurations, cycled job by job
CONFIGS = [(regime, family, offset)
           for regime in ("none", "l1", "both")
           for family in ("gaussian_type", "logistic")
           for offset in ("grid", "zero")]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PLASTIC = 1.324717957244746  # R2 sequence constant for 2-D spreads
_BAD_TOKENS = ("NA", "abc", "1.2.3", "--", "")


def _spread(count: int, step: float = _GOLDEN) -> np.ndarray:
    """frac(1/2 + k*step): well spread over [0, 1) in every prefix.

    The sequence does not depend on the seed: every run sees the same
    sequence of sizes, so runs differ in their laws, values and defects,
    not in how much work their jobs carry.
    """
    return (0.5 + step * np.arange(count)) % 1.0


def _loguniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** u


def draw_truth(rng, n_doses: int, family: str, gamma_floor: tuple):
    """Dose design and ground-truth law of one trial.

    * doses: 0 and n-1 equal steps up to dmax ~ U(2, 8), 4 decimals
    * mean: increasing logistic, l1 ~ U(10, 40), l2 - l1 ~ U(40, 120),
      inflection ~ U(0.35, 0.65) dmax, slope m = -U(1.5, 3)/dmax
    * dispersion, ``gaussian_type``: peak ~ U(0.05, 0.15)(l2 - l1) at a
      dose with at least two doses before it and one after, falling by a
      log-factor U(1.5, 3) over the longer side of the range;
      ``logistic``: decreasing, l1 = 0, l2 ~ U(0.05, 0.15)(l2 - l1),
      inflection ~ U(0.35, 0.65) dmax, m = U(1.5, 3)/dmax
    * skewness: l ~ U(gamma_floor) plus a bump of height U(0.3, 0.7) at
      U(0.3, 0.7) dmax, falling by a log-factor U(1, 3)
    """
    u = rng.uniform
    dmax = u(2.0, 8.0)
    doses = np.round(dmax * np.arange(n_doses) / (n_doses - 1), 4)
    dmax = float(doses[-1])
    h = float(doses[1])

    l1, width = u(10.0, 40.0), u(40.0, 120.0)
    m = -u(1.5, 3.0) / dmax
    mu = {"m": m, "p": -m * u(0.35, 0.65) * dmax - math.log(width),
          "l1": l1, "l2": l1 + width}

    peak = u(0.05, 0.15) * width
    if family == "gaussian_type":
        kp = int(rng.integers(2, n_doses - 1))
        lo_off = 0.0 if kp == 2 else -0.25
        hi_off = 0.0 if kp == n_doses - 2 else 0.25
        dstar = doses[kp] + u(lo_off, hi_off) * h
        a = u(1.5, 3.0) / max(dstar, dmax - dstar) ** 2
        sigma = {"l": 0.0, "m": a, "p": 2.0 * a * dstar,
                 "q": math.log(peak) - a * dstar * dstar}
    else:
        ms = u(1.5, 3.0) / dmax
        sigma = {"m": ms, "p": -ms * u(0.35, 0.65) * dmax - math.log(peak),
                 "l1": 0.0, "l2": peak}

    dg = u(0.3, 0.7) * dmax
    b = u(1.0, 3.0) / max(dg, dmax - dg) ** 2
    gamma = {"l": u(*gamma_floor), "m": b, "p": 2.0 * b * dg,
             "q": math.log(u(0.3, 0.7)) - b * dg * dg}

    model = truth.Model(mu=mu, sigma_family=family, sigma=sigma, gamma=gamma,
                        d0_hat=0.0)
    sds = model.sd(doses)
    model.d0_hat = float(doses[np.flatnonzero(sds == sds.max())[-1]])
    return doses, model


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _trial_ingest(rng, workdir: Path, count: int, tiny: bool) -> list:
    rows_range = TINY_ROWS_PER_DOSE if tiny else ROWS_PER_DOSE
    # consecutive cohorts take consecutive points of the spread sequence,
    # so each job mixes small and large cohorts and job sizes stay close
    n_doses = 6 + np.arange(count) % 3
    sizes = np.round(_loguniform(_spread(int(n_doses.sum())), *rows_range))
    starts = np.concatenate([[0], np.cumsum(n_doses)])
    defect_phase = int(rng.integers(DEFECT_EVERY))
    kind_phase = int(rng.integers(3))
    jobs = []
    for j in range(count):
        doses, model = draw_truth(rng, int(n_doses[j]), "gaussian_type",
                                  (-0.2, 0.2))
        per_dose = sizes[starts[j]:starts[j + 1]].astype(int)
        dose_col = np.repeat(np.arange(len(doses)), per_dose)
        values = np.concatenate([
            truth.draw(rng, float(model.mean(d)), float(model.sd(d)),
                       float(model.skew(d)), int(n))
            for d, n in zip(doses, per_dose)])
        order = rng.permutation(values.size)
        dose_text = [_fmt(d) for d in doses]
        lines = [f"{dose_text[k]},{v:.4f}"
                 for k, v in zip(dose_col[order].tolist(),
                                 values[order].tolist())]

        raw = f"inputs/raw_{j}.csv"
        weights = [round(float(x), 3) for x in rng.uniform(0.0, 1.0, size=3)]
        defect = None
        if j % DEFECT_EVERY == defect_phase:
            row = int(rng.integers(len(lines)))
            line_no = row + 2  # the header is line 1
            kind = ((j // DEFECT_EVERY) + kind_phase) % 3
            dose_s, value_s = lines[row].split(",")
            if kind == 0:
                column = "dose" if rng.random() < 0.5 else "value"
                token = _BAD_TOKENS[int(rng.integers(len(_BAD_TOKENS)))]
                lines[row] = (f"{token},{value_s}" if column == "dose"
                              else f"{dose_s},{token}")
                expect = (f"ERROR ParseError: line {line_no}: {column} field "
                          f"{token!r} is not a number")
            elif kind == 1:
                lines[row] = f"-{dose_s},{value_s}" if dose_s != _fmt(0.0) \
                    else f"-1.5000,{value_s}"
                expect = f"ERROR NegativeDose: line {line_no}: dose must be >= 0"
            else:
                fields = 3 if rng.random() < 0.5 else 1
                lines[row] = (f"{dose_s},{value_s},{value_s}" if fields == 3
                              else dose_s)
                expect = (f"ERROR ParseError: line {line_no}: expected 2 "
                          f"fields, got {fields}")
            defect = {"line": line_no, "expect": expect}
        (workdir / raw).write_text("dose,value\n" + "\n".join(lines)
                                         + "\n")

        steps = [
            {"argv": ["summarize", "--input", raw,
                      "--output", "{out}/summary.csv"]},
            {"argv": ["fit", "--input", raw, "--output", "{out}/model.txt"]},
        ]
        if defect:
            for step in steps:
                step["expect"] = defect["expect"]
        else:
            steps.append({"argv": [
                "optimal", "--input", "{out}/model.txt", "--interval", "0",
                repr(float(doses[-1])), "--weights", *map(repr, weights),
                "--output", "{out}/optimal.txt"]})
        # a defect job reads the rows up to its defect, twice
        items = defect["line"] - 1 if defect else len(lines)
        jobs.append({"job": j, "items": items, "steps": steps,
                     "meta": {"raw": raw, "defect": defect,
                              "interval": [0.0, float(doses[-1])],
                              "weights": weights}})
    return jobs


def _simulate_emit(rng, workdir: Path, count: int, tiny: bool) -> list:
    draws_range = TINY_SIM_DRAWS if tiny else SIM_DRAWS
    size_u = _spread(count, 1.0 / _PLASTIC)
    dose_u = _spread(count, 1.0 / _PLASTIC ** 2)
    jobs = []
    for j in range(count):
        family = ("gaussian_type", "logistic")[j % 2]
        doses, model = draw_truth(rng, int(rng.integers(4, 9)), family,
                                  (-0.2, 0.2))
        path = f"inputs/model_{j}.txt"
        (workdir / path).write_text(model.to_doc())
        n = int(round(_loguniform(size_u[j], *draws_range)))
        dose = round(float(dose_u[j] * doses[-1]), 6)
        seed = int(rng.integers(2 ** 31))
        argv = ["simulate", "--input", path, "--dose", repr(dose),
                "--n", str(n), "--seed", str(seed),
                "--output", "{out}/sample.csv"]
        jobs.append({"job": j, "items": n, "steps": [{"argv": argv}],
                     "meta": {"model": model.to_doc(), "dose": dose, "n": n}})
    return jobs


def _summary_trial(rng, j: int, phase: int):
    """Job j cycles through the configurations, then through 4-8 doses.

    The table holds the true curve values rounded to 4 decimals, as a
    published summary prints them.
    """
    regime, family, offset = CONFIGS[(j + phase) % len(CONFIGS)]
    floor = (0.02, 0.2) if offset == "zero" else (-0.2, 0.2)
    n_doses = 4 + (j // len(CONFIGS)) % 5
    doses, model = draw_truth(rng, n_doses, family, floor)
    cols = [doses, model.mean(doses), model.sd(doses), model.skew(doses)]
    table = [[float(_fmt(v)) for v in col] for col in cols]
    return regime, offset, doses, model, table


PLOT_CURVES = ("mu", "sigma", "gamma")
PLOT_STEPS = 101


def _summary_fit(rng, workdir: Path, count: int, tiny: bool) -> list:
    """The CLI chain on published-summary tables.

    The ``--thresholds`` of a job hold at a dose d* ~ U(0.3, 0.9) dmax of
    the true model with wide margins (mean 15% of the curve's range
    lower, sd 50% higher, skewness 0.5 lower), so the fitted model admits
    a dose; the answer is the smallest grid dose that meets them.
    """
    phase = int(rng.integers(len(CONFIGS)))
    jobs = []
    for j in range(count):
        regime, offset, doses, model, table = _summary_trial(rng, j, phase)
        path = f"inputs/summary_{j}.csv"
        (workdir / path).write_text("dose,mean,sd,skew\n" + "".join(
            ",".join(_fmt(v) for v in row) + "\n" for row in zip(*table)))
        l1 = model.mu["l1"] if regime != "none" else None
        l2 = model.mu["l2"] if regime == "both" else None
        fit = ["fit", "--input", path, "--regime", regime, "--offset", offset]
        if l1 is not None:
            fit += ["--l1", repr(l1)]
        if l2 is not None:
            fit += ["--l2", repr(l2)]
        interval = [0.0, float(doses[-1])]
        weights = [round(float(x), 3) for x in rng.uniform(0.0, 1.0, size=3)]
        d_star = float(rng.uniform(0.3, 0.9)) * interval[1]
        width = model.mu["l2"] - model.mu["l1"]
        thresholds = [round(float(model.mean(d_star)) - 0.15 * width, 6),
                      round(1.5 * float(model.sd(d_star)), 6),
                      round(float(model.skew(d_star)) - 0.5, 6)]
        curve = PLOT_CURVES[j % len(PLOT_CURVES)]
        on_model = ["--input", "{out}/model.txt"]
        span = ["--interval", *map(repr, interval)]
        steps = [
            {"argv": fit + ["--output", "{out}/model.txt"]},
            {"argv": ["optimal", *on_model, *span, "--weights",
                      *map(repr, weights), "--output", "{out}/weights.txt"]},
            # fixed-point text: argparse reads "-6.5e-05" as an option
            {"argv": ["optimal", *on_model, *span, "--thresholds",
                      *(f"{t:.6f}" for t in thresholds),
                      "--output", "{out}/thresholds.txt"]},
            {"argv": ["check", *on_model, "--output", "{out}/check.txt"]},
            {"argv": ["plot", *on_model, "--curve", curve, *span,
                      "--steps", str(PLOT_STEPS), "--format", "csv",
                      "--output", "{out}/plot.csv"]},
        ]
        jobs.append({"job": j, "items": 1, "steps": steps, "meta": {
            "table": table, "regime": regime, "offset": offset, "l1": l1,
            "l2": l2, "truth_mp": [model.mu["m"], model.mu["p"]],
            "interval": interval, "weights": weights,
            "thresholds": thresholds, "curve": curve,
            "plot_steps": PLOT_STEPS}})
    return jobs


LAW_DOSE_FRACTIONS = (0.125, 0.375, 0.625, 0.875)
LAW_PDF_POINTS = 33
LAW_THRESHOLDS_SD = (-1.0, 0.0, 1.0)


def _law_query(rng, workdir: Path, count: int, tiny: bool) -> list:
    phase = int(rng.integers(len(CONFIGS)))
    jobs = []
    for j in range(count):
        regime, offset, doses, model, table = _summary_trial(rng, j, phase)
        queries = []
        for frac in LAW_DOSE_FRACTIONS:
            d = round(frac * float(doses[-1]), 6)
            mean, sd = float(model.mean(d)), float(model.sd(d))
            queries.append({
                "dose": d,
                "x": np.linspace(mean - 4 * sd, mean + 4 * sd,
                                 LAW_PDF_POINTS).round(6).tolist(),
                "t": [round(mean + k * sd, 6) for k in LAW_THRESHOLDS_SD]})
        law = {"table": table, "regime": regime, "offset": offset,
               "l1": model.mu["l1"] if regime != "none" else None,
               "l2": model.mu["l2"] if regime == "both" else None,
               "queries": queries, "ode_x": float(doses[-1])}
        jobs.append({"job": j, "items": len(queries) * len(LAW_THRESHOLDS_SD),
                     "law": law, "meta": {"truth_mp": [model.mu["m"],
                                                       model.mu["p"]]}})
    return jobs


_MAKERS = {"trial_ingest": _trial_ingest, "simulate_emit": _simulate_emit,
           "summary_fit": _summary_fit, "law_query": _law_query}


def make(workload: str, seed: int, workdir: Path, tiny: bool = False,
         count: int | None = None) -> list:
    """Write the inputs of one run and return its jobs, in run order."""
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return _MAKERS[workload](rng, workdir, count or DISTINCT[workload], tiny)
