"""Closed-loop job runner: one client, one thread, one job at a time.

Run by ``run.py`` in a fresh interpreter per workload, so the peak
resident memory it reports belongs to that workload alone:

    python3 bench/worker.py WORKDIR

WORKDIR holds ``config.json`` and ``jobs.json`` (written by run.py);
the worker writes ``result.json`` there.  CLI jobs call
``skewdose.cli.main(argv)`` in-process; ``law_query`` jobs call the
library.  Each job starts when the previous one has finished.  Only the
job itself is timed: checking the CLI contract, keeping the first output
of each distinct job and comparing repeats to it happen between jobs.
"""

from __future__ import annotations

import collections
import contextlib
import filecmp
import io
import json
import os
import re
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed

_ERROR_LINE = re.compile(r"^ERROR \w+: ")


def check_step(code, stderr: str, expect: str | None) -> str | None:
    """The CLI contract for one call; returns a failure code or None.

    Exit code in {0, 1, 2}, no traceback, exactly one ``ERROR <code>:``
    line on failure, and the exact expected line where one is expected.
    """
    if code not in (0, 1, 2):
        return f"exit-{code}"
    if "Traceback" in stderr:
        return "traceback"
    errors = [ln for ln in stderr.splitlines() if _ERROR_LINE.match(ln)]
    if code == 0:
        if expect is not None:
            return "accepted-defect"
        return "error-line-on-success" if errors else None
    if code == 2:
        return "usage"
    if len(errors) != 1:
        return "error-lines"
    if expect is None:
        return errors[0].split(":", 1)[0].split(" ", 1)[1]
    return None if errors[0] == expect else "wrong-error-line"


def run_cli_steps(cli, steps, out: str) -> list:
    """Run a job's CLI chain; stop after a call that did not go as expected.

    Returns one ``(exit code, stderr)`` per call made.  An exception
    escaping ``main`` is what a user would see as a traceback.
    """
    done = []
    for step in steps:
        argv = [a.replace("{out}", out) for a in step["argv"]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 -- the contract forbids it
                code = None
                err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
        done.append((code, err.getvalue()))
        if code != (1 if step.get("expect") else 0):
            break
    return done


def run_law_job(sd, law: dict) -> dict:
    """Fit a summary trial and query its per-dose laws through the library."""
    fitting, dose_effect = sd.fitting, sd.dose_effect
    skew_normal, logistic = sd.skew_normal, sd.logistic
    doses, means, sds, skews = law["table"]
    mu, _ = fitting.fit_logistic(doses, means, regime=law["regime"],
                                 l1=law["l1"], l2=law["l2"])
    family, d0_hat = dose_effect.classify_sigma_shape(doses, sds)
    if family == "gaussian_type":
        sigma = fitting.fit_gaussian_type(doses, sds, offset=0.0)
    else:
        sigma, _ = fitting.fit_logistic(doses, sds, regime="l1", l1=0.0)
    gamma = fitting.fit_gaussian_type(
        doses, skews, offset="grid" if law["offset"] == "grid" else 0.0)
    model = dose_effect.DoseEffectModel(mu_curve=mu, sigma_curve=sigma,
                                        gamma_curve=gamma, d0_hat=d0_hat)
    queries = []
    for q in law["queries"]:
        report = dose_effect.params_at(model, q["dose"])
        law_params = report.skew_params
        cdf = [skew_normal.cdf(law_params, t) for t in q["t"]]
        queries.append({
            "mean": report.mean, "sd": report.sd, "skewness": report.skewness,
            "clamped": report.clamped, "xi": law_params.xi,
            "omega": law_params.omega, "alpha": law_params.alpha,
            "pdf": [skew_normal.pdf(law_params, x) for x in q["x"]],
            "cdf": cdf, "p_exceed": [1.0 - c for c in cdf]})
    return {"model": _model_fields(model), "queries": queries,
            "ode_residual": logistic.ode_residual(mu, law["ode_x"])}


def _model_fields(model) -> dict:
    family = "gaussian_type" if hasattr(model.sigma_curve, "q") else "logistic"
    return {"mu": vars(model.mu_curve), "sigma_family": family,
            "sigma": vars(model.sigma_curve), "gamma": vars(model.gamma_curve),
            "d0_hat": model.d0_hat}


class Runner:
    """Runs jobs, times them and keeps what the verifiers need."""

    def __init__(self, sd, jobs: list):
        self.sd = sd
        self.jobs = jobs
        self.first_law = {}

    def execute(self, job: dict, out: str):
        """Run one job; returns (latency in ns, failure code or None)."""
        if "law" in job:
            t0 = time.perf_counter_ns()
            try:
                result = run_law_job(self.sd, job["law"])
                failure = None
            except self.sd.SkewDoseError as exc:
                result, failure = None, exc.code
            except Exception as exc:  # noqa: BLE001 -- reported, not raised
                result, failure = None, f"traceback:{type(exc).__name__}"
            latency = time.perf_counter_ns() - t0
            if result is not None:
                text = json.dumps(result)
                first = self.first_law.setdefault(job["job"], text)
                if first != text:
                    failure = "nondeterministic"
            return latency, failure
        os.makedirs(out, exist_ok=True)
        t0 = time.perf_counter_ns()
        done = run_cli_steps(self.sd.cli, job["steps"], out)
        latency = time.perf_counter_ns() - t0
        failure = None
        for (code, stderr), step in zip(done, job["steps"]):
            failure = failure or check_step(code, stderr, step.get("expect"))
        if failure is None and len(done) < len(job["steps"]):
            failure = "chain-stopped"
        return latency, failure

    def keep_or_compare(self, job: dict, out: str, keep: str) -> str | None:
        """Keep the first output of a distinct job; compare later ones.

        ``law_query`` results are compared in ``execute`` and saved by
        ``save_law_results``.
        """
        if "law" in job:
            return None
        if not os.path.isdir(keep):
            os.makedirs(os.path.dirname(keep), exist_ok=True)
            os.replace(out, keep)
            return None
        same = _same_tree(out, keep)
        shutil.rmtree(out)
        return None if same else "nondeterministic"

    def save_law_results(self) -> None:
        for job, text in self.first_law.items():
            Path(f"first/{job}").mkdir(parents=True, exist_ok=True)
            Path(f"first/{job}/law.json").write_text(text)


def _same_tree(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    return all(filecmp.cmp(os.path.join(a, n), os.path.join(b, n),
                           shallow=False) for n in names)


def timed_loop(runner: Runner, seconds: float) -> list:
    """Cycle through the jobs until the jobs' own time reaches `seconds`.

    The host-speed reference kernel is timed between jobs; a job's
    ``ref_ns`` is the mean of the kernel times before and after it.
    """
    records, busy, k = [], 0, 0
    jobs = runner.jobs
    refs = [hostspeed.reference_ns()]
    while busy < seconds * 1e9:
        job = jobs[k % len(jobs)]
        out = f"exec/{k}"
        latency, failure = runner.execute(job, out)
        refs.append(hostspeed.reference_ns())
        failure = runner.keep_or_compare(job, out, f"first/{job['job']}") \
            or failure
        records.append({"job": job["job"], "ns": latency,
                        "ref_ns": (refs[-2] + refs[-1]) / 2,
                        "items": job["items"], "fail": failure})
        busy += latency
        k += 1
    return records


def rerun_simulate(runner: Runner, records: list) -> list:
    """Run again each simulate job that ran once; the jobs whose bytes differ.

    Jobs that ran more than once were already compared in the loop.
    """
    runs = collections.Counter(r["job"] for r in records)
    failures = []
    for job in runner.jobs:
        if runs[job["job"]] == 1 and os.path.isdir(f"first/{job['job']}"):
            out = f"again/{job['job']}"
            os.makedirs(out)
            run_cli_steps(runner.sd.cli, job["steps"], out)
            if not _same_tree(out, f"first/{job['job']}"):
                failures.append(job["job"])
            shutil.rmtree(out)
    return failures


def traced_passes(runner: Runner, jobs: list, seconds: float,
                  spans_path: str) -> dict:
    """Alternate untraced and traced passes over a fixed list of jobs.

    Passes repeat until `seconds` have elapsed (at least two traced).
    Counts must repeat exactly across traced passes and every traced
    output must equal the untraced output byte for byte.
    """
    import tracing

    tracer = tracing.Tracer()
    untraced_ns, traced_ns, metrics, problems = [], [], [], []
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            total = 0
            for job in jobs:
                tracer.job = job["job"]
                out = f"pass{rounds}{'t' if traced else 'u'}/{job['job']}"
                latency, failure = runner.execute(job, out)
                total += latency
                keep = f"first/{job['job']}"
                mismatch = runner.keep_or_compare(job, out, keep)
                if mismatch or failure:
                    problems.append(f"job {job['job']} traced={traced}: "
                                    f"{mismatch or failure}")
            if traced:
                tracer.uninstall()
                spans = tracer.take_spans()
                metrics.append(tracing.layer_metrics(tracer.functions, spans))
                if rounds == 0:
                    tracing.write_spans(spans_path, tracer.functions, spans)
                traced_ns.append(total)
            else:
                untraced_ns.append(total)
        rounds += 1
    for m in metrics[1:]:
        for name, value in m.items():
            if tracing.is_count(name) and value != metrics[0][name]:
                problems.append(f"count {name} changed: {metrics[0][name]} "
                                f"then {value}")
    out = tracing.median_metrics(metrics)
    ms = sorted(traced_ns)[len(traced_ns) // 2] / 1e6
    base = sorted(untraced_ns)[len(untraced_ns) // 2] / 1e6
    out["trace.overhead_ms"] = ms - base
    return {"metrics": out, "problems": problems, "passes": rounds,
            "traced_ms": ms, "untraced_ms": base}


def main() -> int:
    workdir = Path(sys.argv[1]).resolve()
    config = json.loads((workdir / "config.json").read_text())
    jobs = json.loads((workdir / "jobs.json").read_text())
    sys.path.insert(0, config["src"])
    import skewdose
    import skewdose.cli  # noqa: F401 -- binds skewdose.cli

    if not Path(skewdose.__file__).resolve().is_relative_to(config["src"]):
        print(f"worker: imported {skewdose.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    os.chdir(workdir)
    runner = Runner(skewdose, jobs)
    result = {}
    if config["trace"]:
        trace_jobs = jobs[:config["trace_jobs"]]
        result["trace"] = traced_passes(runner, trace_jobs, config["seconds"],
                                        config["spans"])
        result["first_outputs"] = [j["job"] for j in trace_jobs]
    else:
        records = timed_loop(runner, config["seconds"])
        result["records"] = records
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        result["rerun"] = rerun_simulate(runner, records) \
            if config["workload"] == "simulate_emit" else []
    runner.save_law_results()
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
