"""Run one benchmark workload once and report its metrics.

    python3 bench/run.py --workload law_query --seed 1 --seconds 20 --trace 0

Run from anywhere; the program measured is ``src/skewdose`` of the
checkout this file sits in.  Steps: time a fresh interpreter importing
``skewdose.cli`` (``setup_s``, untraced runs only); generate the inputs
from the seed; run the jobs in a fresh worker process (closed loop, one
client, one thread); verify every distinct output against independent
oracles; print every metric by name and unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Every time metric is corrected for the host's speed (``hostspeed.py``): a
fixed reference kernel is timed between jobs and between fresh
interpreters, and each time is scaled to a host on which that kernel takes
``hostspeed.REF_KERNEL_MS``.  The raw wall times are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
traced passes instead and reports the per-layer metrics, the tracing
overhead, and writes the spans to ``.bench_work/spans_<workload>_s<seed>.csv``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 11           # fresh interpreters per run; the median is reported
WORKER_TIMEOUT_S = 150    # the whole run must end within 180 s
ITEM = {"trial_ingest": "input row", "simulate_emit": "draw",
        "summary_fit": "trial", "law_query": "cdf evaluation"}
UNITS = {"setup_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
         "items_per_s": "items/s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup() -> tuple:
    """Median time of a fresh interpreter importing the CLI, in s.

    Returns (host-speed corrected, wall).  The correction uses the median
    of the kernel times taken between the interpreters: a single kernel
    time right after a process start is too noisy to scale one start by.
    """
    wall, refs = [], [hostspeed.reference_ns()]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c",
                        "import skewdose.cli as c; c.build_parser()"],
                       env=_env(), check=True, timeout=60)
        wall.append(time.perf_counter_ns() - t0)
        refs.append(hostspeed.reference_ns())
    median_ns = statistics.median(wall)
    return (hostspeed.corrected_ms(median_ns, statistics.median(refs)) / 1e3,
            median_ns / 1e9)


def run_worker(workdir: Path) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                           str(workdir)], env=_env(), timeout=WORKER_TIMEOUT_S,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads((workdir / "result.json").read_text())


def verify_job(workload: str, job: dict, workdir: Path) -> str | None:
    """Check one distinct job's first output; None when it is correct."""
    import oracles
    import truth

    out = workdir / "first" / str(job["job"])
    meta = job["meta"]

    def read(name):
        return (out / name).read_text()

    if workload == "law_query":
        return oracles.verify_law(json.loads(read("law.json")), job["law"],
                                  meta["truth_mp"])
    if workload == "simulate_emit":
        return oracles.verify_sample(out / "sample.csv",
                                     truth.parse_doc(meta["model"]),
                                     meta["dose"], meta["n"])
    if workload == "summary_fit":
        model = truth.parse_doc(read("model.txt"))
        return (oracles.verify_fit(model, meta["table"], meta["regime"],
                                   meta["offset"], meta["l1"], meta["l2"],
                                   meta["truth_mp"])
                or oracles.verify_optimal(read("weights.txt"), model,
                                          meta["interval"], meta["weights"])
                or oracles.verify_thresholds(read("thresholds.txt"), model,
                                             meta["interval"],
                                             meta["thresholds"])
                or oracles.verify_check(read("check.txt"), model)
                or oracles.verify_plot(read("plot.csv"), model, meta["curve"],
                                       meta["interval"], meta["plot_steps"]))
    if meta["defect"]:
        return None  # the worker checked the exact ERROR line
    moments = oracles.raw_moments(workdir / meta["raw"])
    model = truth.parse_doc(read("model.txt"))
    return (oracles.verify_summary(read("summary.csv"), moments)
            or oracles.verify_fit(model, list(zip(*moments))[:4], "none",
                                  "grid")
            or oracles.verify_optimal(read("optimal.txt"), model,
                                      meta["interval"], meta["weights"]))


def verify_all(workload: str, jobs: list, ran: set, workdir: Path) -> dict:
    failures = {}
    for job in jobs:
        if job["job"] not in ran or not (workdir / "first" /
                                         str(job["job"])).is_dir():
            continue
        try:
            failure = verify_job(workload, job, workdir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failure = f"unreadable-output:{type(exc).__name__}"
        if failure:
            failures[job["job"]] = "verify:" + failure
    return failures


def tail(latencies_ms: list) -> tuple:
    """(latency, percentile): the highest percentile with ten jobs above."""
    ordered = sorted(latencies_ms)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def versions() -> str:
    import numpy
    return f"python {platform.python_version()}, numpy {numpy.__version__}"


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """One run; returns the result object and prints the metric table."""
    import workloads

    workdir = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup = None if trace else measure_setup()
        jobs = workloads.make(workload, seed, workdir, tiny=tiny)
        spans = WORK / f"spans_{workload}_s{seed}.csv"
        (workdir / "jobs.json").write_text(json.dumps(jobs))
        (workdir / "config.json").write_text(json.dumps({
            "src": str(SRC), "workload": workload, "seconds": seconds, "trace": trace,
            "trace_jobs": workloads.TRACE_JOBS[workload], "spans": str(spans)}))
        result = run_worker(workdir)
        if trace:
            return _report_trace(workload, seed, jobs, result, workdir, spans)
        return _report(workload, seed, jobs, result, workdir, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _job_times(latencies_ms: list, items: int) -> tuple:
    """(job_p50_ms, job_tail_ms and items_per_s, percentile of the tail)."""
    tail_ms, tail_pct = tail(latencies_ms)
    return {"job_p50_ms": statistics.median(latencies_ms),
            "job_tail_ms": tail_ms,
            "items_per_s": items / (sum(latencies_ms) / 1e3)}, tail_pct


def _report(workload, seed, jobs, result, workdir, setup) -> dict:
    records = result["records"]
    ran = {r["job"] for r in records}
    bad = verify_all(workload, jobs, {r["job"] for r in records
                                      if not r["fail"]}, workdir)
    bad.update(dict.fromkeys(result["rerun"], "nondeterministic"))
    fails = collections.Counter()
    for r in records:
        failure = r["fail"] or bad.get(r["job"])
        if failure:
            fails[failure] += 1
    attempted, failed = len(records), sum(fails.values())
    items = sum(r["items"] for r in records)
    corrected, tail_pct = _job_times(
        [hostspeed.corrected_ms(r["ns"], r["ref_ns"]) for r in records], items)
    wall, _ = _job_times([r["ns"] / 1e6 for r in records], items)
    metrics = {"setup_s": setup[0], **corrected,
               "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
    wall["setup_s"] = setup[1]
    ref_ms = statistics.median(r["ref_ns"] for r in records) / 1e6
    print(f"workload {workload}  seed {seed}  jobs {attempted} "
          f"({len(ran)} distinct)  closed loop, 1 client  [{versions()}]")
    print(f"  reference kernel: median {ref_ms:.4f} ms around a job; times "
          f"are scaled to {hostspeed.REF_KERNEL_MS:g} ms, wall times beside")
    for name, value in metrics.items():
        note = f"  (wall {wall[name]:.6g})" if name in wall else ""
        if name == "job_tail_ms":
            note += f"  (p{tail_pct:.1f}: 10 of {attempted} jobs slower)"
        elif name == "items_per_s":
            note += f"  (item: {ITEM[workload]})"
        print(f"  {name:<14}{value:14.6g} {UNITS[name]}{note}")
    print(f"  {'fail_ratio':<14}{failed / attempted:14.6g} 1  "
          f"({failed} of {attempted} jobs)")
    print("  failures by code: " + (", ".join(
        f"{code} x{n}" for code, n in sorted(fails.items())) or "none"))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]}
                        for k, v in metrics.items()}}


def _report_trace(workload, seed, jobs, result, workdir, spans) -> dict:
    trace = result["trace"]
    ran = set(result["first_outputs"])
    bad = verify_all(workload, jobs, ran, workdir)
    problems = trace["problems"] + [f"job {j}: {f}" for j, f in
                                    sorted(bad.items())]
    metrics = trace["metrics"]
    print(f"workload {workload}  seed {seed}  traced passes "
          f"{trace['passes']} over {len(ran)} jobs  [{versions()}]")
    for name, value in metrics.items():
        print(f"  {name:<32}{value:14.6g} {metric_unit(name)}")
    print(f"  tracing overhead per pass: {trace['traced_ms']:.3f} ms traced "
          f"- {trace['untraced_ms']:.3f} ms untraced = "
          f"{metrics['trace.overhead_ms']:.3f} ms")
    print(f"  spans: {spans.relative_to(ROOT)}")
    print("  problems: " + ("; ".join(problems) or "none"))
    return {"correct": not problems, "attempted": len(ran),
            "failed": min(len(ran), len(problems)),
            "metrics": {k: {"value": v, "unit": metric_unit(k)}
                        for k, v in metrics.items()}}


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("evals_per_integral"):
        return "evals"
    return "count"


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skewdose" / "__init__.py").is_file():
        print(f"bench: no skewdose package under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
