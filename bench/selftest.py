"""Self-test of the benchmark: tiny runs pass, corrupted outputs fail.

    python3 bench/selftest.py

1. Every workload runs at a tiny size, untraced and traced, and every
   verifier must pass.
2. Each verifier is handed a deliberately corrupted output and must
   reject it: a summary value off in its 6th digit, a simulate repeat
   that differs, a cdf off by 1e-6, an ERROR line with the wrong line
   number, an ``optimal --thresholds`` dose one grid step too large, a
   flipped ``check`` flag.

Exits 0 when every check holds; prints one line per check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import numpy as np

import oracles
import run
import truth
import workloads
import worker

SEED = 7


def _check(name: str, ok: bool, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


def _cli(argv) -> tuple:
    from skewdose import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def tiny_runs(failures: list) -> None:
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, SEED, 1.0, trace, tiny=True)
            _check(f"tiny {workload} trace={int(trace)}: all verifiers pass",
                   result["correct"] and result["failed"] == 0, failures)


def corrupted_outputs(failures: list, workdir) -> None:
    sys.path.insert(0, str(run.SRC))
    import skewdose
    import skewdose.cli  # noqa: F401 -- binds skewdose.cli

    jobs = workloads.make("trial_ingest", SEED, workdir, tiny=True, count=9)
    clean = next(j for j in jobs if not j["meta"]["defect"])
    raw = str(workdir / clean["meta"]["raw"])
    summary = workdir / "summary.csv"
    _cli(["summarize", "--input", raw, "--output", str(summary)])
    moments = oracles.raw_moments(raw)
    text = summary.read_text()
    _check("summary verifier accepts the program's summary",
           oracles.verify_summary(text, moments) is None, failures)
    lines = text.splitlines()
    fields = lines[1].split(",")
    mean = float(fields[1])
    unit = 10.0 ** (int(f"{mean:.5e}".split("e")[1]) - 5)
    fields[1] = f"{mean + unit:.6g}"
    lines[1] = ",".join(fields)
    _check("summary verifier rejects a value off in its 6th digit",
           oracles.verify_summary("\n".join(lines) + "\n", moments)
           == "summary-value", failures)

    defect = next(j for j in jobs if j["meta"]["defect"])
    step = defect["steps"][0]
    code, stderr = _cli([a.replace("{out}", str(workdir))
                         for a in step["argv"]])
    expect = step["expect"]
    _check("contract check accepts the exact ERROR line",
           worker.check_step(code, stderr, expect) is None, failures)
    line = defect["meta"]["defect"]["line"]
    wrong = stderr.replace(f"line {line}:", f"line {line + 1}:")
    _check("contract check rejects a wrong ERROR line number",
           worker.check_step(code, wrong, expect) == "wrong-error-line",
           failures)

    sim = workloads.make("simulate_emit", SEED, workdir, tiny=True, count=1)[0]
    runner = worker.Runner(skewdose, [sim])
    outs = []
    for name in ("a", "b"):
        out = workdir / name
        out.mkdir()
        worker.run_cli_steps(skewdose.cli, sim["steps"], str(out))
        outs.append(out)
    sample = outs[1] / "sample.csv"
    text = sample.read_text()
    _check("simulate verifier accepts the program's draws",
           oracles.verify_sample(sample, truth.parse_doc(sim["meta"]["model"]),
                                 sim["meta"]["dose"], sim["meta"]["n"]) is None,
           failures)
    lines = text.split("\n")
    lines[1] = lines[1][:-1] + ("2" if lines[1].endswith("1") else "1")
    sample.write_text("\n".join(lines))
    runner.keep_or_compare(sim, str(outs[0]), str(workdir / "first"))
    _check("repeat check rejects a simulate run that differs",
           runner.keep_or_compare(sim, str(outs[1]), str(workdir / "first"))
           == "nondeterministic", failures)

    fit_job = workloads.make("summary_fit", SEED, workdir, count=1)[0]
    out = workdir / "fit" / "first" / "0"
    out.mkdir(parents=True)
    worker.run_cli_steps(skewdose.cli, fit_job["steps"], str(out))
    _check("summary_fit verifiers accept the program's outputs",
           run.verify_job("summary_fit", fit_job, workdir / "fit") is None,
           failures)
    chosen = out / "thresholds.txt"
    text = chosen.read_text()
    model = truth.parse_doc((out / "model.txt").read_text())
    grid = oracles._grid(*fit_job["meta"]["interval"])
    d = float(grid[1 + int(np.argmin(np.abs(
        grid - float(text.split("\n")[0].split("=")[1]))))])
    later = dict(dose=d, mean=model.mean(d), sd=model.sd(d),
                 skewness=model.skew(d))
    lines = []
    for line in text.splitlines():
        key = line.split("=")[0]
        lines.append(f"{key}={float(later[key]):.17g}" if key in later
                     else line)
    chosen.write_text("\n".join(lines) + "\n")
    _check("thresholds verifier rejects a dose one grid step too large",
           run.verify_job("summary_fit", fit_job, workdir / "fit")
           == "thresholds-not-smallest", failures)
    chosen.write_text(text)
    report = out / "check.txt"
    text = report.read_text()
    report.write_text(text.replace("decreasing_ok=true", "decreasing_ok=false"))
    _check("check verifier rejects a flipped flag",
           run.verify_job("summary_fit", fit_job, workdir / "fit")
           == "check-flags", failures)

    law_job = workloads.make("law_query", SEED, workdir, count=1)[0]
    result = json.loads(json.dumps(worker.run_law_job(skewdose,
                                                      law_job["law"])))
    truth_mp = law_job["meta"]["truth_mp"]
    _check("law verifier accepts the program's pdf and cdf",
           oracles.verify_law(result, law_job["law"], truth_mp) is None,
           failures)
    result["queries"][0]["cdf"][0] += 1e-6
    result["queries"][0]["p_exceed"][0] = 1.0 - result["queries"][0]["cdf"][0]
    _check("law verifier rejects a cdf off by 1e-6",
           oracles.verify_law(result, law_job["law"], truth_mp) == "law-cdf",
           failures)


def main() -> int:
    failures = []
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    here = os.getcwd()
    os.chdir(workdir)  # job argv name inputs relative to the run directory
    try:
        corrupted_outputs(failures, workdir)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    tiny_runs(failures)
    print(f"selftest: {len(failures)} failed" if failures else "selftest: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
