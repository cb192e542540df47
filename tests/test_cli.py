"""Command-line pipeline: exit codes, determinism, document round trips."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import skewdose
from conftest import TRIAL_DOSES, TRIAL_MEANS, TRIAL_SDS, TRIAL_SKEWS
from skewdose.cli import main
from skewdose.dose_effect import moments_at
from skewdose.fitting import GaussianTypeParams
from skewdose.logistic import LogisticParams
from skewdose.model_doc import parse_model, serialize_model


SUMMARY_CSV = "dose,mean,sd,skew\n" + "".join(
    f"{d:g},{m:g},{s:g},{g:g}\n" for d, m, s, g in
    zip(TRIAL_DOSES, TRIAL_MEANS, TRIAL_SDS, TRIAL_SKEWS))


@pytest.fixture
def summary_file(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(SUMMARY_CSV)
    return path


@pytest.fixture
def model_file(tmp_path, summary_file):
    path = tmp_path / "model.txt"
    code = main(["fit", "--input", str(summary_file), "--output", str(path)])
    assert code == 0
    return path


def assert_one_error_line(err, code):
    """stderr is exactly one ``ERROR <code>:`` line, with no traceback."""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(f"ERROR {code}: ")


def raw_bump_csv():
    """Raw observations with S-shaped means and a dispersion bump."""
    lines = ["dose,value"]
    means = [10.0, 20.0, 35.0, 40.0]
    sds = [1.0, 2.0, 3.0, 2.0]
    for d, m, s in zip([0.0, 1.0, 2.0, 3.0], means, sds):
        lines.append(f"{d:g},{m - s:g}")
        lines.append(f"{d:g},{m + s:g}")
    return "\n".join(lines) + "\n"


class TestSummarize:
    def test_raw_to_summary(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(raw_bump_csv())
        out = tmp_path / "summary.csv"
        assert main(["summarize", "--input", str(raw),
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dose,mean,sd,skew,n"
        assert lines[1] == "0,10,1,0,2"

    def test_bad_rows_exit_one(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("dose,value\n0,oops\n")
        assert main(["summarize", "--input", str(raw)]) == 1
        assert "ERROR ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summarize", "fit"])
@pytest.mark.parametrize("text, error", [
    ("dose,value\n0,1e300\n0,-1e300\n1,1e300\n1,2e300\n",
     "ERROR DomainError: sigma must be finite, got inf\n"),
    ("dose,value\n", "ERROR EmptyInput: no data rows after the header\n"),
], ids=["overflow", "header-only"])
def test_raw_input_errors_print_one_line_and_no_warning(tmp_path, capsys,
                                                         command, text, error):
    raw = tmp_path / "raw.csv"
    raw.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--input", str(raw)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr() == ("", error)


class TestFit:
    def test_document_contains_reference_fit(self, model_file):
        text = model_file.read_text()
        model = parse_model(text)
        assert abs(model.mu_curve.l1 - 21.8153) < 1e-3
        assert abs(model.mu_curve.m - (-0.8278)) < 1e-3
        assert abs(model.mu_curve.p - (-2.5929)) < 1e-3
        assert isinstance(model.sigma_curve, GaussianTypeParams)
        assert abs(model.sigma_curve.m - 0.1502) < 5e-4
        assert abs(model.sigma_curve.p - 0.5289) < 5e-4
        assert abs(model.sigma_curve.q - 3.2459) < 5e-4
        assert model.d0_hat == 1.5

    def test_fit_from_raw_observations(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(raw_bump_csv())
        out = tmp_path / "model.txt"
        assert main(["fit", "--input", str(raw), "--output", str(out)]) == 0
        model = parse_model(out.read_text())
        assert model.d0_hat == 2.0

    def test_zero_offset_infeasible_for_negative_skews(self, summary_file,
                                                       capsys):
        code = main(["fit", "--input", str(summary_file), "--offset", "zero"])
        assert code == 1
        assert "ERROR NoFeasibleOffset" in capsys.readouterr().err

    def test_logistic_dispersion_branch(self, tmp_path):
        text = "dose,mean,sd,skew\n" + "".join(
            f"{d:g},{m:g},{s:g},0.1\n" for d, m, s in zip(
                [0.0, 1.0, 2.0, 3.0, 4.0],
                [10.0, 12.0, 20.0, 28.0, 30.0],
                [10.0, 10.0, 10.0, 5.0, 2.0]))
        src = tmp_path / "s.csv"
        src.write_text(text)
        out = tmp_path / "m.txt"
        assert main(["fit", "--input", str(src), "--output", str(out)]) == 0
        model = parse_model(out.read_text())
        assert isinstance(model.sigma_curve, LogisticParams)
        assert model.sigma_curve.l1 == 0.0
        assert model.sigma_curve.m > 0.0

    def test_known_limits_regime_flags(self, summary_file, tmp_path):
        out = tmp_path / "m.txt"
        code = main(["fit", "--input", str(summary_file), "--regime", "both",
                     "--l1", "21.8153", "--l2", "107.9097",
                     "--output", str(out)])
        assert code == 0
        model = parse_model(out.read_text())
        assert model.mu_curve.l1 == 21.8153

    def test_garbage_input_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,header\n1,2,3\n")
        assert main(["fit", "--input", str(bad)]) == 1
        assert "ERROR ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("regime", [
        ["--regime", "both", "--l1", "20", "--l2", "100"],
        ["--regime", "l1", "--l1", "20"],
    ])
    def test_two_doses_are_too_few(self, tmp_path, capsys, regime):
        src = tmp_path / "two.csv"
        src.write_text("dose,mean,sd,skew\n0,30,20,0.1\n3,80,30,0.3\n")
        assert main(["fit", "--input", str(src)] + regime) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "ERROR TooFewPoints: need at least 3 doses, got 2\n"

    def test_huge_known_asymptotes_fit_without_traceback(self, summary_file,
                                                         capsys):
        # the curve residuals square to inf, which must not raise
        assert main(["fit", "--input", str(summary_file), "--regime", "both",
                     "--l1", "-1e308", "--l2", "1e308"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        model = parse_model(out)
        assert (model.mu_curve.l1, model.mu_curve.l2) == (-1e308, 1e308)
        assert serialize_model(model) == out

    def test_infinite_known_lower_asymptote_is_one_error_line(
            self, summary_file, capsys):
        assert main(["fit", "--input", str(summary_file), "--regime", "l1",
                     "--l1", "-inf"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"ERROR \w+: [^\n]*\n", err), err

    @pytest.mark.parametrize("csv", [SUMMARY_CSV, raw_bump_csv()])
    @pytest.mark.parametrize("newline", ["\r\n", "\x0c", "\x0b", "\x85"])
    def test_header_line_ends_at_any_line_boundary(self, tmp_path, capsys,
                                                   csv, newline):
        plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
        plain.write_text(csv)
        other.write_bytes(csv.replace("\n", newline, 1).encode())
        assert main(["fit", "--input", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["fit", "--input", str(other)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("text", ["", "\n" + SUMMARY_CSV])
    def test_missing_header_line_is_a_parse_error(self, tmp_path, capsys,
                                                  text):
        path = tmp_path / "input.csv"
        path.write_text(text)
        assert main(["fit", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("ERROR ParseError: line 1: expected header "
                       "'dose,value' or 'dose,mean,sd,skew'\n")


class TestSimulate:
    def test_byte_identical_with_same_seed(self, model_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--input", str(model_file), "--dose", "3",
                "--n", "64", "--seed", "11"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, model_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--input", str(model_file), "--dose", "3",
                "--n", "64"]
        assert main(base + ["--seed", "11", "--output", str(a)]) == 0
        assert main(base + ["--seed", "12", "--output", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_output_is_long_format(self, model_file, tmp_path):
        out = tmp_path / "sample.csv"
        assert main(["simulate", "--input", str(model_file), "--dose", "1.5",
                     "--n", "5", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dose,value"
        assert len(lines) == 6
        assert all(line.startswith("1.5,") for line in lines[1:])


class TestOptimal:
    def test_mean_weight_selects_three(self, model_file, capsys):
        assert main(["optimal", "--input", str(model_file),
                     "--interval", "0", "3", "--weights", "1", "0", "0"]) == 0
        out = capsys.readouterr().out
        assert "dose=3" in out
        assert "mode=scalarized" in out

    def test_threshold_mode(self, model_file, capsys):
        assert main(["optimal", "--input", str(model_file),
                     "--interval", "0", "3",
                     "--thresholds", "40", "50", "0"]) == 0
        assert "mode=admissible" in capsys.readouterr().out

    def test_no_admissible_dose_exits_one(self, model_file, capsys):
        assert main(["optimal", "--input", str(model_file),
                     "--interval", "0", "3",
                     "--thresholds", "500", "50", "0"]) == 1
        assert "ERROR NoAdmissibleDose" in capsys.readouterr().err

    def test_requires_exactly_one_mode(self, model_file, capsys):
        assert main(["optimal", "--input", str(model_file),
                     "--interval", "0", "3"]) == 2
        assert main(["optimal", "--input", str(model_file),
                     "--interval", "0", "3", "--weights", "1", "0", "0",
                     "--thresholds", "1", "1", "1"]) == 2
        capsys.readouterr()

    def test_negative_threshold_in_exponent_form(self, model_file, capsys):
        base = ["optimal", "--input", str(model_file), "--interval", "0", "3"]
        assert main(base + ["--thresholds", "40", "50", "-0.000065"]) == 0
        fixed_point = capsys.readouterr().out
        assert main(base + ["--thresholds", "40", "50", "-6.5e-05"]) == 0
        assert capsys.readouterr().out == fixed_point

    @pytest.mark.parametrize("minus_inf", ["-inf", "-INF", "-Infinity"])
    def test_minus_infinite_threshold_is_a_number(self, model_file, capsys,
                                                  minus_inf):
        base = ["optimal", "--input", str(model_file), "--interval", "0", "3"]
        assert main(base + ["--thresholds", "40", "50", "-1e308"]) == 0
        unconstrained = capsys.readouterr().out
        assert main(base + ["--thresholds", "40", "50", minus_inf]) == 0
        assert capsys.readouterr() == (unconstrained, "")

    def test_nan_weight_is_a_domain_error(self, model_file, capsys):
        assert main(["optimal", "--input", str(model_file), "--interval",
                     "0", "3", "--weights", "nan", "0", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "DomainError")


class TestPlotAndCheck:
    def test_plot_csv(self, model_file, capsys):
        assert main(["plot", "--input", str(model_file), "--curve", "mu",
                     "--interval", "0", "4", "--steps", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 6

    def test_plot_svg(self, model_file, capsys):
        assert main(["plot", "--input", str(model_file), "--curve", "sigma",
                     "--interval", "0", "4", "--format", "svg"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('<?xml')
        assert "polyline" in out

    def test_plot_zero_steps_is_a_domain_error(self, model_file, capsys):
        assert main(["plot", "--input", str(model_file), "--curve", "mu",
                     "--interval", "0", "4", "--steps", "0"]) == 1
        assert_one_error_line(capsys.readouterr().err, "DomainError")

    def test_svg_of_empty_interval_is_a_domain_error(self, model_file,
                                                     capsys):
        assert main(["plot", "--input", str(model_file), "--curve", "mu",
                     "--interval", "3", "3", "--format", "svg"]) == 1
        assert_one_error_line(capsys.readouterr().err, "DomainError")

    def test_overflowing_interval_width_keeps_doses_inside(self, model_file,
                                                           capsys):
        assert main(["plot", "--input", str(model_file), "--curve", "mu",
                     "--interval", "-1e308", "1e308", "--steps", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [float(x) for x, _ in rows] == [-1e308, 0.0, 1e308]
        assert all(math.isfinite(float(y)) for _, y in rows)

    def test_single_step_midpoint_of_huge_interval_is_inside(self,
                                                              model_file,
                                                              capsys):
        assert main(["plot", "--input", str(model_file), "--curve", "mu",
                     "--interval", "1e308", "1.5e308", "--steps", "1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        (x, y), = [line.split(",") for line in out.splitlines()[1:]]
        assert 1e308 <= float(x) <= 1.5e308
        assert math.isfinite(float(y))

    def test_svg_of_overflowing_interval_width_is_finite(self, model_file,
                                                         capsys):
        assert main(["plot", "--input", str(model_file), "--curve", "mu",
                     "--interval", "-1e308", "1e308", "--format", "svg"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert not re.search(r"nan|inf", out, re.IGNORECASE)
        points = re.search(r'points="([^"]*)"', out).group(1).split()
        xs = [float(point.split(",")[0]) for point in points]
        assert xs[0] == 65.0 and xs[-1] == 780.0  # the plot's left and right
        assert xs == sorted(xs)
        ticks = re.findall(r'text-anchor="middle">([^<]*)<', out)
        assert ticks == ["-1e+308", "-5e+307", "0", "5e+307", "1e+308"]

    def test_nan_eps_is_a_domain_error(self, model_file, capsys):
        assert main(["check", "--input", str(model_file), "--eps", "nan"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "ERROR DomainError: eps must not be NaN, got nan\n"

    @pytest.mark.parametrize("argv, lo, hi", [
        (["plot", "--curve", "mu", "--interval", "0", "inf"], "0.0", "inf"),
        (["plot", "--curve", "mu", "--interval", "0", "inf", "--steps", "1"],
         "0.0", "inf"),
        (["check", "--horizon", "inf"], "1.5", "inf"),
        (["optimal", "--interval", "0", "inf", "--weights", "1", "1", "1"],
         "0.0", "inf"),
    ])
    def test_infinite_interval_is_a_domain_error(self, model_file, capsys,
                                                 argv, lo, hi):
        assert main(argv + ["--input", str(model_file)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"ERROR DomainError: grid endpoints must be finite, "
                       f"got lo={lo}, hi={hi}\n")

    def test_check_passes_on_trial_model(self, model_file, capsys):
        assert main(["check", "--input", str(model_file),
                     "--horizon", "20", "--eps", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "decreasing_ok=true" in out
        assert "vanishing_ok=true" in out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, model_file, capsys):
        assert main(["plot", "--input", str(model_file)]) == 2
        capsys.readouterr()

    def test_regime_without_asymptotes(self, summary_file, capsys):
        assert main(["fit", "--input", str(summary_file),
                     "--regime", "l1"]) == 2
        assert main(["fit", "--input", str(summary_file),
                     "--regime", "both", "--l1", "1"]) == 2
        capsys.readouterr()

    def test_missing_input_file(self, capsys):
        assert main(["summarize", "--input", "/nonexistent/path.csv"]) == 1
        assert "ERROR IOError" in capsys.readouterr().err

    def test_non_utf8_input_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"dose,mean,sd,skew\n0,33.4,27.0,-0.03\n"
                         b"0.75,44.2,30.8,\xb10.14\n")
        assert main(["fit", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err, "ParseError")
        assert "line 3: input is not UTF-8" in err


class TestModelDocument:
    def test_round_trip_bit_for_bit(self, model_file):
        model = parse_model(model_file.read_text())
        text = serialize_model(model)
        again = parse_model(text)
        assert again == model
        assert serialize_model(again) == text
        # evaluation agrees exactly after the round trip
        for d in (0.0, 1.3, 2.9):
            assert moments_at(again, d) == moments_at(model, d)

    def test_logistic_dispersion_round_trip(self, fitted_model):
        from skewdose.dose_effect import DoseEffectModel

        model = DoseEffectModel(
            mu_curve=fitted_model.mu_curve,
            sigma_curve=LogisticParams(m=1.0, p=-2.0, l1=0.0, l2=30.0),
            gamma_curve=fitted_model.gamma_curve,
            d0_hat=0.5)
        again = parse_model(serialize_model(model))
        assert again == model

    def test_malformed_document_rejected(self):
        from skewdose.errors import ParseError

        with pytest.raises(ParseError):
            parse_model("mu.m=1\nmu.p=2\n")
        with pytest.raises(ParseError):
            parse_model("mu.m=x\n")


def _python_with_src(script: str, *args: str,
                     stdin: str = "") -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this skewdose."""
    src_dir = str(Path(skewdose.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          input=stdin, capture_output=True, text=True,
                          timeout=60)


_RUN_CLI = "import sys; from skewdose.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("command, text, error", [
    ("summarize", raw_bump_csv(), ""),
    ("fit", raw_bump_csv(), ""),
    ("summarize", raw_bump_csv().replace("\n2,32\n", "\n2,3 2\n"),
     "ERROR ParseError: line 6: value field '3 2' is not a number\n"),
], ids=["summarize", "fit", "defect"])
def test_raw_table_on_stdin_matches_the_file(tmp_path, capsys, command, text,
                                             error):
    """``--input -`` reads stdin: same bytes, or the same ERROR line."""
    raw = tmp_path / "raw.csv"
    raw.write_text(text)
    code = main([command, "--input", str(raw)])
    from_file = capsys.readouterr()
    assert (code, from_file.err) == (1 if error else 0, error)
    from_stdin = _python_with_src(_RUN_CLI, command, "--input", "-",
                                  stdin=text)
    assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == \
        (code, from_file.out, from_file.err)


def test_summary_table_path_does_not_import_numpy(tmp_path):
    """fit, optimal, check and plot on a summary table stay pure Python."""
    script = f"""
import sys
from skewdose.cli import main
d = {str(tmp_path)!r}
with open(d + "/summary.csv", "w") as fh:
    fh.write({SUMMARY_CSV!r})
runs = [
    ["fit", "--input", d + "/summary.csv", "--output", d + "/model.txt"],
    ["optimal", "--input", d + "/model.txt", "--interval", "0", "3",
     "--weights", "1", "1", "1", "--output", d + "/o1.txt"],
    ["optimal", "--input", d + "/model.txt", "--interval", "0", "3",
     "--thresholds", "40", "50", "0", "--output", d + "/o2.txt"],
    ["check", "--input", d + "/model.txt", "--output", d + "/c.txt"],
    ["plot", "--input", d + "/model.txt", "--curve", "gamma",
     "--interval", "0", "3", "--output", d + "/p.csv"],
    ["plot", "--input", d + "/model.txt", "--curve", "sigma",
     "--interval", "0", "3", "--format", "svg", "--output", d + "/p.svg"],
]
for argv in runs:
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    proc = _python_with_src(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_reused_parser_keeps_no_state_between_calls(tmp_path):
    """Calls sharing one process and parser print what fresh processes do.

    The order makes leaked values visible: a --weights left over from the
    first call would make the second a usage error, and a --regime left
    over from the third would change the fourth's model document.
    """
    summary = tmp_path / "summary.csv"
    summary.write_text(SUMMARY_CSV)
    model = tmp_path / "model.txt"
    assert main(["fit", "--input", str(summary), "--output", str(model)]) == 0
    on_model = ["--input", str(model), "--interval", "0", "3"]
    runs = [
        ["optimal", *on_model, "--weights", "1", "1", "1"],
        ["optimal", *on_model, "--thresholds", "40", "50", "0"],
        ["fit", "--input", str(summary), "--regime", "both",
         "--l1", "20", "--l2", "100"],
        ["fit", "--input", str(summary)],
        ["optimal", *on_model],
    ]
    one_process = _python_with_src("""
import contextlib, io, json, sys
from skewdose.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
""", json.dumps(runs))
    assert one_process.returncode == 0, one_process.stderr
    shared = json.loads(one_process.stdout)
    for argv, got in zip(runs, shared):
        fresh = _python_with_src(
            "import sys; from skewdose.cli import main; "
            "sys.exit(main(sys.argv[1:]))", *argv)
        assert got == [fresh.returncode, fresh.stdout, fresh.stderr], argv
    code, out, err = shared[-1]
    assert (code, out) == (2, "")
    assert err.startswith("usage: skewdose ")
    assert err.endswith("optimal requires exactly one of --weights / "
                        "--thresholds\n")
