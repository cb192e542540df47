"""Exact stdout of the paper's pipeline on the bundled trial table.

The model document and the reports print floats at 17 significant
digits; these tests pin every byte, so a refactor that moves any digit
shows up here.  The 101-point plot is pinned by its SHA-256 plus its
first and last rows.
"""

import hashlib

import pytest

from skewdose.cli import main

SUMMARY_CSV = """\
dose,mean,sd,skew
0,33.3875,26.9715,-0.0276
0.75,44.1625,30.8113,-0.1381
1.5,51.5,44.6582,1.2827
3,78.225,31.9657,0.3504
"""

FIT = """\
mu.m=-0.82777294836190285
mu.p=-2.5929559552639985
mu.l1=21.81526898834532
mu.l2=107.90973101165467
sigma.family=gaussian_type
sigma.l=0
sigma.m=0.1501837178384039
sigma.p=0.52888604630522251
sigma.q=3.2459392691600608
gamma.l=-1.5589
gamma.m=0.143164275353099
gamma.p=0.55258491475420601
gamma.q=0.31462457444917247
d0_hat=1.5
"""

OPTIMAL_WEIGHTS = """\
dose=3
mode=scalarized
mean=77.811729544472257
sd=32.490376816301882
skewness=0.42269255185509835
objective=1.1874108069877929
sd_model_min=25.685824636348212
sd_model_max=40.917976139658514
"""

OPTIMAL_THRESHOLDS = """\
dose=0.65982404692082108
mode=admissible
mean=40.018545030847655
sd=34.107791565043414
skewness=0.29428221472244909
sd_model_min=25.685824636348212
sd_model_max=40.917976139658514
"""

CHECK = """\
decreasing_ok=true
vanishing_ok=true
sigma_at_horizon=8.2026724751638805e-21
start_dose=1.7531769305962854
"""

PLOT_SHA256 = "12b4e4d0f2432ec61ce68a43dd757df63dc179e35f268755d299af8eb93cf86a"


@pytest.fixture
def model_path(tmp_path):
    summary = tmp_path / "summary.csv"
    summary.write_text(SUMMARY_CSV)
    path = tmp_path / "model.txt"
    assert main(["fit", "--input", str(summary), "--output", str(path)]) == 0
    return path


def run(capsys, *argv):
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_fit(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    summary.write_text(SUMMARY_CSV)
    assert run(capsys, "fit", "--input", str(summary)) == FIT


def test_optimal_weights(model_path, capsys):
    assert run(capsys, "optimal", "--input", str(model_path),
               "--interval", "0", "3", "--weights", "1", "1", "1") \
        == OPTIMAL_WEIGHTS


def test_optimal_thresholds(model_path, capsys):
    assert run(capsys, "optimal", "--input", str(model_path),
               "--interval", "0", "3", "--thresholds", "40", "50", "0") \
        == OPTIMAL_THRESHOLDS


def test_check(model_path, capsys):
    assert run(capsys, "check", "--input", str(model_path)) == CHECK


def test_plot_csv(model_path, capsys):
    out = run(capsys, "plot", "--input", str(model_path), "--curve", "gamma",
              "--interval", "0", "3", "--format", "csv")
    lines = out.splitlines()
    assert len(lines) == 102
    assert lines[:2] == ["x,y", "0,-0.18915502284652908"]
    assert lines[-1] == "3,0.42269255185509835"
    assert hashlib.sha256(out.encode()).hexdigest() == PLOT_SHA256
