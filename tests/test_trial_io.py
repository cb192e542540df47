"""CSV ingestion, per-dose summaries, emission round trips, SVG output."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TRIAL_DOSES, TRIAL_MEANS, TRIAL_SDS, TRIAL_SKEWS
from skewdose.errors import (
    DegenerateCohort,
    DomainError,
    EmptyInput,
    NegativeDose,
    ParseError,
)
from skewdose import trial_io
from skewdose.logistic import LogisticParams, evaluate
from skewdose.skew_normal import SkewNormalParams, moments_of_params, sample
from skewdose.trial_io import (
    DoseCohort,
    SummaryRow,
    emit_curve_points,
    emit_curve_svg,
    emit_observations,
    emit_summary,
    parse_csv,
    parse_summary_csv,
    summarize,
)


class TestParseCsv:
    def test_groups_and_sorts_by_dose(self):
        cohorts = parse_csv("dose,value\n3,78.0\n0,33.2\n0,35.1\n")
        assert [c.dose for c in cohorts] == [0.0, 3.0]
        assert cohorts[0].observations == (33.2, 35.1)
        assert cohorts[1].observations == (78.0,)

    def test_accepts_bytes(self):
        cohorts = parse_csv(b"dose,value\n1,2.5\n1,3.5\n")
        assert cohorts[0].observations == (2.5, 3.5)

    def test_non_numeric_value(self):
        with pytest.raises(ParseError) as info:
            parse_csv("dose,value\n0,abc\n")
        assert info.value.line == 2

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyInput):
            parse_csv("dose,value\n")

    def test_missing_header(self):
        with pytest.raises(ParseError) as info:
            parse_csv("0,1.0\n0,2.0\n")
        assert info.value.line == 1

    def test_negative_dose(self):
        with pytest.raises(NegativeDose) as info:
            parse_csv("dose,value\n0,1.0\n-1,2.0\n")
        assert info.value.line == 3

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_csv("dose,value\n0,1.0,9\n")

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            parse_csv("dose,value\n0,inf\n")

    def test_exact_dose_grouping_no_epsilon_merge(self):
        cohorts = parse_csv("dose,value\n0.1,1.0\n0.10000000000000002,2.0\n")
        assert len(cohorts) == 2


def _outcome(parse, text):
    """A parse's result, bit for bit, or the error it raised."""
    try:
        cohorts = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return [(c.dose.hex(), type(c.dose), tuple(v.hex() for v in c.observations),
             {type(v) for v in c.observations}) for c in cohorts]


# tokens numpy parses (one of them a negative dose), then tokens on which
# numpy's parser and float() disagree or which the row-wise parser rejects
_DOSES = ("0", "-0.0", "0.0", "+0", "1.5", "3", "3.0", " 2 ", "1e308", "-1")
_VALUES = ("0", "-0.0", "3", "2.5", "-1", ".5", "5.", "1e-3", "\t7", "1e308")
_ODD_NUMBERS = ("nan", "inf", "-inf", "1e400", "-1", "-2.5", "1_000", "\u0661",
                "x", "", "0\x0b", "1\x0c", "2\x1c", "3\x1d", "4\x1e", "5\x85",
                "6\xa0", "7\r")
_ODD_BREAKS = ("\r\n", "\r", "\x85", "\x0b", "\x0c", "\x1c", "\u2028")
_ODD_LINES = ("", " ", "\t", " \t ", "0", "0,1,2", "0,1,")


@st.composite
def _line_soups(draw):
    """A clean raw table with up to two defects: odd numbers, odd line
    breaks, blank or whitespace-only lines, missing or extra fields, an
    odd header, no final line break."""
    rows = draw(st.lists(st.tuples(st.sampled_from(_DOSES),
                                   st.sampled_from(_VALUES)).map(list),
                         min_size=1, max_size=8))
    lines = [["dose", "value"]] + rows  # the fields of each line
    breaks = ["\n"] * len(lines)       # the break after each line
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("dose", "value", "dose", "value",
                                     "break", "line", "header", "end")))
        if kind in ("dose", "value") and i > 0:
            field = 0 if kind == "dose" else len(lines[i]) - 1
            lines[i][field] = draw(st.sampled_from(_ODD_NUMBERS))
        elif kind == "break":
            breaks[i] = draw(st.sampled_from(_ODD_BREAKS))
        elif kind == "line":
            lines.insert(i + 1, [draw(st.sampled_from(_ODD_LINES))])
            breaks.insert(i + 1, "\n")
        elif kind == "header":
            lines[0] = [draw(st.sampled_from((" dose,value", "dose,values",
                                               "dose", "")))]
        elif kind == "end":
            breaks[-1] = ""
    return "".join(",".join(fields) + br for fields, br in zip(lines, breaks))


class TestParseCsvMatchesRowWise:
    """parse_csv returns what the row-wise reference parse returns, or raises
    what it raises, whichever of its two paths takes the text."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_line_soups())
    def test_line_soups(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(parse_csv, text) == \
                _outcome(trial_io._parse_csv_rows, text)

    @pytest.mark.parametrize("text", [
        "dose,value\n0,1_000\n0,2\n",
        "dose,value\n0,\u0661\n0,2\n",
        "dose,value\n0,1\n  \n0,2\n",
        "dose,value\n0,1\r0,2\n",
        "dose,value\n0,1\r",
        "dose,value\n0\x85,1\n",
        "dose,value\n0\x0b,1\n",
        "dose,value\n",
        "dose,value\n\n \n",
        "dose,value\n0,nan\n",
        "dose,value\n0,1\n-1,2\n",
        "dose,value\n0,1,2\n",
    ])
    def test_inputs_numpy_reads_differently(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(parse_csv, text) == \
                _outcome(trial_io._parse_csv_rows, text)

    def test_plain_input_never_reaches_the_row_parser(self, monkeypatch):
        def row_parser(text):
            raise AssertionError("row-wise parse of plain input")

        monkeypatch.setattr(trial_io, "_parse_csv_rows", row_parser)
        text = "dose,value\n-0.0,9\n3,1\n\n0,8\n0.0,7\n 3 ,2"
        cohorts = parse_csv(text)
        assert [c.dose.hex() for c in cohorts] == ["-0x0.0p+0", "0x1.8000000000000p+1"]
        assert [c.observations for c in cohorts] == [(9.0, 8.0, 7.0), (1.0, 2.0)]


class TestSummarize:
    def test_hand_arithmetic_cohort(self):
        rows = summarize([DoseCohort(1.0, (0.0, 0.0, 3.0))])
        row = rows[0]
        assert row.mean_hat == 1.0
        assert abs(row.sd_hat - math.sqrt(2.0)) < 1e-15
        assert abs(row.skew_hat - 1.0 / math.sqrt(2.0)) < 1e-15
        assert row.n == 3

    def test_symmetric_cohort_zero_skew(self):
        rows = summarize([DoseCohort(0.0, (-1.0, 0.0, 1.0))])
        assert rows[0].skew_hat == 0.0

    def test_constant_cohort_degenerate(self):
        with pytest.raises(DegenerateCohort) as info:
            summarize([DoseCohort(2.0, (5.0, 5.0, 5.0))])
        assert info.value.dose == 2.0

    def test_single_observation_degenerate(self):
        with pytest.raises(DegenerateCohort):
            summarize([DoseCohort(2.0, (5.0,))])

    def test_permutation_invariant(self):
        a = summarize([DoseCohort(1.0, (3.0, 1.0, 7.0, 2.0))])[0]
        b = summarize([DoseCohort(1.0, (7.0, 2.0, 3.0, 1.0))])[0]
        assert (a.mean_hat, a.sd_hat, a.skew_hat) == (b.mean_hat, b.sd_hat, b.skew_hat)

    def test_converges_to_distribution_moments(self):
        params = SkewNormalParams(10.0, 4.0, 2.0)
        truth = moments_of_params(params)
        draws = sample(params, 10 ** 5, seed=3)
        row = summarize([DoseCohort(1.0, tuple(draws))])[0]
        assert abs(row.mean_hat - truth.mu) < 0.05
        assert abs(row.sd_hat - truth.sigma) < 0.05
        assert abs(row.skew_hat - truth.gamma) < 0.05

    def test_cohort_validation(self):
        with pytest.raises(DomainError):
            DoseCohort(-1.0, (1.0,))
        with pytest.raises(DomainError):
            DoseCohort(1.0, ())


class TestRoundTrips:
    def test_observations_survive_exactly(self):
        rng = np.random.default_rng(41)
        cohorts = [
            DoseCohort(0.0, tuple(rng.normal(33, 27, size=8))),
            DoseCohort(0.75, tuple(rng.normal(44, 31, size=8))),
            DoseCohort(1.0 / 3.0, (0.1, 1.0 / 3.0, 2.0 ** -45, 1e300)),
        ]
        cohorts.sort(key=lambda c: c.dose)
        back = parse_csv(emit_observations(cohorts))
        assert back == cohorts

    def test_summary_layout_matches_quoted_values(self):
        rows = [SummaryRow(d, m, s, g, 8) for d, m, s, g in
                zip(TRIAL_DOSES, TRIAL_MEANS, TRIAL_SDS, TRIAL_SKEWS)]
        text = emit_summary(rows)
        assert text.splitlines()[0] == "dose,mean,sd,skew,n"
        assert "0,33.3875,26.9715,-0.0276,8" in text
        assert "1.5,51.5,44.6582,1.2827,8" in text
        assert "3,78.225,31.9657,0.3504,8" in text

    def test_summary_reparses(self):
        rows = [SummaryRow(d, m, s, g, 8) for d, m, s, g in
                zip(TRIAL_DOSES, TRIAL_MEANS, TRIAL_SDS, TRIAL_SKEWS)]
        back = parse_summary_csv(emit_summary(rows))
        assert back == rows

    def test_summary_without_count_column(self):
        rows = parse_summary_csv("dose,mean,sd,skew\n0,10,2,0.1\n1,12,3,0.2\n")
        assert rows[0].n == 0
        assert rows[1].mean_hat == 12.0

    def test_summary_rejects_nonpositive_sd(self):
        with pytest.raises(ParseError):
            parse_summary_csv("dose,mean,sd,skew\n0,10,0,0.1\n")


class TestCurveEmission:
    MU = LogisticParams(m=-0.8278, p=-2.5929, l1=21.8153,
                        l2=21.8153 + 1.0 / 0.0116)

    def test_five_step_grid(self):
        text = emit_curve_points(lambda d: evaluate(self.MU, d), (0.0, 4.0), 5)
        lines = text.strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 6
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs == [0.0, 1.0, 2.0, 3.0, 4.0]
        for line in lines[1:]:
            x, y = map(float, line.split(","))
            assert y == evaluate(self.MU, x)

    def test_single_step_is_midpoint(self):
        text = emit_curve_points(lambda d: 2.0 * d, (0.0, 4.0), 1)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2,")

    def test_svg_structure(self):
        svg = emit_curve_svg(lambda d: evaluate(self.MU, d), (0.0, 4.0), 101)
        assert svg.startswith('<?xml version="1.0"')
        assert 'viewBox="0 0 800 500"' in svg
        assert "<polyline" in svg
        assert svg.count("<text") == 10  # 5 ticks per axis
        assert svg.rstrip().endswith("</svg>")

    def test_svg_flat_curve_does_not_divide_by_zero(self):
        svg = emit_curve_svg(lambda d: 1.0, (0.0, 4.0), 11)
        assert "<polyline" in svg
