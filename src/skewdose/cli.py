"""Command-line front end.

Subcommands chain the library into the full pipeline: summarize raw
observations, fit the three curves, simulate at a dose, pick an optimal
dose, emit curve data or SVG, and check the model-shape assumptions.

Every subcommand is a pure function of (input bytes, flags, seed):
exit 0 on success, 1 on domain errors (reported to stderr as
``ERROR <code>: <message>``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import Optional, Sequence

from . import dose_effect, fitting, model_doc, trial_io
from .dose_effect import DoseEffectModel
from .errors import ParseError, SkewDoseError
from .logistic import evaluate as logistic_value
from .trial_io import SummaryRow


def _read_input(path: str) -> str:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return trial_io._decode(data)


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_summary(text: str) -> list[SummaryRow]:
    """Accept either raw observations or ready-made summary rows."""
    # only the first line: splitting the whole input costs as much as parsing
    header = (text.partition("\n")[0].splitlines() or [""])[0].strip()
    if header == "dose,value":
        return trial_io.summarize(trial_io.parse_csv(text))
    if header.startswith("dose,mean,sd,skew"):
        return trial_io.parse_summary_csv(text)
    raise ParseError(1, "expected header 'dose,value' or 'dose,mean,sd,skew'")


def _fit_model(rows: list[SummaryRow], regime: str, l1: Optional[float],
               l2: Optional[float], offset_mode: str) -> DoseEffectModel:
    doses = [r.dose for r in rows]
    means = [r.mean_hat for r in rows]
    sds = [r.sd_hat for r in rows]
    skews = [r.skew_hat for r in rows]

    mu_curve, _ = fitting.fit_logistic(doses, means, regime=regime,
                                       l1=l1, l2=l2)
    family, d0_hat = dose_effect.classify_sigma_shape(doses, sds)
    if family == "gaussian_type":
        sigma_curve = fitting.fit_gaussian_type(doses, sds, offset=0.0)
    else:
        # the dispersion must vanish at large doses, pinning the lower
        # asymptote of a logistic dispersion curve to 0
        sigma_curve, _ = fitting.fit_logistic(doses, sds, regime="l1", l1=0.0)
    gamma_offset = 0.0 if offset_mode == "zero" else "grid"
    gamma_curve = fitting.fit_gaussian_type(doses, skews, offset=gamma_offset)
    return DoseEffectModel(mu_curve=mu_curve, sigma_curve=sigma_curve,
                           gamma_curve=gamma_curve, d0_hat=d0_hat)


def _cmd_summarize(args) -> str:
    cohorts = trial_io.parse_csv(_read_input(args.input))
    return trial_io.emit_summary(trial_io.summarize(cohorts))


def _cmd_fit(args, parser: argparse.ArgumentParser) -> str:
    if args.regime == "both" and (args.l1 is None or args.l2 is None):
        parser.error("--regime both requires --l1 and --l2")
    if args.regime == "l1" and args.l1 is None:
        parser.error("--regime l1 requires --l1")
    rows = _load_summary(_read_input(args.input))
    model = _fit_model(rows, args.regime, args.l1, args.l2, args.offset)
    return model_doc.serialize_model(model)


def _cmd_simulate(args) -> str:
    model = model_doc.parse_model(_read_input(args.input))
    values = dose_effect.simulate(model, args.dose, args.n, args.seed)
    cohort = trial_io.DoseCohort(dose=args.dose, observations=tuple(values))
    return trial_io.emit_observations([cohort])


def _cmd_optimal(args, parser: argparse.ArgumentParser) -> str:
    if (args.weights is None) == (args.thresholds is None):
        parser.error("optimal requires exactly one of --weights / --thresholds")
    model = model_doc.parse_model(_read_input(args.input))
    result = dose_effect.optimal_dose(
        model, tuple(args.interval),
        weights=tuple(args.weights) if args.weights else None,
        thresholds=tuple(args.thresholds) if args.thresholds else None,
    )
    lines = [
        f"dose={result.dose:.17g}",
        f"mode={result.mode}",
        f"mean={result.mean:.17g}",
        f"sd={result.sd:.17g}",
        f"skewness={result.skewness:.17g}",
    ]
    if result.objective is not None:
        lines.append(f"objective={result.objective:.17g}")
    lines.append(f"sd_model_min={result.sd_model_min:.17g}")
    lines.append(f"sd_model_max={result.sd_model_max:.17g}")
    return "\n".join(lines) + "\n"


def _curve_function(model: DoseEffectModel, which: str):
    if which == "mu":
        return lambda d: logistic_value(model.mu_curve, d)
    if which == "sigma":
        return lambda d: dose_effect.sigma_value(model.sigma_curve, d)
    return lambda d: fitting.gaussian_type_value(model.gamma_curve, d)


def _cmd_plot(args) -> str:
    model = model_doc.parse_model(_read_input(args.input))
    curve = _curve_function(model, args.curve)
    interval = tuple(args.interval)
    if args.format == "svg":
        return trial_io.emit_curve_svg(curve, interval, args.steps)
    return trial_io.emit_curve_points(curve, interval, args.steps)


def _cmd_check(args) -> str:
    model = model_doc.parse_model(_read_input(args.input))
    report = dose_effect.check_assumptions(model, args.horizon, args.eps)
    lines = [
        f"decreasing_ok={'true' if report.decreasing_ok else 'false'}",
        f"vanishing_ok={'true' if report.vanishing_ok else 'false'}",
        f"sigma_at_horizon={report.sigma_at_horizon:.17g}",
        f"start_dose={report.start_dose:.17g}",
    ]
    if report.first_violation is not None:
        lines.insert(1, f"first_violation={report.first_violation:.17g}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """Argument parser that reads ``-6.5e-05`` and ``-inf`` as numbers.

    Stock argparse (3.11) only takes ``-<digits>`` and ``-<digits>.<digits>``
    for negative numbers, so a negative value in exponent form ends the
    value list of a float option.  Here a dash followed by a digit, or by a
    dot and a digit, is a number, and so is ``-inf`` or ``-infinity`` in
    any case; no option of this parser starts that way.  Subparsers
    inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-(?:\.?\d|inf(?:inity)?\Z)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewdose",
        description="Skew-normal dose-effect modeling: summarize trials, "
                    "fit mean/dispersion/skewness curves, simulate and "
                    "report optimal doses.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", default="-", help="input path, '-' = stdin")
        p.add_argument("--output", default="-", help="output path, '-' = stdout")

    p = sub.add_parser("summarize", help="per-dose summary statistics")
    add_io(p)

    p = sub.add_parser("fit", help="fit the full dose-effect model")
    add_io(p)
    p.add_argument("--regime", choices=("both", "l1", "none"), default="none",
                   help="which mean-curve asymptotes are known")
    p.add_argument("--l1", type=float, default=None, help="lower asymptote")
    p.add_argument("--l2", type=float, default=None, help="upper asymptote")
    p.add_argument("--offset", choices=("zero", "grid"), default="grid",
                   help="skewness-curve offset: fixed 0 or grid search")

    p = sub.add_parser("simulate", help="draw effect values at one dose")
    add_io(p)
    p.add_argument("--dose", type=float, required=True)
    p.add_argument("--n", type=int, default=100, help="number of draws")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("optimal", help="select a dose on an interval")
    add_io(p)
    p.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"),
                   required=True)
    p.add_argument("--weights", type=float, nargs=3,
                   metavar=("WM", "WS", "WG"), default=None,
                   help="maximize WM*mean - WS*sd + WG*skew (normalized)")
    p.add_argument("--thresholds", type=float, nargs=3,
                   metavar=("MMIN", "SMAX", "GMIN"), default=None,
                   help="smallest dose with mean>=MMIN, sd<=SMAX, skew>=GMIN")

    p = sub.add_parser("plot", help="emit curve points as CSV or SVG")
    add_io(p)
    p.add_argument("--curve", choices=("mu", "sigma", "gamma"), required=True)
    p.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"),
                   required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")

    p = sub.add_parser("check", help="verify dispersion-shape assumptions")
    add_io(p)
    p.add_argument("--horizon", type=float, default=20.0)
    p.add_argument("--eps", type=float, default=1e-3)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "summarize":
            out = _cmd_summarize(args)
        elif args.command == "fit":
            out = _cmd_fit(args, parser)
        elif args.command == "simulate":
            out = _cmd_simulate(args)
        elif args.command == "optimal":
            out = _cmd_optimal(args, parser)
        elif args.command == "plot":
            out = _cmd_plot(args)
        else:
            out = _cmd_check(args)
    except SkewDoseError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # parser.error inside a handler
        return exc.code if isinstance(exc.code, int) else 2
    except OSError as exc:
        print(f"ERROR IOError: {exc}", file=sys.stderr)
        return 1

    _write_output(args.output, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
