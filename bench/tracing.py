"""Span tracing of skewdose's layers, from outside the package.

``Tracer.install()`` replaces every name under which a public function
of a layer module can be looked up -- its defining module, every
skewdose module that imported it by name (``skew_normal`` does
``from .special import erfc``, ``cli`` and ``dose_effect`` import
``logistic.evaluate`` as ``logistic_value``), and the package namespace
-- with a recorder.  ``uninstall()`` puts the originals back, so an
untraced pass runs the program's own functions.

A span is ``(job, id, parent, function, start_ns, end_ns, error, note)``.
Spans stay in memory; ``write_spans`` saves them when the run ends.
``note`` carries the work count some functions report (rows parsed or
emitted, draws, whether an offset search ran).
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import sys
import time

PACKAGE = "skewdose"
#: the layers, in pipeline order; ``errors`` does no work and is not traced
LAYERS = ("cli", "trial_io", "model_doc", "fitting", "logistic",
          "dose_effect", "skew_normal", "special", "quadrature")


def _rows_in_cohorts(cohorts):
    return sum(len(c.observations) for c in cohorts)


# function -> note(args, kwargs, result); each is O(number of doses)
NOTES = {
    "trial_io.parse_csv": lambda a, k, r: _rows_in_cohorts(r) if r else 0,
    "trial_io.parse_summary_csv": lambda a, k, r: len(r) if r else 0,
    "trial_io.emit_observations": lambda a, k, r: _rows_in_cohorts(a[0]),
    "trial_io.emit_summary": lambda a, k, r: len(a[0]),
    "trial_io.emit_curve_points":
        lambda a, k, r: a[2] if len(a) > 2 else k["steps"],
    "skew_normal.sample": lambda a, k, r: a[1] if len(a) > 1 else k["n"],
    "fitting.fit_gaussian_type":
        lambda a, k, r: int((a[2] if len(a) > 2 else k.get("offset", 0.0))
                            == "grid"),
}


class Tracer:
    def __init__(self):
        self.functions = []      # id -> "layer.function"
        self.spans = []
        self.job = -1
        self._stack = []
        self._ids = itertools.count()
        self._last_error = None
        self._patched = []       # (namespace, attribute, original)
        self._wrappers = {}      # id(original) -> wrapper
        errors = sys.modules[f"{PACKAGE}.errors"]
        self._error_type = errors.SkewDoseError
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    key = f"{layer}.{name}"
                    self._wrappers[id(fn)] = self._wrap(
                        len(self.functions), fn, NOTES.get(key))
                    self.functions.append(key)

    def _wrap(self, fn_id, fn, note):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, \
            time.perf_counter_ns
        error_type = self._error_type

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            err = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except error_type as exc:
                # count an error once, in the innermost span it left
                if exc is not self._last_error:
                    self._last_error = exc
                    err = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.job, sid, parent, fn_id, t0, t1, err,
                              note(args, kwargs, result) if note else 0))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take_spans(self) -> list:
        """The spans recorded so far; the recorder starts empty again."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(functions, spans) -> dict:
    """Per-layer counts and times from one traced pass.

    ``<layer>.self_ms`` is span time minus the time its child spans
    cover; the named work counts follow the benchmark's README.
    """
    child_ns = {}
    for _, _, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    calls = dict.fromkeys(functions, 0)
    inclusive_ns = dict.fromkeys(functions, 0)
    integrand_calls = 0
    integrate_ids = set()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_ms"] = 0.0
        out[f"{layer}.errors"] = 0
    work = dict.fromkeys(("rows_parsed", "rows_emitted", "draws",
                          "offset_search_ns"), 0)
    for _, sid, _, fn_id, t0, t1, err, note in spans:
        key = functions[fn_id]
        layer = key.split(".", 1)[0]
        calls[key] += 1
        inclusive_ns[key] += t1 - t0
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_ms"] += (t1 - t0 - child_ns.get(sid, 0)) / 1e6
        out[f"{layer}.errors"] += err
        if key in ("trial_io.parse_csv", "trial_io.parse_summary_csv"):
            work["rows_parsed"] += note
        elif key.startswith("trial_io.emit_") and key != "trial_io.emit_curve_svg":
            work["rows_emitted"] += note
        elif key == "skew_normal.sample":
            work["draws"] += note
        elif key == "fitting.fit_gaussian_type" and note:
            work["offset_search_ns"] += t1 - t0
        elif key == "quadrature.integrate":
            integrate_ids.add(sid)
    for _, _, parent, _, _, _, _, _ in spans:
        if parent in integrate_ids:
            integrand_calls += 1

    def ms(*keys):
        return sum(inclusive_ns[k] for k in keys) / 1e6

    integrals = calls["quadrature.integrate"]
    out.update({
        "trial_io.rows_parsed": work["rows_parsed"],
        "trial_io.parse_ms": ms("trial_io.parse_csv",
                                "trial_io.parse_summary_csv"),
        "trial_io.rows_emitted": work["rows_emitted"],
        "trial_io.emit_ms": ms("trial_io.emit_observations",
                               "trial_io.emit_summary",
                               "trial_io.emit_curve_points"),
        "skew_normal.draws": work["draws"],
        "skew_normal.sample_ms": ms("skew_normal.sample"),
        "skew_normal.estimate_ms": ms("skew_normal.estimate_moments",
                                      "skew_normal.estimate_params"),
        "fitting.polyfit_calls": calls["fitting.polyfit_quadratic"],
        "fitting.offset_search_ms": work["offset_search_ns"] / 1e6,
        "fitting.l1_residual_evals": calls["fitting.l1_equation_residual"],
        "fitting.solve_l1_ms": ms("fitting.solve_l1"),
        "dose_effect.moments_at_calls": calls["dose_effect.moments_at"],
        "dose_effect.grid_ms": ms("dose_effect.optimal_dose",
                                  "dose_effect.check_assumptions"),
        "logistic.evaluate_calls": calls["logistic.evaluate"],
        "skew_normal.cdf_calls": calls["skew_normal.cdf"],
        "skew_normal.pdf_calls": calls["skew_normal.pdf"],
        "quadrature.integrate_ms": ms("quadrature.integrate"),
        "quadrature.evals_per_integral":
            integrand_calls / integrals if integrals else 0.0,
        "special.erfc_calls": calls["special.erfc"],
    })
    return out


def is_count(name: str) -> bool:
    """Counts (everything but times) must repeat exactly across passes."""
    return not name.endswith("_ms")


def median_metrics(passes: list) -> dict:
    """Counts from the first pass, times as the median over passes."""
    first = passes[0]
    return {k: (v if is_count(k) else statistics.median(p[k] for p in passes))
            for k, v in first.items()}


def write_spans(path, functions, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("job,span,parent,function,start_ns,end_ns,error,note\n")
        for job, sid, parent, fn_id, t0, t1, err, note in spans:
            fh.write(f"{job},{sid},{parent},{functions[fn_id]},{t0},{t1},"
                     f"{err},{note}\n")
