"""The benchmark's tracer still finds every layer and name it reads.

``bench/tracing.py`` looks up each layer module in ``sys.modules`` and
reads per-function counts by name; a module or public function that
disappears breaks traced benchmark runs.  This builds the tracer and its
metrics on an empty pass, which takes milliseconds.
"""

import importlib.util
from pathlib import Path

import skewdose.cli  # noqa: F401  (loads every layer module)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_reads_every_layer_and_name():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    metrics = tracing.layer_metrics(tracer.functions, [])
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.calls"] == 0
