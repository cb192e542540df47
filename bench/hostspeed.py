"""Host-speed correction for the benchmark's timings.

On a shared host the CPU speed of a plain Python loop drifts by up to
75% over minutes, as other tenants come and go, so raw wall times of the
same code spread far beyond any useful bound.  The benchmark therefore
times a fixed reference kernel before and after each timed piece of work
and reports that work's time scaled to a host on which the kernel takes
``REF_KERNEL_MS``:

    corrected = wall time * REF_KERNEL_MS / kernel time around it

The kernel does the kinds of work the program does (split and parse
text, reduce in Python, call ``math`` functions, sort with numpy, format
floats) and imports nothing from skewdose, so a change to the program
cannot change it.  Raw wall times are printed next to the corrected ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: corrected times are for a host on which the kernel takes this long, ms
REF_KERNEL_MS = 1.0

_LINES = [f"{k % 8 * 0.5:.4f},{k * 7919 % 10007 / 97.0:.4f}"
          for k in range(1200)]


def reference_kernel() -> int:
    """Fixed work of the kinds the program does: parse, reduce, format."""
    by_dose = {}
    for line in _LINES:
        dose, value = line.split(",")
        by_dose.setdefault(float(dose), []).append(float(value))
    size = 0
    for values in by_dose.values():
        mean = sum(values) / len(values)
        acc = 0.0
        for v in values:
            acc += math.erfc((v - mean) * 0.01) * math.exp(-v * 0.001)
        ordered = np.sort(np.asarray(values)) - acc
        size += len("\n".join(f"{v:.6f}" for v in ordered.tolist()))
    return size


def reference_ns() -> int:
    """Fastest of three back-to-back runs of the reference kernel, in ns."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        reference_kernel()
        times.append(time.perf_counter_ns() - t0)
    return min(times)


def corrected_ms(wall_ns: float, ref_ns: float) -> float:
    """Wall time in ms, scaled to the reference host's speed."""
    return wall_ns / ref_ns * REF_KERNEL_MS
