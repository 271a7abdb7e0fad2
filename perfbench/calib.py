"""Machine-speed reference for normalising timings on a shared host.

The host's speed drifts by about a quarter over tens of seconds while
other work shares its cores, and CPU time drifts with wall time, so runs
made minutes apart are not comparable as raw times.  ``reference()`` times a
fixed pure-Python kernel (float arithmetic, ``math`` calls and function
calls, as in ncbeta's interpreted loops) that never touches ncbeta.
Timings interleaved with it are scaled by ``REF_S / reference time``: the
reported figure is what the work would take at the speed the host has when
the kernel takes REF_S.  The kernel does not change with the program, so a
change to ncbeta moves the normalised figures exactly as it moves raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

REF_S = 0.004  # kernel time that defines the reference speed
EVERY_S = 0.25  # interval between kernel runs inside a measurement


def _step(x):
    return math.exp(-x) * math.log1p(x) + math.lgamma(1.0 + x) / (1.0 + x * x)


def reference() -> float:
    """Wall seconds of one run of the fixed kernel."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 8000):
        s += _step(i * 1e-3)
    if not s > 0.0:
        raise AssertionError("reference kernel result lost")
    return time.perf_counter() - t0


def scales(durations: list[float], window: int = 8) -> list[float]:
    """Per-interval factors REF_S / (median of the kernel times at most
    ``window`` intervals away), damping single-run jitter of the kernel."""
    out = []
    for k in range(len(durations)):
        near = durations[max(0, k - window) : k + window + 1]
        out.append(REF_S / statistics.median(near))
    return out
