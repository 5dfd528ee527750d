"""Machine-speed calibration for the benchmark's timings.

The reference machine is a 2-vCPU VM on a shared host. Its speed drifts by
up to 2x within minutes, so run-to-run spread hides changes of 25%. A fixed
pure-Python integer loop, timed just before and just after each measured
pass (and inside each set-up interpreter), follows much of that drift.
Over eight minutes of alternating passes, dividing by the loop's time cut
the spread between quartiles of 4-pass sums from 12-16% to 6-7% on each
workload.

Timings are therefore reported scaled to a machine on which the loop takes
``REFERENCE_S``: ``scaled = raw * REFERENCE_S / loop time``. The loop is
benchmark code, so a change to the package moves scaled and raw timings
alike.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0125      # fixed: the loop's time that timings are scaled to
SAMPLES = 3               # loop timings per calibration point
_ITERATIONS = 100_000


def loop_times() -> list[float]:
    """Wall times of SAMPLES runs of the fixed integer loop."""
    out = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        total = 0
        for i in range(_ITERATIONS):
            total += (i * i) % 7
        out.append(time.perf_counter() - t0)
    return out


def scale(loop_samples: list[float]) -> float:
    """Factor for a timing taken next to these loop timings."""
    return REFERENCE_S / statistics.median(loop_samples)
