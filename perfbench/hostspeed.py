"""How fast the host runs Python right now, to put timings in fixed units.

The reference machine (2 shared vCPUs) alternates between its normal
speed and one up to about 1.7x slower, for anything from a second to many
minutes, and a slow spell slows CPU time as much as wall time.  So every
timing the benchmark reports is taken beside :func:`calibrate`, a fixed
pure-Python loop that belongs to the benchmark, and rescaled by
:func:`reference_seconds` to what it would have been had the loop run at
the reference machine's normal speed.  Of the loops tried (pure Python,
numpy on cache-sized arrays, numpy on 8 MiB arrays) the pure-Python one
followed the program's slowdowns best.
"""

from __future__ import annotations

import time

#: Iterations of one calibration loop; :func:`calibrate` takes the
#: fastest of :data:`REPEATS` loops, so a stray interrupt does not count.
LOOPS = 20000
REPEATS = 3

#: :func:`calibrate` on the reference machine at its normal speed (the
#: fast mode of many samples; see README.md).  Only a scale: any constant
#: would do, this one makes reported seconds read like real ones there.
REFERENCE_S = 0.0020


def calibrate() -> float:
    """Seconds this host takes for the fixed loop now."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(LOOPS):
            acc += i * i % 7
            table[i & 255] = acc
        best = min(best, time.perf_counter() - start)
    return best


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibrations ``before`` and ``after``,
    rescaled to the reference machine's normal speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
