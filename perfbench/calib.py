"""Host-speed probe: times a fixed unit of work on request.

``python3 perfbench/calib.py`` reads one line from stdin per sample, times
one ``unit`` and writes that wall time in seconds on a line of its own; it
exits at end of input.  The runner keeps one such process for a whole run
and takes a sample before every measured child, while no op is running.
The ``tables-10m`` driver (``inproc.py --mode calibrated``) calls
``timed_unit`` itself between its ops.

The shared host's speed drifts by up to 1.6x for seconds to minutes at a
time, and a whole 30 s run can sit on a slow stretch.  The work below
belongs to the benchmark, not to addrep, so no change to the program
moves it; how long it takes says how fast the host was during the run,
and the runner scales the program's wall times by ``CALIB_REFERENCE_S``
over its median.  The unit mixes the three kinds of work the program does: a
Python-level loop of small numpy gathers and sums (the step loops of
``applications`` and ``recursion``), plain interpreter arithmetic (the
oracle, row building) and whole-array passes (the sieve and sequence
tables; over 256 KB arrays, so that the probe adds almost nothing to the
peak memory of the ``tables-10m`` driver, which samples in-process).
"""

from __future__ import annotations

import sys
import time

import numpy as np



def unit(table: np.ndarray, odd: np.ndarray, big: np.ndarray) -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    total = 0
    for n in range(2, 1_600):
        j = int(np.searchsorted(odd, n, side="right"))
        total += int(table[2 * n - odd[:j]].sum(dtype=np.int64))
    for i in range(200_000):
        total += i * i & 0xFF
    for _ in range(64):
        total += int(np.cumsum(big % 7)[-1])
    return total


def timed_unit() -> float:
    """Wall time of one unit.  Its inputs (under 1 MB) exist only around
    the timing, so a process that samples between its ops keeps almost no
    memory of the probe's at its peak."""
    args = (
        np.cumsum(np.arange(4_000) % 3 == 0, dtype=np.int64),
        np.arange(1, 2_000, 2, dtype=np.int64),
        np.arange(32_768, dtype=np.int64),
    )
    t0 = time.perf_counter()
    unit(*args)
    return time.perf_counter() - t0


def main() -> int:
    timed_unit()  # warm caches and allocator before the first sample
    for _ in sys.stdin:
        print(f"{timed_unit():.9f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
