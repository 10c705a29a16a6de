"""Host-speed probe used to normalize every reported time.

On a shared 2-vCPU host the same pure-Python loop runs up to 1.5x slower
for stretches of seconds to minutes (neighbours on the physical core; CPU
time slows with wall time, so it is not steal), and the two vCPUs drift
independently.  A raw launch time therefore measures the neighbours as
much as the program.  Each launch runs a fixed ~10 ms probe on its own
CPU right before and right after the timed call; the launch time is
scaled by ``REFERENCE_PROBE_S / probe``, i.e. reported in seconds at the
host speed where one probe takes ``REFERENCE_PROBE_S``.  The probe never
touches ``repro``, so a change to the program moves the normalized time
exactly as it moves the raw one.
"""

from __future__ import annotations

import time

#: Probe time on an uncontended core of the 2-vCPU host the benchmark
#: was calibrated on (Python 3.11); only a scale, it cancels in ratios.
REFERENCE_PROBE_S = 0.002


def _work(n: int) -> int:
    table = {}
    acc = 0
    for i in range(n):
        key = i & 1023
        table[key] = table.get(key, 0) + (i ^ acc)
        acc = (acc + table[key]) & 0xFFFF
    return acc


def probe(reps: int = 5, n: int = 10000) -> float:
    """Median seconds of ``reps`` runs of a fixed dict-and-int loop."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        _work(n)
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[reps // 2]


def normalize(seconds: float, probe_s: float) -> float:
    """``seconds`` rescaled to the reference host speed."""
    return seconds * REFERENCE_PROBE_S / probe_s
