"""Correction of timings to a reference CPU speed.

On the shared virtual machine the benchmark was defined on, the CPU runs
in two speed states about 1.5x apart that switch every few seconds, and
the average speed drifts by up to 2x over an hour.  The slowdown is the
same for interpreter, numpy and process start-up work, so a short fixed
kernel measured next to each op tracks it: a timing is reported as

    wall_ms * K_REF_MS / kernel_ms

where ``kernel_ms`` is the kernel's time around that op (median over the
kernel samples taken within WINDOW_S of it).  K_REF_MS defines the
reference speed: at it, corrected and wall times are equal.  Raw wall
times are kept in the results rows.
"""

from __future__ import annotations

import statistics
from time import perf_counter

K_REF_MS = 2.5
WINDOW_S = 0.5
_LOOPS = 30000


def kernel_ms(repeat: int = 1) -> tuple[float, float]:
    """(when, median time in ms) of ``repeat`` runs of the fixed kernel."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        acc = 0
        for j in range(_LOOPS):
            acc += j * j
        times.append((perf_counter() - t0) * 1e3)
    return perf_counter(), statistics.median(times)


def corrected(samples: list) -> list[float]:
    """``samples`` of (wall_ms, kernel_at, kernel_ms) in time order ->
    wall times at the reference speed."""
    out = []
    lo = 0
    for i, (ms, at, _) in enumerate(samples):
        while samples[lo][1] < at - WINDOW_S:
            lo += 1
        hi = i
        while hi + 1 < len(samples) and samples[hi + 1][1] <= at + WINDOW_S:
            hi += 1
        k = statistics.median(s[2] for s in samples[lo:hi + 1])
        out.append(ms * K_REF_MS / k)
    return out
