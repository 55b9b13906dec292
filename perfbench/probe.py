"""Probe of how fast the benchmark's core runs, taken while a workload runs.

On a shared host another tenant can slow a core by up to about 2x, for
seconds to minutes at a time; a whole run's time then says more about the
neighbours than about the program. The probe runs a tiny fixed kernel,
an interpreter loop on a few integers, every `PERIOD_S` in a thread
pinned to the same core as the workload's child process. The kernel
touches almost no memory, so the child's own use of the caches barely
moves it, and it does not change when cohadm changes. It takes about 2%
of the core.

Each sample is the kernel's duration at that moment. `slowdown` gives,
for an interval of the workload, how much slower than `REFERENCE_S` (the
kernel on a quiet core) the kernel ran around it. Contention slows a
workload's time as a power of that slowdown, its sensitivity, which
depends on the workload's mix of work (see `Workload.sensitivity`).
Dividing a segment's time by slowdown ** sensitivity estimates its time
on a quiet core; on a quiet core the slowdown is 1 and the time is left
as measured.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter

import numpy as np

LOOP = 2000
PERIOD_S = 0.02
REFERENCE_S = 1.7e-4      # the kernel's time on a quiet core of the reference host
WINDOW_S = 0.15           # samples this close to a segment describe it


class Probe:
    """Samples the kernel's duration in a thread pinned to `cpu`."""

    def __init__(self, cpu: int):
        self._cpu = cpu
        self._stop = threading.Event()
        self._thread = None
        self.times: list[float] = []
        self.durations: list[float] = []

    @staticmethod
    def kernel() -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(LOOP):
            acc = (acc * 31 + i) & 0xFFFF
        return perf_counter() - t0

    def _loop(self) -> None:
        os.sched_setaffinity(0, {self._cpu})       # this thread only
        for _ in range(20):
            self.kernel()                          # warm up
        while True:                                # at least one sample
            t = perf_counter()
            d = self.kernel()
            self.times.append(t + d / 2)
            self.durations.append(d)
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "Probe":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """How much slower than REFERENCE_S the core ran over each interval.

        The median of the samples within WINDOW_S of the interval; an
        interval with no sample near it gets the median of all samples.
        """
        times = np.asarray(self.times)
        durs = np.asarray(self.durations)
        lo = np.searchsorted(times, starts - WINDOW_S)
        hi = np.searchsorted(times, ends + WINDOW_S)
        overall = float(np.median(durs))
        local = np.array([np.median(durs[a:b]) if b > a else overall
                          for a, b in zip(lo, hi)])
        return local / REFERENCE_S
