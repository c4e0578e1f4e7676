"""A host clock corrected for the speed of a shared, noisy machine.

On a host shared with other tenants the same pure-Python work can take
1.5x longer for stretches of a second or more, which is wider than any
regression bound worth having. Once started, :class:`HostClock` re-runs a
short, fixed pure-Python probe after every ``PROBE_INTERVAL_S`` of process
CPU time (from a ``SIGPROF`` timer, so it lands inside long simulator calls
too) and scales the host time that follows by ``REFERENCE_PROBE_S / probe
time``, the probe time being the faster of two runs. The probe never
touches ``repro``, so a faster simulator still reads as faster, while a
slower host reads as the same speed. Time spent probing is left out of
the clock. On an unloaded host the clock runs at about the rate of
``time.perf_counter``.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List

#: Probe time on an unloaded host (2-vCPU x86-64 VM, CPython 3.11); it
#: only sets the unit of the corrected clock.
REFERENCE_PROBE_S = 0.00075
PROBE_ITERATIONS = 6000
PROBE_INTERVAL_S = 0.1
_PROBE_TABLE = {i: (i * 7919) & 0xFFFF for i in range(4096)}
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds for a fixed loop of integer arithmetic and dict lookups."""
    table = _PROBE_TABLE
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc ^= table[(i * 2654435761) & 4095] + i
    return time.perf_counter() - start


def resident_mb() -> float:
    """The process's resident set size now, in MiB (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_BYTES / 2**20


class HostClock:
    """Speed-corrected seconds, re-measured periodically between start and stop.

    Each re-measurement also appends :func:`resident_mb` to
    :attr:`rss_samples`, so memory is sampled at a fixed rate of work.
    """

    def __init__(self) -> None:
        #: Bumped by every re-measurement, so :meth:`now` can tell that the
        #: timer interrupted it and read again.
        self._version = 0
        self._factor = 1.0
        self._total = 0.0
        self._mark = time.perf_counter()
        self.rss_samples: List[float] = []
        self._measure()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def now(self) -> float:
        while True:
            version = self._version
            value = self._total + (time.perf_counter() - self._mark) * self._factor
            if version == self._version:
                return value

    def _on_timer(self, signum, frame) -> None:
        self._measure()

    def _measure(self) -> None:
        self._version += 1
        self._total += (time.perf_counter() - self._mark) * self._factor
        self._factor = REFERENCE_PROBE_S / min(probe(), probe())
        self.rss_samples.append(resident_mb())
        self._mark = time.perf_counter()
