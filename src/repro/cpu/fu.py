"""Functional-unit occupancy model (SpectreRewind / interference substrate).

Two small timestamp-domain trackers back the non-cache covert channels:

* :class:`FuPool` — a **non-pipelined divider** shared between the committed
  path and ``_run_wrong_path``. Real dividers (and other long-latency
  non-pipelined units) keep grinding after a squash: an in-flight transient
  division is *not* cancelled, so a younger-in-time **committed** division
  observes a busy unit and starts late. That contention delta is exactly the
  SpectreRewind primitive — it leaks from transient to pre-transient/committed
  instructions without touching any cache state, so undo-based defenses that
  roll the cache back (CleanupSpec) cannot close it.

* :class:`OccupancyTimeline` — busy intervals on a shared downstream port
  (the L2/memory side of the hierarchy). One context records the cycles its
  beyond-L1 accesses occupy the port; a second context replays against the
  recording and sees its own accesses pushed later (Speculative Interference
  Attacks: even *cancellable* or *shadowed* requests occupy shared bandwidth
  while in flight, which a sibling context can time).

Both trackers live in plain cycle timestamps — the same one-pass timing
domain as :class:`~repro.cpu.core.Core` — and are deliberately tiny: no
cycle-stepping, no event queue. A :class:`FuPool` is created fresh per
``Core.run`` call (per round), so no divider occupancy leaks across
rounds. :class:`OccupancyTimeline` instances, by contrast, intentionally
couple two *separate* runs (victim records, attacker replays).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# The FU identifiers are assigned at decode time, so they are defined next to
# the tuple layouts in repro.isa.decoded (importing the other way round would
# be circular); this module is their canonical re-export for core-side code.
from ..isa.decoded import FU_ALU, FU_BY_OP, FU_DIV, FU_MUL, fu_for_op

__all__ = [
    "FU_ALU",
    "FU_MUL",
    "FU_DIV",
    "FU_BY_OP",
    "fu_for_op",
    "FuPool",
    "OccupancyTimeline",
]


class FuPool:
    """Issue-occupancy tracker for the non-pipelined functional units.

    Only the divider is non-pipelined in this model (the ALU and the
    multiplier accept one op per cycle, so they never induce structural
    delay in a timestamp model). ``acquire_div`` serialises divisions:
    a division that arrives while the unit is busy starts when the unit
    frees, and the unit then stays busy for the full latency — whether the
    issuing instruction is committed-path or transient. A squash does not
    release the unit: that is the physical property SpectreRewind exploits.
    """

    __slots__ = ("div_busy_until", "div_issues", "div_contended")

    def __init__(self) -> None:
        #: Cycle the divider frees; divisions arriving earlier queue.
        self.div_busy_until = 0
        #: Divisions issued (committed + transient) this run.
        self.div_issues = 0
        #: Divisions that found the unit busy and had to wait.
        self.div_contended = 0

    def acquire_div(self, start: int, latency: int, deadline: int) -> Optional[int]:
        """Occupy the divider for a division ready at ``start``.

        The division issues at ``max(start, busy_until)`` and the unit stays
        busy until ``issue + latency``; the caller completes it then. A
        transient division whose issue slot lands at or past ``deadline``
        (its squash point) is still in the reservation station when the
        squash hits and dies like any un-issued uop: the call returns None
        and leaves no side effect. Committed divisions pass ``NEVER`` and
        always issue. Returns the issue cycle.
        """
        busy = self.div_busy_until
        actual = busy if busy > start else start
        if actual >= deadline:
            return None
        if busy > start:
            self.div_contended += 1
        self.div_busy_until = actual + latency
        self.div_issues += 1
        return actual


class OccupancyTimeline:
    """Busy intervals on a shared port, in one context's cycle domain.

    The recording context calls :meth:`record` for every interval its
    accesses occupy the port; the contending context calls :meth:`next_free`
    to find when a request arriving at ``t`` actually gets the port. The
    deterministic interleave is strictly one-way (recorder has priority):
    the recorder's timing is computed first and is never perturbed by the
    replayer, which keeps both runs' timings well-defined in one pass.
    """

    __slots__ = ("_intervals", "_sorted")

    def __init__(self) -> None:
        self._intervals: List[Tuple[int, int]] = []
        self._sorted = True

    def record(self, start: int, duration: int) -> None:
        """Mark the port busy for ``[start, start + duration)``."""
        if duration <= 0:
            return
        iv = self._intervals
        if iv and start < iv[-1][0]:
            self._sorted = False
        iv.append((start, start + duration))

    @property
    def busy_cycles(self) -> int:
        """Total recorded busy cycles (intervals may overlap)."""
        return sum(end - start for start, end in self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def next_free(self, t: int) -> int:
        """Earliest cycle >= ``t`` at which the port is not recorded busy.

        A request landing inside a busy interval slips to that interval's
        end, then re-checks (recorded intervals may abut or overlap).
        """
        if not self._sorted:
            self._intervals.sort()
            self._sorted = True
        for start, end in self._intervals:
            if start > t:
                break
            if end > t:
                t = end
        return t
