"""Miss Status Holding Register (MSHR) file.

The MSHR tracks cache misses that are in flight. CleanupSpec relies on it
twice: (T3) at squash time, in-flight *mis-speculated* loads must be cleaned
out of the MSHR before rollback starts, and the MSHR records, per
speculative fill, the L1 **victim line** that the fill evicted — which is
exactly the information the restoration step replays.

Entries merge: a second miss to a line that already has an entry attaches to
the existing entry rather than allocating a new one (and costs no extra
memory traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common.errors import MshrFullError


class MshrEntry:
    """One outstanding miss (``__slots__``: allocated on the access path)."""

    __slots__ = (
        "line_addr",
        "issue_cycle",
        "complete_cycle",
        "speculative",
        "victim_line",
        "victim_dirty",
        "merged",
    )

    def __init__(
        self,
        line_addr: int,
        issue_cycle: int,
        complete_cycle: int,
        speculative: bool = False,
        victim_line: Optional[int] = None,
        victim_dirty: bool = False,
        merged: int = 1,
    ) -> None:
        self.line_addr = line_addr
        self.issue_cycle = issue_cycle
        self.complete_cycle = complete_cycle
        self.speculative = speculative
        #: L1 line evicted by this fill, if any (captured for restoration).
        self.victim_line = victim_line
        self.victim_dirty = victim_dirty
        #: How many accesses merged into this entry (including the first).
        self.merged = merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        spec = " spec" if self.speculative else ""
        return (
            f"<MshrEntry {self.line_addr:#x} issue={self.issue_cycle} "
            f"complete={self.complete_cycle}{spec} merged={self.merged}>"
        )


@dataclass
class MshrStats:
    allocations: int = 0
    merges: int = 0
    stall_events: int = 0
    cleaned_inflight: int = 0


class MshrFile:
    """Fixed-capacity MSHR file with merge semantics."""

    #: Sentinel for "no entries": any real completion cycle is smaller.
    _NO_ENTRIES = 1 << 62

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be at least 1")
        self.capacity = capacity
        self._entries: Dict[int, MshrEntry] = {}
        #: Lower bound on the earliest completion among entries (may be
        #: stale-low after deletions; only used to skip retire scans).
        self._min_complete = self._NO_ENTRIES
        self.stats = MshrStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def earliest_completion(self) -> int:
        """No entry completes before this cycle (a lower bound).

        It may sit below the true earliest completion after entries are
        dropped without a retire, and is a huge sentinel when the file is
        empty; :meth:`retire_completed` at an earlier cycle retires nothing.
        """
        return self._min_complete

    def can_allocate(self, line_addr: int) -> bool:
        """True if a miss to ``line_addr`` can proceed (free slot or merge)."""
        return line_addr in self._entries or len(self._entries) < self.capacity

    def can_allocate_at(self, line_addr: int, cycle: int) -> bool:
        """Side-effect-free :meth:`can_allocate` as of ``cycle``.

        Answers whether a miss to ``line_addr`` issued at ``cycle`` would
        find a slot (or merge) *after* entries completed by then retire —
        without actually retiring them. The core uses this to predict the
        MSHR-full penalty of a wrong-path load before deciding whether the
        load lands (and mutates state) at all.
        """
        entry = self._entries.get(line_addr)
        if entry is not None and entry.complete_cycle > cycle:
            return True  # merges into the still-in-flight entry
        inflight = sum(1 for e in self._entries.values() if e.complete_cycle > cycle)
        return inflight < self.capacity

    def lookup(self, line_addr: int) -> Optional[MshrEntry]:
        return self._entries.get(line_addr)

    def allocate(
        self,
        line_addr: int,
        issue_cycle: int,
        complete_cycle: int,
        speculative: bool = False,
        victim_line: Optional[int] = None,
        victim_dirty: bool = False,
    ) -> MshrEntry:
        """Allocate (or merge into) an entry for a miss to ``line_addr``.

        Merging keeps the earlier completion time; a merge of a
        non-speculative access into a speculative entry marks the entry
        non-speculative (the line is now architecturally demanded).
        """
        existing = self._entries.get(line_addr)
        if existing is not None:
            existing.merged += 1
            existing.speculative = existing.speculative and speculative
            self.stats.merges += 1
            return existing
        if len(self._entries) >= self.capacity:
            self.stats.stall_events += 1
            raise MshrFullError(f"MSHR full ({self.capacity} entries) on {line_addr:#x}")
        entry = MshrEntry(
            line_addr=line_addr,
            issue_cycle=issue_cycle,
            complete_cycle=complete_cycle,
            speculative=speculative,
            victim_line=victim_line,
            victim_dirty=victim_dirty,
        )
        self._entries[line_addr] = entry
        if complete_cycle < self._min_complete:
            self._min_complete = complete_cycle
        self.stats.allocations += 1
        return entry

    #: Shared fast-path return value for "nothing retired" (never mutated by
    #: callers; avoids one list allocation per cache access).
    _NOTHING: List[MshrEntry] = []

    def retire_completed(self, cycle: int) -> List[MshrEntry]:
        """Remove and return entries whose fill completed by ``cycle``."""
        if cycle < self._min_complete:
            return self._NOTHING  # nothing can have completed yet — skip the scan
        done = [e for e in self._entries.values() if e.complete_cycle <= cycle]
        for entry in done:
            del self._entries[entry.line_addr]
        if self._entries:
            self._min_complete = min(e.complete_cycle for e in self._entries.values())
        else:
            self._min_complete = self._NO_ENTRIES
        return done

    def inflight_speculative(self, cycle: int) -> List[MshrEntry]:
        """Speculative entries still in flight at ``cycle`` (T3 targets)."""
        return [
            e
            for e in self._entries.values()
            if e.speculative and e.complete_cycle > cycle
        ]

    def clean_speculative(self, cycle: int) -> List[MshrEntry]:
        """Drop speculative in-flight entries (CleanupSpec's T3) and return them."""
        victims = self.inflight_speculative(cycle)
        for entry in victims:
            del self._entries[entry.line_addr]
        self.stats.cleaned_inflight += len(victims)
        return victims

    def clear(self) -> None:
        self._entries.clear()
        self._min_complete = self._NO_ENTRIES

    def register_stats(self, registry, prefix: str = "mshr") -> None:
        """Publish MSHR counters under ``prefix`` (pull-based)."""
        st = self.stats
        registry.gauge(f"{prefix}.allocations", "misses allocated an entry").add_source(
            lambda: st.allocations
        )
        registry.gauge(f"{prefix}.merges", "misses merged into entries").add_source(
            lambda: st.merges
        )
        registry.gauge(f"{prefix}.stalls", "allocation stalls (file full)").add_source(
            lambda: st.stall_events
        )
        registry.gauge(
            f"{prefix}.cleaned_inflight", "speculative entries cleaned at squash (T3)"
        ).add_source(lambda: st.cleaned_inflight)
