"""Backing-store model: word-addressable memory with a fixed access latency.

Functionally a sparse ``dict`` of 64-bit words; timing-wise a constant
round-trip latency (Table I: 50 ns after L2, i.e. 100 cycles at 2 GHz).
The DRAM also counts reads/writes/writebacks so experiments can report
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple

from ..common.errors import MemoryError_

#: Size of one addressable word in bytes (values stored per 8-byte word).
WORD_SIZE = 8


@dataclass
class DramStats:
    reads: int = 0
    writes: int = 0
    writebacks: int = 0


@dataclass
class Dram:
    """Fixed-latency main memory.

    ``latency`` is the round-trip time in cycles charged to an access that
    reaches DRAM (on top of cache lookup latencies, which the hierarchy
    accounts for separately).
    """

    latency: int = 100
    size_bytes: int = 1 << 32
    stats: DramStats = field(default_factory=DramStats)

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("DRAM latency must be non-negative")
        if self.size_bytes <= 0:
            raise ValueError("DRAM size must be positive")
        if self.size_bytes & (self.size_bytes - 1):
            raise ValueError("DRAM size must be a power of two (address wrap)")
        #: Address-space mask: the core wraps every computed effective
        #: address with this before it reaches the hierarchy, so negative
        #: or overflowed addresses execute deterministically instead of
        #: escaping as host-level MemoryError_.
        self.addr_mask = self.size_bytes - 1
        self._words: dict = {}

    def _check(self, addr: int) -> None:
        if not 0 <= addr < self.size_bytes:
            raise MemoryError_(f"address {addr:#x} outside memory of {self.size_bytes:#x} bytes")

    def read_word(self, addr: int) -> int:
        """Functional read of the 64-bit word containing ``addr``."""
        self._check(addr)
        self.stats.reads += 1
        return self._words.get(addr // WORD_SIZE * WORD_SIZE, 0)

    def write_word(self, addr: int, value: int) -> None:
        """Functional write of the 64-bit word containing ``addr``."""
        self._check(addr)
        self.stats.writes += 1
        word = addr // WORD_SIZE * WORD_SIZE
        value &= (1 << 64) - 1
        self._words[word] = value

    def writeback_line(self, line_addr: int) -> None:
        """Account a dirty-line writeback (data already written via write_word)."""
        self._check(line_addr)
        self.stats.writebacks += 1

    def register_stats(self, registry, prefix: str = "dram") -> None:
        """Publish traffic counters under ``prefix`` (pull-based, no hot cost)."""
        st = self.stats
        registry.gauge(f"{prefix}.reads", "line fills read from DRAM").add_source(
            lambda: st.reads
        )
        registry.gauge(f"{prefix}.writes", "functional word writes").add_source(
            lambda: st.writes
        )
        registry.gauge(f"{prefix}.writebacks", "dirty-line writebacks").add_source(
            lambda: st.writebacks
        )
        reads = registry.gauge(f"{prefix}.reads")
        writes = registry.gauge(f"{prefix}.writes")
        writebacks = registry.gauge(f"{prefix}.writebacks")
        registry.formula(
            f"{prefix}.accesses",
            lambda r=reads, w=writes, b=writebacks: r.value() + w.value() + b.value(),
            desc="total DRAM traffic (reads + writes + writebacks)",
        )

    def peek(self, addr: int) -> int:
        """Read without touching statistics (for assertions in tests)."""
        self._check(addr)
        return self._words.get(addr // WORD_SIZE * WORD_SIZE, 0)

    def image(self) -> dict:
        """Snapshot of the populated words (word address → value).

        Used to hand a concrete memory image to the static analysis's
        dynamic reference interpreter (witness replay): the same victim
        data structures the simulator runs against, without the timing
        model.
        """
        return dict(self._words)

    def poke(self, addr: int, value: int) -> None:
        """Write without touching statistics (for experiment setup)."""
        self._check(addr)
        word = addr // WORD_SIZE * WORD_SIZE
        value &= (1 << 64) - 1
        self._words[word] = value

    def poke_image(self, words: Iterable[Tuple[int, int]]) -> None:
        """:meth:`poke` every ``(word address, value)`` pair of an
        :meth:`image` in one step (for experiment setup)."""
        self._words.update(words)
