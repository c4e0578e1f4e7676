"""Two-level cache hierarchy with DRAM backing and speculative tracking.

This is the Undo-protected cache model of paper §III-A:

* private **L1D** — way-partitioned (NoMo) random replacement,
* shared **L2** — CEASER-style randomized indexing, random replacement,
* **DRAM** — fixed round-trip latency,
* an **MSHR** file shared by the levels (one per-core file, as in the
  CleanupSpec artifact), and
* a :class:`SpeculationTracker` recording, per speculation epoch, every
  install and every L1 eviction performed by speculative loads.

The hierarchy is *functional*: installs, evictions, invalidations,
restorations and flushes really change which lines are resident, so repeated
attack rounds observe exactly the cache states CleanupSpec's rollback leaves
behind. Timing is returned to the caller per access; the hierarchy itself
holds no clock.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Optional

from ..common.config import LatencyConfig, SystemConfig
from ..common.errors import ConfigError
from ..common.rng import derive_rng
from ..memory.dram import Dram
from ..memory.mshr import MshrFile
from ..obs import Observability, get_default_obs
from .coherence import CoherenceGuard
from .randomized import RandomizedIndexing
from .replacement import NoMoPartition, RandomReplacement, ReplacementPolicy
from .setassoc import Eviction, SetAssociativeCache
from .spec_tracker import EpochDelta, SpecEviction, SpeculationTracker


#: The configuration of a hierarchy built without one. It is frozen, so
#: every such machine shares it instead of rebuilding it.
_DEFAULT_CONFIG = SystemConfig()


@lru_cache(maxsize=None)
def ceaser_key(seed: int) -> int:
    """The L2 index-permutation key of a machine seeded ``seed``.

    A pure function of the seed, memoized per process: a matrix pass builds
    thousands of machines from a few hundred seeds.
    """
    return int(derive_rng(seed, "ceaser-key").integers(1 << 62))


class CacheHierarchy:
    """L1D + shared L2 + DRAM with speculative-state tracking."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        l1_policy: Optional[ReplacementPolicy] = None,
        l2_policy: Optional[ReplacementPolicy] = None,
        randomize_l2: bool = True,
        nomo_threads: int = 2,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config or _DEFAULT_CONFIG
        self.latency: LatencyConfig = self.config.latency
        self.seed = seed

        # Replacement streams are built on their first eviction: most
        # machines of a short trial never evict, so they never draw.
        if l1_policy is None:
            base = RandomReplacement(partial(derive_rng, seed, "l1-replacement"))
            l1_policy = NoMoPartition(base, threads=nomo_threads) if nomo_threads > 1 else base
        if l2_policy is None:
            l2_policy = RandomReplacement(partial(derive_rng, seed, "l2-replacement"))

        randomizer = RandomizedIndexing(key=ceaser_key(seed)) if randomize_l2 else None

        self.l1 = SetAssociativeCache(self.config.l1d, l1_policy)
        self.l2 = SetAssociativeCache(self.config.l2, l2_policy, randomizer=randomizer)
        self.dram = Dram(latency=self.latency.memory)
        #: Address-space mask (size is a power of two): the core wraps
        #: every computed effective address with this at the
        #: core/hierarchy boundary, on committed and wrong paths alike.
        self.addr_mask = self.dram.addr_mask
        self.mshr = MshrFile(capacity=self.config.core.mshr_entries)
        self.tracker = SpeculationTracker()
        self.l1_guard = CoherenceGuard(
            miss_latency=self.latency.memory_total, hit_latency=self.latency.l1_hit
        )
        self.obs: Optional[Observability] = None
        #: Hot-path cache of ``obs.trace`` when full-level events are on
        #: (None otherwise) — checked once per access instead of two
        #: attribute hops plus a flag test.
        self._trace_full = None
        self.attach_obs(obs if obs is not None else get_default_obs())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def attach_obs(self, obs: Optional[Observability]) -> None:
        """Report stats/events through ``obs`` (idempotent once attached)."""
        if obs is None or self.obs is not None:
            return
        self.obs = obs
        self._trace_full = obs.trace if obs.trace.full_events else None
        reg = obs.registry
        self.l1.register_stats(reg, "l1d")
        self.l2.register_stats(reg, "l2")
        self.dram.register_stats(reg, "dram")
        self.mshr.register_stats(reg, "mshr")

    # ------------------------------------------------------------------
    # demand accesses
    # ------------------------------------------------------------------

    def access(
        self,
        addr: int,
        cycle: int,
        is_write: bool = False,
        speculative: bool = False,
        epoch: Optional[int] = None,
        thread: int = 0,
    ) -> "tuple[int, str]":
        """Perform one data access; mutate state; return ``(latency, level)``.

        ``level`` is where the access was served: "L1", "L2" or "MEM" — the
        same shape as :meth:`probe_latency` and :meth:`predict_latency`.
        ``speculative`` accesses stamp installed lines with ``epoch`` and
        record installs/evictions with the tracker so a later squash can
        roll them back.
        """
        if speculative and epoch is None:
            raise ConfigError("speculative access requires an epoch")
        mshr = self.mshr
        if cycle >= mshr.earliest_completion:
            mshr.retire_completed(cycle)
        trace = self._trace_full

        line1 = self.l1.lookup(addr, cycle)
        if line1 is not None:
            if is_write:
                line1.write(cycle)
            if trace is not None:
                trace.emit(cycle, "cache.hit", (self.l1.line_addr_of(addr), "L1"))
            return self.latency.l1_hit, "L1"

        line_addr = self.l1.line_addr_of(addr)
        line2 = self.l2.lookup(addr, cycle)
        if line2 is not None:
            latency = self.latency.l2_total
            level = "L2"
            if trace is not None:
                trace.emit(cycle, "cache.hit", (self.l2.line_addr_of(addr), "L2"))
        else:
            latency = self.latency.memory_total
            level = "MEM"
            if trace is not None:
                trace.emit(cycle, "cache.miss", (self.l2.line_addr_of(addr), "MEM"))
            self.dram.read_word(self.l2.line_addr_of(addr))
            # L2 evictions are recorded inside _install_l2.
            self._install_l2(addr, cycle, speculative, epoch, thread)

        l1_victim = self._install_l1(addr, cycle, is_write, speculative, epoch, thread)

        if mshr.can_allocate(line_addr):
            mshr.allocate(
                line_addr,
                issue_cycle=cycle,
                complete_cycle=cycle + latency,
                speculative=speculative,
                victim_line=l1_victim.line_addr if l1_victim else None,
                victim_dirty=l1_victim.dirty if l1_victim else False,
            )
        else:
            # MSHR file full: the miss queues behind an existing entry.
            mshr.stats.stall_events += 1
            latency += self.latency.mshr_full_penalty
        # A write needs no further step: the L1 install above was made with
        # ``dirty=is_write``, which leaves the line written at ``cycle``.
        return latency, level

    def probe_latency(self, addr: int) -> "tuple[int, str]":
        """Latency and serving level an access *would* see, without side
        effects. The core uses this to decide whether a wrong-path load's
        fill lands before the squash (install + rollback) or is cancelled in
        the MSHR (T3) without ever installing."""
        if self.l1.contains(addr):
            return self.latency.l1_hit, "L1"
        if self.l2.contains(addr):
            return self.latency.l2_total, "L2"
        return self.latency.memory_total, "MEM"

    def predict_latency(self, addr: int, cycle: int) -> "tuple[int, str]":
        """Latency and level :meth:`access` *would* charge at ``cycle``,
        side-effect-free — :meth:`probe_latency` plus the MSHR-full penalty
        a miss would pay when the file has no free slot (and no entry to
        merge into) once fills completed by ``cycle`` retire. The core's
        wrong path uses this so its in-flight-vs-landed decision agrees
        with the cost the subsequent access is actually charged."""
        if self.l1.contains(addr):
            return self.latency.l1_hit, "L1"
        if self.l2.contains(addr):
            latency, level = self.latency.l2_total, "L2"
        else:
            latency, level = self.latency.memory_total, "MEM"
        if not self.mshr.can_allocate_at(self.l1.line_addr_of(addr), cycle):
            latency += self.latency.mshr_full_penalty
        return latency, level

    def _install_l1(
        self,
        addr: int,
        cycle: int,
        is_write: bool,
        speculative: bool,
        epoch: Optional[int],
        thread: int,
    ) -> Optional[Eviction]:
        line, eviction, set_index, way = self.l1.place(
            addr,
            cycle,
            dirty=is_write,
            speculative=speculative,
            epoch=epoch,
            thread=thread,
        )
        if self.obs is not None:
            self._emit_install("L1", addr, cycle, speculative, epoch, eviction)
        wb_eviction: Optional[Eviction] = None
        if eviction is not None and eviction.dirty:
            # Writeback into L2 (data already in DRAM functional store). The
            # victim itself is *architectural* data, so its L2 copy is
            # installed non-speculatively even when the displacing install
            # was transient — CleanupSpec deliberately leaves it there on
            # rollback (restoration re-fetches L1 victims *from* L2).
            _, wb_eviction = self.l2.install(
                eviction.line_addr, cycle, dirty=True, thread=thread
            )
        if speculative and epoch is not None:
            self.tracker.record_install(epoch, "L1", line.line_addr, set_index, way)
            if eviction is not None:
                self.tracker.record_eviction(
                    epoch,
                    "L1",
                    eviction.line_addr,
                    eviction.dirty,
                    eviction.set_index,
                    eviction.way,
                    was_speculative=eviction.was_speculative,
                )
            if wb_eviction is not None:
                # The writeback displaced an L2 line. That eviction is a
                # side effect of transient execution and must be visible in
                # the epoch's delta (the security argument counts every
                # speculative footprint), even though — like direct L2
                # evictions — it is not rolled back: only L1 victims are
                # restorable, and the written-back line stays in L2 as
                # architectural state.
                self.tracker.record_eviction(
                    epoch,
                    "L2",
                    wb_eviction.line_addr,
                    wb_eviction.dirty,
                    wb_eviction.set_index,
                    wb_eviction.way,
                    was_speculative=wb_eviction.was_speculative,
                )
        return eviction

    def _install_l2(
        self,
        addr: int,
        cycle: int,
        speculative: bool,
        epoch: Optional[int],
        thread: int,
    ) -> Optional[Eviction]:
        line, eviction, set_index, way = self.l2.place(
            addr, cycle, dirty=False, speculative=speculative, epoch=epoch, thread=thread
        )
        if self.obs is not None:
            self._emit_install("L2", addr, cycle, speculative, epoch, eviction)
        if eviction is not None:
            # L2 victims leave the hierarchy entirely; the inclusive-ish
            # model also drops any L1 copy of the victim.
            self.l1.invalidate(eviction.line_addr)
            if eviction.dirty:
                self.dram.writeback_line(eviction.line_addr)
        if speculative and epoch is not None:
            self.tracker.record_install(epoch, "L2", line.line_addr, set_index, way)
            if eviction is not None:
                self.tracker.record_eviction(
                    epoch,
                    "L2",
                    eviction.line_addr,
                    eviction.dirty,
                    eviction.set_index,
                    eviction.way,
                    was_speculative=eviction.was_speculative,
                )
        return eviction

    def _emit_install(
        self,
        level: str,
        addr: int,
        cycle: int,
        speculative: bool,
        epoch: Optional[int],
        eviction: Optional[Eviction],
    ) -> None:
        """Trace one install (and its eviction, if any) at ``level``."""
        trace = self.obs.trace
        cache = self.l1 if level == "L1" else self.l2
        trace.emit(
            cycle,
            "cache.install",
            (
                cache.line_addr_of(addr),
                level,
                speculative,
                epoch,
                eviction.line_addr if eviction is not None else None,
            ),
        )
        if eviction is not None:
            trace.emit(
                cycle,
                "cache.evict",
                (eviction.line_addr, level, eviction.dirty, eviction.was_speculative),
            )

    # ------------------------------------------------------------------
    # flush (clflush)
    # ------------------------------------------------------------------

    def flush_line(self, addr: int) -> bool:
        """Evict ``addr``'s line hierarchy-wide; True if it was resident."""
        present = False
        l1_line = self.l1.flush(addr)
        if l1_line is not None:
            present = True
            if l1_line.dirty:
                self.dram.writeback_line(self.l1.line_addr_of(addr))
        l2_line = self.l2.flush(addr)
        if l2_line is not None:
            present = True
            if l2_line.dirty:
                self.dram.writeback_line(self.l2.line_addr_of(addr))
        return present

    # ------------------------------------------------------------------
    # speculation epochs
    # ------------------------------------------------------------------

    def open_epoch(self) -> int:
        return self.tracker.open_epoch()

    def commit_epoch(self, epoch: int) -> EpochDelta:
        """Window resolved correct: clear speculative marks, keep state."""
        delta = self.tracker.close_epoch(epoch)
        self.commit_installs(delta)
        if self.l1_guard.pending_downgrades:
            self.l1_guard.resolve_window(self._l1_lines_by_addr(), cycle=0)
        return delta

    def commit_installs(self, delta: EpochDelta) -> "tuple[int, int]":
        """Make ``delta``'s installs ordinary lines; return ``(l1, l2)`` cleared.

        The one commit path: each level clears the speculative marks of
        the lines the epoch installed there, so a commit costs the window's
        footprint rather than a scan of every tag slot.
        """
        epoch = delta.epoch
        l1_addrs = []
        l2_addrs = []
        for install in delta.installs:
            if install.level == "L1":
                l1_addrs.append(install.line_addr)
            elif install.level == "L2":
                l2_addrs.append(install.line_addr)
        return self.l1.commit_epoch(epoch, l1_addrs), self.l2.commit_epoch(epoch, l2_addrs)

    def squash_epoch_delta(self, epoch: int) -> EpochDelta:
        """Window mis-speculated: hand the delta to the defense.

        The defense decides what (if anything) to roll back; state mutation
        happens through :meth:`rollback_invalidate` / :meth:`rollback_restore`.
        """
        return self.tracker.close_epoch(epoch)

    # ------------------------------------------------------------------
    # rollback primitives (used by the Undo defense)
    # ------------------------------------------------------------------

    def rollback_invalidate(self, level: str, line_addr: int) -> bool:
        """Invalidate one transiently installed line at ``level``.

        Returns True if a (still speculative) line was actually removed —
        a transient line may already have been displaced by later traffic.
        """
        cache = self.l1 if level == "L1" else self.l2
        resident = cache.get_line(line_addr)
        if resident is None or not resident.speculative:
            return False
        cache.invalidate(line_addr)
        return True

    def rollback_restore(self, eviction: SpecEviction) -> bool:
        """Restore one L1 victim evicted by a transient install.

        The line is re-fetched from L2 (CleanupSpec services restorations
        from L2) and re-installed into the way the transient line vacated.
        Returns True if a restore actually happened.
        """
        if eviction.level != "L1":
            raise ConfigError("only L1 evictions are restorable")
        if eviction.was_speculative:
            return False
        if self.l1.contains(eviction.line_addr):
            return False  # already back (e.g. re-demanded meanwhile)
        # Ensure L2 has the line to serve the restore from.
        if not self.l2.contains(eviction.line_addr):
            self.l2.install(eviction.line_addr, cycle=0, dirty=eviction.dirty)
        self.l1.install(
            eviction.line_addr,
            cycle=0,
            dirty=eviction.dirty,
            preferred_way=eviction.way,
        )
        self.l1.stats.restorations += 1
        if self.obs is not None:
            self.obs.trace.emit(
                0, "cache.restore", (eviction.line_addr, eviction.way)
            )
        return True

    # ------------------------------------------------------------------
    # cross-agent probing (coherence-facing strategies)
    # ------------------------------------------------------------------

    def probe_as_other_agent(self, addr: int) -> int:
        """Latency another thread/core observes probing ``addr`` in L1.

        Served through the :class:`CoherenceGuard`: hits on speculative
        lines are dummy misses.
        """
        return self.l1_guard.probe_latency(self.l1.get_line(addr))

    def request_downgrade(self, addr: int, cycle: int, window_open: bool) -> bool:
        return self.l1_guard.request_downgrade(
            self.l1.get_line(addr), cycle, window_open
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _l1_lines_by_addr(self) -> dict:
        return {line.line_addr: line for line in self.l1.resident_lines()}

    def in_l1(self, addr: int) -> bool:
        return self.l1.contains(addr)

    def in_l2(self, addr: int) -> bool:
        return self.l2.contains(addr)

    def warm(self, addrs, cycle: int = 0) -> None:
        """Bring each address in ``addrs`` into the hierarchy (test helper)."""
        for addr in addrs:
            self.access(addr, cycle)
