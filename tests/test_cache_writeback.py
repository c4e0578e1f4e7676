"""Writeback-path tests: dirty data must never be lost by the hierarchy,
the defenses, or the attack's flush traffic."""

from repro.cache import CacheHierarchy
from repro.defense.base import SquashContext
from repro.defense.cleanupspec import CleanupSpec


class TestDirtyEvictionPaths:
    def test_dirty_l1_victim_lands_in_l2(self, hierarchy):
        hierarchy.access(0x1000, 0, is_write=True)
        # Force the dirty line out of L1 by filling its set's partition.
        for j in range(1, 40):
            hierarchy.access(0x1000 + j * 4096, j)
        if not hierarchy.in_l1(0x1000):
            assert hierarchy.in_l2(0x1000)  # writeback preserved it

    def test_flush_dirty_writes_back_once(self, hierarchy):
        hierarchy.access(0x1000, 0, is_write=True)
        before = hierarchy.dram.stats.writebacks
        hierarchy.flush_line(0x1000)
        assert hierarchy.dram.stats.writebacks == before + 1

    def test_flush_clean_writes_back_nothing(self, hierarchy):
        hierarchy.access(0x1000, 0)
        before = hierarchy.dram.stats.writebacks
        hierarchy.flush_line(0x1000)
        assert hierarchy.dram.stats.writebacks == before

    def test_store_data_survives_flush(self, hierarchy):
        hierarchy.dram.poke(0x1000, 0)
        hierarchy.access(0x1000, 0, is_write=True)
        hierarchy.dram.poke(0x1000, 77)  # the store's functional effect
        hierarchy.flush_line(0x1000)
        assert hierarchy.dram.peek(0x1000) == 77


class TestDirtyRestoration:
    def test_restored_victim_keeps_dirtiness(self):
        h = CacheHierarchy(seed=0)
        d = CleanupSpec(h)
        # Dirty line in set 0, then fill the rest of the partition.
        h.access(0x0, 0, is_write=True)
        for j in range(1, 4):
            h.access(j * 4096, j)
        epoch = h.open_epoch()
        h.access(4 * 4096, 10, speculative=True, epoch=epoch)
        delta = h.squash_epoch_delta(epoch)
        evicted = delta.evictions_at("L1")
        d.on_squash(
            SquashContext(
                resolve_cycle=1000,
                delta=delta,
                inflight_transient=0,
                older_mem_complete=0,
            )
        )
        # Whatever was evicted is back; if it was the dirty line, the
        # restored copy must still be dirty (its data is newer than DRAM).
        for ev in evicted:
            line = h.l1.get_line(ev.line_addr)
            assert line is not None
            assert line.dirty == ev.dirty

    def test_speculative_store_marks_line(self):
        h = CacheHierarchy(seed=0)
        epoch = h.open_epoch()
        h.access(0x2000, 0, is_write=True, speculative=True, epoch=epoch)
        line = h.l1.get_line(0x2000)
        assert line.dirty and line.speculative


class TestWritebackCounters:
    def test_l2_dirty_eviction_reaches_dram(self):
        # Drive many distinct dirty lines through a tiny-L2 configuration
        # to force L2 capacity evictions with writebacks.
        from dataclasses import replace

        from repro.common.config import CacheGeometry, SystemConfig

        config = replace(
            SystemConfig(),
            l2=CacheGeometry("L2", 64 * 1024, ways=4, sets=256),
        )
        h = CacheHierarchy(config=config, seed=1)
        for j in range(3000):
            h.access(0x100000 + j * 64, j, is_write=True)
        assert h.dram.stats.writebacks > 0
