"""Tests for repro.cache.hierarchy — levels, latencies, rollback primitives."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import ConfigError


class TestAccessLatencies:
    def test_cold_miss_to_memory(self, hierarchy):
        assert hierarchy.access(0x1000, 0) == (122, "MEM")  # 2 + 20 + 100

    def test_l1_hit_after_install(self, hierarchy):
        hierarchy.access(0x1000, 0)
        assert hierarchy.access(0x1000, 1) == (2, "L1")

    def test_l2_hit_after_l1_eviction(self, hierarchy):
        hierarchy.access(0x1000, 0)
        # Evict from L1 only (thread partition is 4 ways at 4096 stride).
        for j in range(1, 32):
            hierarchy.access(0x1000 + j * 4096, j)
        if not hierarchy.in_l1(0x1000):
            assert hierarchy.access(0x1000, 100) == (22, "L2")

    def test_installs_into_both_levels(self, hierarchy):
        hierarchy.access(0x1000, 0)
        assert hierarchy.in_l1(0x1000)
        assert hierarchy.in_l2(0x1000)

    def test_speculative_requires_epoch(self, hierarchy):
        with pytest.raises(ConfigError):
            hierarchy.access(0x1000, 0, speculative=True)

    def test_probe_latency_matches_access(self, hierarchy):
        lat, level = hierarchy.probe_latency(0x1000)
        assert (lat, level) == (122, "MEM")
        hierarchy.access(0x1000, 0)
        assert hierarchy.probe_latency(0x1000) == (2, "L1")


class TestFlush:
    def test_flush_removes_from_both_levels(self, hierarchy):
        hierarchy.access(0x1000, 0)
        assert hierarchy.flush_line(0x1000)
        assert not hierarchy.in_l1(0x1000)
        assert not hierarchy.in_l2(0x1000)

    def test_flush_absent_returns_false(self, hierarchy):
        assert not hierarchy.flush_line(0x9999000)

    def test_flush_dirty_writes_back(self, hierarchy):
        hierarchy.access(0x1000, 0, is_write=True)
        before = hierarchy.dram.stats.writebacks
        hierarchy.flush_line(0x1000)
        assert hierarchy.dram.stats.writebacks > before


class TestSpeculativeTracking:
    def test_epoch_records_install_and_delta(self, hierarchy):
        epoch = hierarchy.open_epoch()
        hierarchy.access(0x1000, 0, speculative=True, epoch=epoch)
        delta = hierarchy.squash_epoch_delta(epoch)
        assert len(delta.installs_at("L1")) == 1
        assert len(delta.installs_at("L2")) == 1

    def test_commit_clears_marks_keeps_lines(self, hierarchy):
        epoch = hierarchy.open_epoch()
        hierarchy.access(0x1000, 0, speculative=True, epoch=epoch)
        hierarchy.commit_epoch(epoch)
        line = hierarchy.l1.get_line(0x1000)
        assert line is not None and not line.speculative

    def test_eviction_recorded_when_partition_full(self, hierarchy):
        # Fill thread-0 partition of set 0 (4 ways).
        for j in range(4):
            hierarchy.access(j * 4096, 0)
        epoch = hierarchy.open_epoch()
        hierarchy.access(4 * 4096, 1, speculative=True, epoch=epoch)
        delta = hierarchy.squash_epoch_delta(epoch)
        assert len(delta.evictions_at("L1")) == 1


class TestRollbackPrimitives:
    def test_invalidate_speculative_line(self, hierarchy):
        epoch = hierarchy.open_epoch()
        hierarchy.access(0x1000, 0, speculative=True, epoch=epoch)
        delta = hierarchy.squash_epoch_delta(epoch)
        install = delta.installs_at("L1")[0]
        assert hierarchy.rollback_invalidate("L1", install.line_addr)
        assert not hierarchy.in_l1(0x1000)

    def test_invalidate_skips_committed_lines(self, hierarchy):
        hierarchy.access(0x1000, 0)  # non-speculative
        assert not hierarchy.rollback_invalidate("L1", 0x1000)
        assert hierarchy.in_l1(0x1000)

    def test_restore_puts_victim_back(self, hierarchy):
        for j in range(4):
            hierarchy.access(j * 4096, 0)
        epoch = hierarchy.open_epoch()
        hierarchy.access(4 * 4096, 1, speculative=True, epoch=epoch)
        delta = hierarchy.squash_epoch_delta(epoch)
        eviction = delta.evictions_at("L1")[0]
        assert not hierarchy.in_l1(eviction.line_addr)
        hierarchy.rollback_invalidate("L1", delta.installs_at("L1")[0].line_addr)
        assert hierarchy.rollback_restore(eviction)
        assert hierarchy.in_l1(eviction.line_addr)
        # Restored into the vacated way.
        assert hierarchy.l1.way_of(eviction.line_addr) == eviction.way

    def test_restore_skips_speculative_victims(self, hierarchy):
        from repro.cache.spec_tracker import SpecEviction

        ev = SpecEviction(
            level="L1", line_addr=0x40, dirty=False, set_index=1, way=0,
            was_speculative=True,
        )
        assert not hierarchy.rollback_restore(ev)

    def test_restore_rejects_l2(self, hierarchy):
        from repro.cache.spec_tracker import SpecEviction

        ev = SpecEviction(level="L2", line_addr=0x40, dirty=False, set_index=1, way=0)
        with pytest.raises(ConfigError):
            hierarchy.rollback_restore(ev)


class TestCrossAgentProbing:
    def test_speculative_line_served_as_dummy_miss(self, hierarchy):
        epoch = hierarchy.open_epoch()
        hierarchy.access(0x1000, 0, speculative=True, epoch=epoch)
        miss_latency = hierarchy.probe_as_other_agent(0x7777000)
        spec_latency = hierarchy.probe_as_other_agent(0x1000)
        assert spec_latency == miss_latency  # indistinguishable

    def test_committed_line_served_fast(self, hierarchy):
        hierarchy.access(0x1000, 0)
        assert hierarchy.probe_as_other_agent(0x1000) == 2

    def test_downgrade_deferred_in_window(self, hierarchy):
        epoch = hierarchy.open_epoch()
        hierarchy.access(0x1000, 0, is_write=False, speculative=True, epoch=epoch)
        assert not hierarchy.request_downgrade(0x1000, cycle=1, window_open=True)
        assert hierarchy.request_downgrade(0x1000, cycle=1, window_open=False)


class TestL2Randomization:
    def test_l2_uses_randomized_indexing(self):
        h = CacheHierarchy(seed=0, randomize_l2=True)
        plain = CacheHierarchy(seed=0, randomize_l2=False)
        # Under modulo indexing these are congruent in L2; under CEASER most
        # scatter to different sets.
        stride = plain.l2.geometry.sets * 64
        indices = {h.l2.set_index_of(j * stride) for j in range(32)}
        assert len(indices) > 16
        assert len({plain.l2.set_index_of(j * stride) for j in range(32)}) == 1

    def test_different_seeds_different_keys(self):
        a = CacheHierarchy(seed=1)
        b = CacheHierarchy(seed=2)
        diffs = sum(
            1 for j in range(64) if a.l2.set_index_of(j * 64) != b.l2.set_index_of(j * 64)
        )
        assert diffs > 32
