"""Tests for repro.cache.setassoc — one cache level."""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.replacement import LruReplacement, NoMoPartition, RandomReplacement
from repro.cache.setassoc import SetAssociativeCache
from repro.common.config import CacheGeometry
from repro.common.rng import make_rng

GEOM = CacheGeometry("L1D", 32 * 1024, ways=8, sets=64)


def make_cache(policy=None):
    return SetAssociativeCache(GEOM, policy or LruReplacement())


class TestLookupInstall:
    def test_miss_then_hit(self):
        c = make_cache()
        assert c.lookup(0x1000, 0) is None
        c.install(0x1000, 0)
        assert c.lookup(0x1000, 1) is not None
        assert c.stats.misses == 1
        assert c.stats.hits == 1

    def test_same_line_different_offset_hits(self):
        c = make_cache()
        c.install(0x1000, 0)
        assert c.lookup(0x103F, 1) is not None

    def test_reinstall_refreshes_not_duplicates(self):
        c = make_cache()
        c.install(0x1000, 0)
        line, ev = c.install(0x1000, 1)
        assert ev is None
        assert c.stats.installs == 1
        assert c.set_occupancy(c.set_index_of(0x1000)) == 1

    def test_contains_no_side_effects(self):
        c = make_cache()
        c.install(0x1000, 0)
        hits, misses = c.stats.hits, c.stats.misses
        assert c.contains(0x1000)
        assert not c.contains(0x2000)
        assert (c.stats.hits, c.stats.misses) == (hits, misses)

    def test_fills_invalid_ways_first(self):
        c = make_cache()
        for j in range(GEOM.ways):
            _, ev = c.install(0x1000 + j * 4096, 0)
            assert ev is None  # no eviction while invalid ways remain
        _, ev = c.install(0x1000 + GEOM.ways * 4096, 0)
        assert ev is not None

    def test_eviction_record_fields(self):
        c = make_cache()
        for j in range(GEOM.ways):
            c.install(j * 4096, 0, dirty=(j == 0))
        _, ev = c.install(GEOM.ways * 4096, 1)
        assert ev is not None
        assert ev.set_index == 0
        assert 0 <= ev.way < GEOM.ways
        assert c.stats.evictions == 1

    def test_write_install_is_dirty_modified(self):
        c = make_cache()
        line, _ = c.install(0x40, 0, dirty=True)
        assert line.dirty

    def test_preferred_way_pins_destination(self):
        c = make_cache()
        c.install(0x40, 0, preferred_way=5)
        assert c.way_of(0x40) == 5


class TestInvalidateFlush:
    def test_invalidate(self):
        c = make_cache()
        c.install(0x40, 0)
        removed = c.invalidate(0x40)
        assert removed is not None
        assert not c.contains(0x40)
        assert c.stats.invalidations == 1

    def test_invalidate_absent_returns_none(self):
        c = make_cache()
        assert c.invalidate(0x40) is None

    def test_flush_counts(self):
        c = make_cache()
        c.install(0x40, 0)
        assert c.flush(0x40) is not None
        assert c.stats.flushes == 1
        assert c.flush(0x40) is None
        assert c.stats.flushes == 1


class TestSpeculativeMarks:
    def test_speculative_lines_by_epoch(self):
        c = make_cache()
        c.install(0x40, 0, speculative=True, epoch=1)
        c.install(0x80, 0, speculative=True, epoch=2)
        c.install(0xC0, 0)
        assert len(c.speculative_lines()) == 2
        assert len(c.speculative_lines(epoch=1)) == 1

    def test_commit_epoch(self):
        c = make_cache()
        c.install(0x40, 0, speculative=True, epoch=1)
        cleared = c.commit_epoch(1, [0x40])
        assert cleared == 1
        assert c.speculative_lines() == []

    def test_clear(self):
        c = make_cache()
        c.install(0x40, 0)
        c.clear()
        assert c.resident_lines() == []


class TestNoMoAllocation:
    def test_thread0_confined_to_partition(self):
        policy = NoMoPartition(RandomReplacement(partial(make_rng, 0)), threads=2)
        c = SetAssociativeCache(GEOM, policy)
        for j in range(10):
            c.install(j * 4096, 0, thread=0)
        for line_addr in (l.line_addr for l in c.resident_lines()):
            assert c.way_of(line_addr) in (0, 1, 2, 3)

    def test_partition_capacity(self):
        policy = NoMoPartition(RandomReplacement(partial(make_rng, 0)), threads=2)
        c = SetAssociativeCache(GEOM, policy)
        for j in range(16):
            c.install(j * 4096, 0, thread=0)
        assert c.set_occupancy(0) == 4  # only thread-0's partition fills


class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.booleans()), min_size=1, max_size=200
        )
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_no_duplicate_lines_and_bounded_occupancy(self, ops):
        """Property: a line is never resident twice; sets never overflow."""
        c = SetAssociativeCache(GEOM, RandomReplacement(partial(make_rng, 7)))
        for i, (line_number, do_invalidate) in enumerate(ops):
            addr = line_number * 64
            if do_invalidate:
                c.invalidate(addr)
            else:
                c.install(addr, i)
        seen = set()
        for line in c.resident_lines():
            assert line.line_addr not in seen
            seen.add(line.line_addr)
        for s in range(GEOM.sets):
            assert c.set_occupancy(s) <= GEOM.ways

    @given(st.integers(0, (1 << 32) - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_install_then_lookup_hits(self, addr):
        c = make_cache()
        c.install(addr, 0)
        assert c.lookup(addr, 1) is not None
