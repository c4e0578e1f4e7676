"""The cache layer answers from what it already holds.

* The residency map (``SetAssociativeCache._where``) is exact: every
  occupied way is in it at its own ``(set, way)``, presence probes agree
  with a scan of the ways, and no resident line is INVALID — under every
  mutation the hierarchy makes, rollback included.
* An absent line costs no set-index computation, so no Feistel round.
* The randomized set-index function is memoized once per permutation and
  geometry per process: machines built from the same seed (and deep
  copies of one) share the memo; another key gets its own.
* An install reports where its line landed.
"""

from __future__ import annotations

import copy
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.randomized import RandomizedIndexing
from repro.cache.replacement import LruReplacement
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.spec_tracker import SpecEviction
from repro.common.config import CacheGeometry, CoreConfig, SystemConfig

LINE = 64


def _geometry(name: str, sets: int, ways: int) -> CacheGeometry:
    return CacheGeometry(name, sets * ways * LINE, ways=ways, sets=sets, line_size=LINE)


#: Small enough that 40 lines conflict in both levels (4x4 L1, 8x4 L2).
SMALL = SystemConfig(
    core=CoreConfig(mshr_entries=4),
    l1d=_geometry("L1D", 4, 4),
    l2=_geometry("L2", 8, 4),
)
UNIVERSE = tuple(i * LINE for i in range(40))

ADDRS = st.builds(
    lambda i, off: UNIVERSE[i] + off, st.integers(0, 39), st.sampled_from((0, 8, 63))
)
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("access"), ADDRS, st.sampled_from(("plain", "spec", "write")), st.integers(0, 1)
        ),
        st.tuples(st.just("flush"), ADDRS),
        st.tuples(st.just("rollback_invalidate"), st.sampled_from(("L1", "L2")), ADDRS),
        st.tuples(st.just("rollback_restore"), ADDRS, st.integers(0, 3), st.booleans()),
        st.tuples(st.just("commit")),
        st.tuples(st.just("squash")),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _check_residency(cache: SetAssociativeCache) -> None:
    scanned = {}
    for set_index, ways in enumerate(cache._sets):
        if ways is None:
            continue
        for way, line in enumerate(ways):
            if line is None:
                continue
            assert line.valid
            assert cache._where.get(line.line_addr) == (set_index, way)
            assert cache.set_index_of(line.line_addr) == set_index
            assert line.line_addr not in scanned
            scanned[line.line_addr] = line
    assert len(cache._where) == len(scanned)
    for addr in UNIVERSE:
        line = scanned.get(addr)
        assert cache.contains(addr + 5) is (line is not None)
        assert cache.get_line(addr + 5) is line


@settings(max_examples=80, deadline=None, derandomize=True)
@given(steps=STEPS, seed=st.integers(0, 3))
def test_residency_map_is_exact_under_every_mutation(steps, seed):
    h = CacheHierarchy(config=SMALL, seed=seed)
    assert h.l2.randomizer is not None
    epoch = h.open_epoch()
    for cycle, step in enumerate(steps):
        kind = step[0]
        if kind == "access":
            _, addr, mode, thread = step
            h.access(
                addr,
                cycle,
                is_write=mode == "write",
                speculative=mode == "spec",
                epoch=epoch if mode == "spec" else None,
                thread=thread,
            )
        elif kind == "flush":
            h.flush_line(step[1])
        elif kind == "rollback_invalidate":
            h.rollback_invalidate(step[1], step[2] & ~(LINE - 1))
        elif kind == "rollback_restore":
            _, addr, way, dirty = step
            h.rollback_restore(
                SpecEviction("L1", addr & ~(LINE - 1), dirty, h.l1.set_index_of(addr), way)
            )
        elif kind == "commit":
            h.commit_epoch(epoch)
            epoch = h.open_epoch()
        elif kind == "squash":
            # CleanupSpec's rollback: undo the window's installs, newest
            # first, then put its L1 victims back.
            delta = h.squash_epoch_delta(epoch)
            for install in reversed(delta.installs):
                h.rollback_invalidate(install.level, install.line_addr)
            for eviction in delta.evictions:
                if eviction.level == "L1":
                    h.rollback_restore(eviction)
            epoch = h.open_epoch()
        else:
            h.l1.clear()
            h.l2.clear()
        _check_residency(h.l1)
        _check_residency(h.l2)


@pytest.fixture
def permute_calls(monkeypatch):
    """Line numbers passed to ``RandomizedIndexing.permute`` from now on."""
    calls = []
    original = RandomizedIndexing.permute

    def counting(self, line_number):
        calls.append(line_number)
        return original(self, line_number)

    monkeypatch.setattr(RandomizedIndexing, "permute", counting)
    return calls


def test_absent_lines_cost_no_permutation(permute_calls):
    # A seed no other test uses: its memo starts empty in this process.
    h = CacheHierarchy(seed=7_340_033)
    h.access(0x40, 0)
    assert permute_calls
    permute_calls.clear()
    for addr in (0x1000, 0x2040, 0x7FC0):
        assert not h.l2.contains(addr)
        assert h.l2.get_line(addr) is None
        assert h.l2.way_of(addr) is None
        assert not h.flush_line(addr)
        assert h.l2.invalidate(addr) is None
    assert permute_calls == []


class TestSharedSetIndexMemo:
    SEED = 7_340_034

    def test_same_seed_maps_each_line_once(self, permute_calls):
        rng = random.Random(5)
        numbers = [rng.getrandbits(40) for _ in range(4096)]
        first = CacheHierarchy(seed=self.SEED)
        second = CacheHierarchy(seed=self.SEED)
        want = [first.l2.set_index_of(n << 6) for n in numbers]
        assert permute_calls
        permute_calls.clear()
        assert [second.l2.set_index_of(n << 6) for n in numbers] == want
        assert permute_calls == []
        randomizer = first.l2.randomizer
        mask = (1 << randomizer.bits) - 1
        set_mask = first.l2.geometry.sets - 1
        assert want == [randomizer.permute(n & mask) & set_mask for n in numbers]

    def test_other_key_gets_its_own_memo(self):
        h = CacheHierarchy(seed=self.SEED)
        other = CacheHierarchy(seed=self.SEED + 1)
        randomizer = h.l2.randomizer
        rekeyed = randomizer.rekey(randomizer.key ^ 1)
        same = SetAssociativeCache(
            h.l2.geometry, LruReplacement(), randomizer=RandomizedIndexing(key=randomizer.key)
        )
        moved = SetAssociativeCache(h.l2.geometry, LruReplacement(), randomizer=rekeyed)
        assert same._set_index_memo is h.l2._set_index_memo
        assert other.l2._set_index_memo is not h.l2._set_index_memo
        assert moved._set_index_memo is not h.l2._set_index_memo
        addrs = [j * LINE for j in range(256)]
        set_mask = h.l2.geometry.sets - 1
        assert [moved.set_index_of(a) for a in addrs] == [
            rekeyed.permute(a >> 6) & set_mask for a in addrs
        ]
        assert any(moved.set_index_of(a) != h.l2.set_index_of(a) for a in addrs)

    def test_plain_cache_indexes_without_a_memo(self):
        h = CacheHierarchy(seed=self.SEED)
        assert h.l1._set_index_memo is None
        assert all(h.l1.set_index_of(a) == (a >> 6) & 63 for a in range(0, 1 << 16, 200))

    def test_deep_copy_maps_identically(self, permute_calls):
        h = CacheHierarchy(seed=self.SEED)
        addrs = [j * 4096 + 64 for j in range(64)]
        for cycle, addr in enumerate(addrs):
            h.access(addr, cycle)
        clone = copy.deepcopy(h)
        permute_calls.clear()
        assert [clone.l2.set_index_of(a) for a in addrs] == [h.l2.set_index_of(a) for a in addrs]
        assert permute_calls == []
        assert {l.line_addr for l in clone.l2.resident_lines()} == set(addrs)


def test_install_reports_where_the_line_landed():
    h = CacheHierarchy(seed=3)
    epoch = h.open_epoch()
    for cycle in range(40):
        h.access(cycle * 4096, cycle, speculative=True, epoch=epoch)
    delta = h.squash_epoch_delta(epoch)
    assert delta.installs
    for install in delta.installs:
        cache = h.l1 if install.level == "L1" else h.l2
        if cache.contains(install.line_addr):
            assert cache._where[install.line_addr] == (install.set_index, install.way)
        assert cache.set_index_of(install.line_addr) == install.set_index
    line, eviction, set_index, way = h.l2.place(0x40, 50)
    assert eviction is None and (set_index, way) == h.l2._where[0x40]
    assert h.l2.place(0x40, 51) == (line, None, set_index, way)
