"""Machines cost what a run touches: lazy cache sets, footprint-only commit,
and machines that free without the cycle collector.

* A cache allocates a set's way list on the set's first install; an
  unallocated set reads as empty everywhere.
* A committed epoch clears the marks of its recorded installs only; a
  full scan of every tag slot (kept here, test-only) must agree with it
  after every ``UnsafeBaseline`` squash.
* Stats sources never close over a defense, so a machine with an
  :class:`~repro.obs.Observability` attached is freed by reference
  counting alone.
"""

from __future__ import annotations

import gc

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.core import Core
from repro.defense import UnsafeBaseline, defense_keys, make_defense
from repro.obs import Observability
from tests.differential.harness import _system_config, build_program
from tests.test_property_backends import _configs, _programs

ADDRS = (0x0, 0x40, 0x1000, 0x2040, 0x10000)

#: A taken branch the cold predictor calls not-taken, waiting on a DRAM
#: load: the two loads after it run on the wrong path, land before the
#: branch resolves (so they install speculatively) and are squashed.
SQUASHING_PROGRAM = [
    ("li", "r5", 0x8000),
    ("load", "r2", "r5", 0),
    ("li", "r1", 0x40),
    ("branch", "eq", "r2", "r2"),
    ("load", "r3", "r1", 0),
    ("load", "r4", "r1", 64),
]


def _allocated(cache) -> list:
    """Indices of the sets whose way list exists."""
    return [i for i, ways in enumerate(cache._sets) if ways is not None]


def _scan_speculative(cache, epoch: int) -> int:
    """Every tag slot's lines still marked speculative by ``epoch``."""
    return sum(
        1
        for ways in cache._sets
        if ways is not None
        for line in ways
        if line is not None and line.speculative and line.epoch == epoch
    )


class TestLazySets:
    def test_fresh_hierarchy_has_no_allocated_sets(self):
        h = CacheHierarchy(seed=3)
        assert _allocated(h.l1) == []
        assert _allocated(h.l2) == []
        assert h.l1.resident_lines() == []
        assert h.l2.speculative_lines() == []
        assert h.l2.set_occupancy(0) == 0

    def test_allocated_sets_are_exactly_the_touched_sets(self):
        h = CacheHierarchy(seed=3)
        for cycle, addr in enumerate(ADDRS):
            h.access(addr, cycle)
        assert _allocated(h.l1) == sorted({h.l1.set_index_of(a) for a in ADDRS})
        assert _allocated(h.l2) == sorted({h.l2.set_index_of(a) for a in ADDRS})
        # Misses and probes allocate nothing.
        h.access(0x40, 10)
        assert h.in_l1(0x7000) is False
        assert _allocated(h.l1) == sorted({h.l1.set_index_of(a) for a in ADDRS})

    def test_resident_lines_keep_set_index_order(self):
        h = CacheHierarchy(seed=3)
        for cycle, addr in enumerate(reversed(ADDRS)):
            h.access(addr, cycle)
        sets = [h.l2.set_index_of(l.line_addr) for l in h.l2.resident_lines()]
        assert sets == sorted(sets)
        assert {l.line_addr for l in h.l2.resident_lines()} == set(ADDRS)

    def test_clear_returns_every_set_to_unallocated_in_place(self):
        h = CacheHierarchy(seed=3)
        for cycle, addr in enumerate(ADDRS):
            h.access(addr, cycle)
        sets = h.l2._sets
        h.l1.clear()
        h.l2.clear()
        assert h.l2._sets is sets
        assert _allocated(h.l1) == _allocated(h.l2) == []
        assert not h.l2.contains(0x40)
        h.access(0x40, 20)
        assert _allocated(h.l2) == [h.l2.set_index_of(0x40)]


class TestFootprintCommit:
    def test_commit_skips_other_epochs_and_duplicates(self):
        h = CacheHierarchy(seed=3)
        first = h.open_epoch()
        h.access(0x40, 0, speculative=True, epoch=first)
        second = h.open_epoch()
        h.access(0x1000, 1, speculative=True, epoch=second)
        assert h.l1.commit_epoch(first, [0x40, 0x40, 0x1000, 0x7000]) == 1
        assert h.l1.speculative_lines() == [h.l1.get_line(0x1000)]

    def test_hierarchy_commit_clears_both_levels(self):
        h = CacheHierarchy(seed=3)
        epoch = h.open_epoch()
        for cycle, addr in enumerate(ADDRS):
            h.access(addr, cycle, speculative=True, epoch=epoch)
        h.commit_epoch(epoch)
        assert _scan_speculative(h.l1, epoch) == 0
        assert _scan_speculative(h.l2, epoch) == 0
        assert all(h.in_l1(a) and h.in_l2(a) for a in ADDRS)


class _RecordingHierarchy(CacheHierarchy):
    """Keeps what each commit cleared, per level."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.commits = []

    def commit_installs(self, delta):
        cleared = super().commit_installs(delta)
        self.commits.append(cleared)
        return cleared


class _ScannedUnsafe(UnsafeBaseline):
    """UnsafeBaseline checked against a full scan around every squash."""

    def __init__(self, hierarchy) -> None:
        super().__init__(hierarchy)
        self.checked = 0

    def handle_squash(self, ctx):
        h = self.hierarchy
        epoch = ctx.delta.epoch
        expected = (_scan_speculative(h.l1, epoch), _scan_speculative(h.l2, epoch))
        outcome = super().handle_squash(ctx)
        assert h.commits[-1] == expected
        assert _scan_speculative(h.l1, epoch) == 0
        assert _scan_speculative(h.l2, epoch) == 0
        self.checked += 1
        return outcome


def _wrong_path_preamble(base: int) -> list:
    """Runs the program after it as a wrong path.

    The flushed line makes the branch wait on DRAM, long enough for the
    transient misses to land and install, and a cold predictor calls the
    taken branch not-taken. The registers start on four distinct lines
    above ``base``, and three transient loads of them open the wrong path,
    so every window installs lines (on small geometries, some evict each
    other) before the program's own instructions run.
    """
    return [
        ("li", "r1", base),
        ("li", "r2", base + 0x40),
        ("li", "r3", base + 0x1000),
        ("li", "r4", base + 0x2040),
        ("li", "r6", 0x80000),
        ("flush", "r6"),
        ("load", "r5", "r6", 0),
        ("branch", "eq", "r5", "r5"),
        ("load", "r7", "r1", 0),
        ("load", "r7", "r2", 0),
        ("load", "r7", "r3", 0),
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(specs=_programs, config=_configs, seed=st.integers(0, 7))
def test_unsafe_commit_matches_full_scan(specs, config, seed):
    specs = [list(s) for s in specs]
    program = build_program(specs)
    h = _RecordingHierarchy(config=_system_config(config), seed=seed)
    defense = _ScannedUnsafe(h)
    for round_index in range(4):
        # A fresh core (cold predictor) per round squashes the program as
        # a wrong path on fresh lines, then runs it for real on the same,
        # warmer cache.
        transient = build_program(_wrong_path_preamble(0x10000 * (round_index + 1)) + specs)
        core = Core(h, defense, config=h.config.core)
        core.run(transient, max_instructions=10_000)
        core.run(program, max_instructions=10_000)
    assert defense.checked == len(h.commits) == defense.squash_count >= 4


def test_scanned_unsafe_sees_speculative_installs():
    """The property above is not vacuous: this squash commits lines."""
    h = _RecordingHierarchy(seed=0)
    core = Core(h, _ScannedUnsafe(h))
    core.run(build_program(SQUASHING_PROGRAM))
    assert h.commits == [(2, 2)]


def test_machines_free_without_the_cycle_collector():
    program = build_program(SQUASHING_PROGRAM)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for key in defense_keys():
            obs = Observability()
            hierarchy = CacheHierarchy(obs=obs)
            defense = make_defense(key, hierarchy)
            core = Core(hierarchy, defense, obs=obs)
            assert core.run(program).squashes, key
            del obs, hierarchy, defense, core
            assert gc.collect() == 0, f"{key}: machine left cyclic garbage"
    finally:
        if was_enabled:
            gc.enable()
