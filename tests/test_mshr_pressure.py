"""Tests for MSHR-pressure modeling in the hierarchy."""

from repro.cache import CacheHierarchy
from repro.common.config import SystemConfig


def small_mshr_hierarchy(entries=2):
    from dataclasses import replace

    config = SystemConfig()
    config = replace(config, core=replace(config.core, mshr_entries=entries))
    return CacheHierarchy(config=config, seed=0)


class TestMshrPressure:
    def test_full_mshr_charges_penalty(self):
        h = small_mshr_hierarchy(entries=2)
        base = h.latency.memory_total
        # Two outstanding misses at the same cycle fill the file.
        assert h.access(0x10000, cycle=0) == (base, "MEM")
        assert h.access(0x20000, cycle=0) == (base, "MEM")
        # The third miss in the same cycle queues.
        latency, _ = h.access(0x30000, cycle=0)
        assert latency == base + h.latency.mshr_full_penalty
        assert h.mshr.stats.stall_events == 1

    def test_entries_retire_and_free_slots(self):
        h = small_mshr_hierarchy(entries=2)
        h.access(0x10000, cycle=0)
        h.access(0x20000, cycle=0)
        # Much later, the fills have completed; a new miss pays no penalty.
        latency, _ = h.access(0x30000, cycle=1000)
        assert latency == h.latency.memory_total
        assert h.mshr.stats.stall_events == 0

    def test_merges_never_stall(self):
        h = small_mshr_hierarchy(entries=1)
        h.access(0x10000, cycle=0)
        # Same line again: merges into the existing entry (after it retires
        # this is just a hit, so re-flush to force the path).
        h.flush_line(0x10000)
        h.access(0x10000, cycle=0)
        _, level = h.access(0x10008, cycle=0)  # same line, still in flight
        assert level == "L1"  # line installed by the first access

    def test_hits_unaffected_by_full_mshr(self):
        h = small_mshr_hierarchy(entries=1)
        h.access(0x10000, cycle=0)
        h.access(0x20000, cycle=0)  # queues (penalty), but installs
        assert h.access(0x10000, cycle=1) == (h.latency.l1_hit, "L1")

    def test_attack_rounds_never_hit_pressure(self):
        """The unXpec round keeps well under the 16-entry file — MSHR
        pressure never contaminates the measurement."""
        from repro.attack import GadgetParams, UnxpecAttack

        attack = UnxpecAttack(params=GadgetParams(n_loads=8), seed=3)
        attack.prepare()
        attack.sample(0)
        attack.sample(1)
        assert attack.hierarchy.mshr.stats.stall_events == 0
