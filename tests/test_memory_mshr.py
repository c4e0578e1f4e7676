"""Tests for repro.memory.mshr — allocation, merging, T3 cleaning."""

import pytest

from repro.common.errors import MshrFullError
from repro.memory.mshr import MshrFile


class TestAllocation:
    def test_allocate_and_lookup(self):
        m = MshrFile(capacity=4)
        e = m.allocate(0x1000, issue_cycle=0, complete_cycle=100)
        assert m.lookup(0x1000) is e
        assert len(m) == 1

    def test_capacity_enforced(self):
        m = MshrFile(capacity=2)
        m.allocate(0x0, 0, 10)
        m.allocate(0x40, 0, 10)
        assert not m.can_allocate(0x80)
        with pytest.raises(MshrFullError):
            m.allocate(0x80, 0, 10)
        assert m.stats.stall_events == 1

    def test_merge_does_not_allocate(self):
        m = MshrFile(capacity=1)
        first = m.allocate(0x0, 0, 10)
        second = m.allocate(0x0, 5, 20)
        assert first is second
        assert first.merged == 2
        assert m.stats.merges == 1
        assert m.can_allocate(0x0)  # merging always allowed

    def test_merge_demotes_speculative(self):
        m = MshrFile()
        m.allocate(0x0, 0, 10, speculative=True)
        e = m.allocate(0x0, 1, 10, speculative=False)
        assert not e.speculative

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MshrFile(capacity=0)


class TestRetirement:
    def test_retire_completed(self):
        m = MshrFile()
        m.allocate(0x0, 0, 10)
        m.allocate(0x40, 0, 50)
        done = m.retire_completed(20)
        assert [e.line_addr for e in done] == [0x0]
        assert len(m) == 1

    def test_clear(self):
        m = MshrFile()
        m.allocate(0x0, 0, 10)
        m.clear()
        assert len(m) == 0

    def test_earliest_completion_bounds_retirement(self):
        m = MshrFile()
        empty = m.earliest_completion
        m.allocate(0x0, 0, 50)
        m.allocate(0x40, 0, 30)
        assert m.earliest_completion == 30
        assert m.retire_completed(29) == []
        assert [e.line_addr for e in m.retire_completed(30)] == [0x40]
        assert m.earliest_completion == 50
        m.retire_completed(50)
        assert m.earliest_completion == empty > 1 << 40


class TestSpeculativeCleaning:
    def test_inflight_speculative_selection(self):
        m = MshrFile()
        m.allocate(0x0, 0, 10, speculative=True)  # completes early
        m.allocate(0x40, 0, 100, speculative=True)  # in flight at 50
        m.allocate(0x80, 0, 100, speculative=False)  # correct-path
        inflight = m.inflight_speculative(50)
        assert [e.line_addr for e in inflight] == [0x40]

    def test_clean_speculative_removes_only_inflight_spec(self):
        m = MshrFile()
        m.allocate(0x0, 0, 100, speculative=True)
        m.allocate(0x40, 0, 100, speculative=False)
        cleaned = m.clean_speculative(50)
        assert [e.line_addr for e in cleaned] == [0x0]
        assert m.lookup(0x40) is not None
        assert m.stats.cleaned_inflight == 1

    def test_victim_metadata_kept(self):
        m = MshrFile()
        e = m.allocate(0x0, 0, 100, speculative=True, victim_line=0x2000, victim_dirty=True)
        assert e.victim_line == 0x2000
        assert e.victim_dirty
