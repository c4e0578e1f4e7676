"""Structural-parameter tests of the core: widths, ROB sizes, latencies."""

import pytest

from repro.cache import CacheHierarchy
from repro.common.config import CoreConfig
from repro.cpu import Core
from repro.defense import CleanupSpec, UnsafeBaseline
from repro.isa import ProgramBuilder


def build_alu_stream(n, independent=True):
    b = ProgramBuilder("stream")
    b.li("r1", 1)
    for i in range(n):
        if independent:
            b.addi(f"r{2 + i % 16}", "r1", i)
        else:
            b.addi("r1", "r1", 1)
    b.halt()
    return b.build()


def run_with(config, program, seed=0):
    h = CacheHierarchy(seed=seed)
    core = Core(h, UnsafeBaseline(h), config=config)
    return core.run(program)


class TestDispatchWidth:
    def test_wider_dispatch_is_faster_on_independent_work(self):
        program = build_alu_stream(400, independent=True)
        narrow = run_with(CoreConfig(dispatch_width=1), program).cycles
        wide = run_with(CoreConfig(dispatch_width=8), program).cycles
        assert wide < narrow
        # Width-1 dispatch needs >= one cycle per instruction.
        assert narrow >= 400

    def test_width_does_not_help_dependent_chains(self):
        program = build_alu_stream(400, independent=False)
        narrow = run_with(CoreConfig(dispatch_width=1), program).cycles
        wide = run_with(CoreConfig(dispatch_width=8), program).cycles
        assert wide >= narrow - 5  # the chain is the critical path


class TestDispatchRecurrence:
    """Exact dispatch cycles of the in-order, width-limited, ROB-bounded front end."""

    def test_four_wide_dispatch_cycles(self):
        b = ProgramBuilder("eight")
        for i in range(8):
            b.li(f"r{1 + i}", i)
        b.halt()
        h = CacheHierarchy(seed=0)
        core = Core(h, UnsafeBaseline(h), config=CoreConfig(dispatch_width=4), record_timeline=True)
        timeline = core.run(b.build()).timeline
        assert [t.dispatch for t in timeline] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_full_rob_stalls_dispatch(self):
        # The slow first load fills one of four ROB entries until it
        # commits; the fifth instruction needs that entry.
        b = ProgramBuilder("rob-full")
        b.load("r2", "r1", 0x8000)
        for i in range(5):
            b.li(f"r{3 + i}", i)
        b.halt()
        h = CacheHierarchy(seed=0)
        core = Core(h, UnsafeBaseline(h), config=CoreConfig(rob_entries=4), record_timeline=True)
        timeline = core.run(b.build()).timeline
        first_commit = timeline[0].complete
        assert timeline[0].level == "MEM"
        assert [t.dispatch for t in timeline[:4]] == [0, 0, 0, 0]
        # Not before the oldest instruction commits, and not later either.
        assert timeline[4].dispatch == first_commit


class TestRobPressure:
    def test_tiny_rob_slows_memory_shadowed_work(self):
        # A long-latency load followed by many independent ops: a tiny ROB
        # cannot slide past the load, a big one can.
        b = ProgramBuilder("rob")
        b.li("r1", 0x8000)
        b.load("r2", "r1", 0)  # 122 cycles
        for i in range(256):
            b.addi(f"r{3 + i % 16}", "r1", i)
        b.halt()
        program = b.build()
        small = run_with(CoreConfig(rob_entries=8), program).cycles
        large = run_with(CoreConfig(rob_entries=192), program).cycles
        assert small > large

    def test_commit_order_preserved_under_pressure(self):
        program = build_alu_stream(100)
        result = run_with(CoreConfig(rob_entries=4), program)
        assert result.instructions == len(program)


class TestLatencyParameters:
    def test_mul_latency_respected(self):
        b = ProgramBuilder("mul")
        b.li("r1", 3)
        for _ in range(50):
            b.op("mul", "r1", "r1", "r1")
        b.halt()
        program = b.build()
        fast = run_with(CoreConfig(mul_latency=1), program).cycles
        slow = run_with(CoreConfig(mul_latency=6), program).cycles
        assert slow - fast >= 50 * 4  # 5-cycle delta per chained mul

    def test_flush_latency_respected(self):
        b = ProgramBuilder("flushes")
        b.li("r1", 0x8000)
        for k in range(10):
            b.flush("r1", 64 * k)
        b.fence()
        b.halt()
        program = b.build()
        fast = run_with(CoreConfig(flush_latency=5), program).cycles
        slow = run_with(CoreConfig(flush_latency=80), program).cycles
        assert slow > fast

    def test_mispredict_penalty_scales(self):
        def mispredicting_program():
            b = ProgramBuilder("mp")
            b.li("r1", 3)
            b.li("r2", 2)
            b.branch("ge", "r1", "r2", "skip")  # taken, predicted NT
            b.nop(3)
            b.label("skip")
            b.nop(5)
            b.halt()
            return b.build()

        small = run_with(CoreConfig(mispredict_penalty=2), mispredicting_program()).cycles
        large = run_with(CoreConfig(mispredict_penalty=40), mispredicting_program()).cycles
        assert large - small >= 30


class TestSquashDelayParameter:
    def test_wider_window_admits_slower_transients(self):
        """With a tiny squash window the transient DRAM fill is cancelled;
        with a wide one it installs and gets rolled back."""

        def run(delay):
            h = CacheHierarchy(seed=0)
            core = Core(h, CleanupSpec(h), squash_delay=delay)
            b = ProgramBuilder("window")
            b.li("r1", 0x8000)
            b.li("r2", 3)
            b.li("r4", 0x9000)
            b.flush("r4", 0)
            b.fence()
            b.load("r5", "r4", 0)  # bound: DRAM
            b.branch("ge", "r2", "r5", "skip")
            b.nop(2)  # delay the transient load's dispatch slightly
            b.load("r6", "r1", 0)  # transient: DRAM
            b.label("skip")
            b.halt()
            return core.run(b.build()).last_squash()

        narrow = run(0)
        wide = run(40)
        assert narrow.outcome.invalidated_l1 <= wide.outcome.invalidated_l1
        assert wide.outcome.invalidated_l1 == 1

    def test_negative_delay_rejected(self):
        h = CacheHierarchy(seed=0)
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            Core(h, UnsafeBaseline(h), squash_delay=-1)


class TestMshrIntegration:
    def test_core_load_burst_hits_mshr_pressure(self):
        from dataclasses import replace

        from repro.common.config import SystemConfig

        config = SystemConfig()
        config = replace(config, core=replace(config.core, mshr_entries=2))
        h = CacheHierarchy(config=config, seed=0)
        core = Core(h, UnsafeBaseline(h), config=config.core)
        b = ProgramBuilder("burst")
        b.li("r1", 0x100000)
        for k in range(6):
            b.load(f"r{2 + k}", "r1", 4096 * k)  # independent cold misses
        b.halt()
        core.run(b.build())
        assert h.mshr.stats.stall_events > 0
