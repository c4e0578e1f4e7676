"""Regression tests for wrong-path timing-model bugfixes.

Each test pins one of the model fixes that shipped with the hot-path
overhaul:

1. the predictor is trained only *after* wrong-path simulation, so a
   transient re-fetch of the same branch (a loop gadget) peeks the
   pre-resolution counter;
2. an L2 line displaced by the writeback of a dirty L1 victim of a
   speculative install is recorded in the epoch's delta;
3. a wrong-path load's landed-vs-in-flight decision uses the same
   MSHR-pressure-aware latency the hierarchy actually charges;
4. the squash trace events are guarded uniformly by observability presence
   (they are emitted at any trace level, including "squash").
"""

from __future__ import annotations

from repro.cache import CacheHierarchy
from repro.common import SystemConfig
from repro.common.config import CacheGeometry
from repro.cpu import Core
from repro.cpu.predictor import WEAK_NOT_TAKEN, WEAK_TAKEN
from repro.defense import UnsafeBaseline
from repro.isa import ProgramBuilder
from repro.isa.decoded import OP_BRANCH
from repro.obs import Observability


def branch_pc_of(program) -> int:
    """pc of the first conditional branch in ``program``."""
    return next(i for i, t in enumerate(program.decoded()) if t[0] == OP_BRANCH)


class TestPredictorUpdateOrder:
    """Bugfix 1: train the predictor after the wrong path runs."""

    def test_loop_gadget_peeks_pre_update_counter(self):
        # A backward loop whose branch is at WEAK_TAKEN: predicted taken,
        # actually not taken. The wrong path enters the loop body and
        # re-fetches the branch; peeking the *pre-update* counter (still
        # WEAK_TAKEN) keeps it looping, so several transient loads issue.
        # The buggy order (update before the wrong path) would peek the
        # decremented counter, predict not-taken, exit the loop after a
        # single iteration and issue exactly one load.
        h = CacheHierarchy(seed=0)
        core = Core(h, UnsafeBaseline(h))
        b = ProgramBuilder("loop-gadget")
        b.li("r1", 1)
        b.li("r2", 2)
        b.li("r3", 0x9000)
        b.label("loop")
        b.branch("ge", "r1", "r2", "body")  # 1 >= 2: not taken
        b.jump("done")
        b.label("body")
        b.load("r4", "r3", 0)
        b.jump("loop")  # back edge: wrong path re-fetches the branch
        b.label("done")
        b.halt()
        program = b.build()

        bpc = branch_pc_of(program)
        core.predictor.update(bpc, True, False)  # counter -> WEAK_TAKEN
        assert core.predictor.counter(bpc) == WEAK_TAKEN

        res = core.run(program)
        event = res.last_squash()
        assert res.mispredictions == 1
        # The transient loop kept going until the squash window closed.
        assert event.transient_loads >= 2
        assert event.wrong_path_executed > 3
        # The single architectural resolution still trained the counter.
        assert core.predictor.counter(bpc) == WEAK_NOT_TAKEN


class TestWritebackL2EvictionRecorded:
    """Bugfix 2: writeback-displaced L2 lines appear in the epoch delta."""

    def test_dirty_victim_writeback_eviction_in_delta(self):
        # Single-line L1 and L2 make the chain deterministic. Dirty A sits
        # in L1; its L2 copy is dropped out-of-band (as another agent's
        # install would). A speculative load of B then evicts A from L1,
        # and A's writeback displaces B's freshly installed L2 line. That
        # second-order L2 eviction is a transient footprint and must be in
        # the delta (it used to be invisible to the tracker).
        cfg = SystemConfig(
            l1i=CacheGeometry("L1I", 64, ways=1, sets=1),
            l1d=CacheGeometry("L1D", 64, ways=1, sets=1),
            l2=CacheGeometry("L2", 64, ways=1, sets=1),
        )
        h = CacheHierarchy(config=cfg, seed=0, nomo_threads=1, randomize_l2=False)
        addr_a, addr_b = 0x1000, 0x2000

        h.access(addr_a, cycle=0, is_write=True)
        h.l2.invalidate(addr_a)
        assert h.in_l1(addr_a)

        epoch = h.open_epoch()
        h.access(addr_b, cycle=50, speculative=True, epoch=epoch)
        delta = h.squash_epoch_delta(epoch)

        l1_evictions = delta.evictions_at("L1")
        assert [(e.line_addr, e.dirty) for e in l1_evictions] == [(addr_a, True)]
        # The writeback of A displaced B at L2; B was itself speculative.
        l2_evictions = delta.evictions_at("L2")
        assert [(e.line_addr, e.was_speculative) for e in l2_evictions] == [
            (addr_b, True)
        ]
        # The written-back victim is architectural state and stays in L2.
        assert h.in_l2(addr_a)


class TestWrongPathMshrPressure:
    """Bugfix 3: wrong-path loads see the MSHR-full penalty they'd pay."""

    @staticmethod
    def _run(chain_len: int, fill_mshr: bool):
        h = CacheHierarchy(seed=0)
        if fill_mshr:
            # Far-future completions: the file stays full for the whole run.
            for i in range(h.mshr.capacity):
                h.mshr.allocate(
                    0x100000 + i * 64, issue_cycle=0, complete_cycle=1 << 40
                )
        core = Core(h, UnsafeBaseline(h))
        b = ProgramBuilder(f"mshr-pressure-{chain_len}")
        b.li("r1", 1)
        b.li("r3", 0x8000)
        for _ in range(chain_len):  # delay branch resolution
            b.mul("r1", "r1", "r1")
        b.li("r2", 2)
        b.branch("lt", "r1", "r2", "target")  # taken; fresh counter says NT
        b.load("r4", "r3", 0)  # wrong path: falls through into the load
        b.label("target")
        b.halt()
        res = core.run(b.build())
        event = res.last_squash()
        return event.inflight_transient, h.in_l1(0x8000)

    def test_penalty_flips_landed_to_inflight(self):
        # Scan resolution-delay lengths for the window where the load's
        # fill completes just before the squash *without* the MSHR-full
        # penalty but just after it *with* the penalty. With the old
        # probe-based completion (which ignored MSHR pressure) the filled
        # and empty runs could never disagree, the borderline load would
        # (wrongly) land, and this boundary would not exist.
        boundaries = []
        for chain_len in range(30, 50):
            inflight_empty, landed_empty = self._run(chain_len, fill_mshr=False)
            inflight_full, landed_full = self._run(chain_len, fill_mshr=True)
            if (inflight_empty, inflight_full) == (0, 1):
                assert landed_empty  # landed fill really installed
                assert not landed_full  # penalized fill stayed in flight
                boundaries.append(chain_len)
        assert boundaries, "no MSHR-pressure boundary found in scan range"

    def test_can_allocate_at_is_side_effect_free(self):
        from repro.memory.mshr import MshrFile

        mshr = MshrFile(capacity=2)
        mshr.allocate(0x100, issue_cycle=0, complete_cycle=50)
        mshr.allocate(0x200, issue_cycle=0, complete_cycle=200)
        # Full now; a merge target is always allocatable.
        assert not mshr.can_allocate_at(0x300, cycle=10)
        assert mshr.can_allocate_at(0x100, cycle=10)
        # After the first fill completes a slot frees up — predicted
        # without retiring anything.
        assert mshr.can_allocate_at(0x300, cycle=60)
        assert len(mshr) == 2  # no side effects

    def test_predict_latency_matches_access_charge(self):
        # The decision latency and the charged latency must agree, with
        # the MSHR both free and saturated.
        for fill in (False, True):
            h = CacheHierarchy(seed=0)
            if fill:
                for i in range(h.mshr.capacity):
                    h.mshr.allocate(
                        0x100000 + i * 64, issue_cycle=0, complete_cycle=1 << 40
                    )
            predicted, level = h.predict_latency(0x8000, cycle=5)
            epoch = h.open_epoch()
            access = h.access(0x8000, cycle=5, speculative=True, epoch=epoch)
            assert (predicted, level) == access


class TestSquashTraceGuards:
    """Bugfix 4: squash events are emitted at every trace level."""

    def test_squash_events_at_squash_level(self):
        obs = Observability(trace_level="squash")
        h = CacheHierarchy(seed=0, obs=obs)
        core = Core(h, UnsafeBaseline(h))
        b = ProgramBuilder("squash-trace")
        b.li("r1", 1)
        b.li("r2", 2)
        b.li("r3", 0x9000)
        b.branch("ge", "r1", "r2", "target")  # not taken; mistrained below
        b.nop(2)
        b.label("target")
        b.load("r4", "r3", 0)
        b.halt()
        program = b.build()
        core.predictor.update(branch_pc_of(program), True, False)

        res = core.run(program)
        assert res.mispredictions == 1

        kinds = [e.kind for e in obs.trace.events()]
        # The whole squash path is emitted, exactly once, in order...
        assert kinds.count("squash.begin") == 1
        assert kinds.count("spec.delta") == 1
        assert kinds.count("squash.end") == 1
        assert kinds.index("squash.begin") < kinds.index("spec.delta")
        assert kinds.index("spec.delta") < kinds.index("squash.end")
        # ...while per-instruction events stay off below "commit" level.
        assert "inst.commit" not in kinds
        assert "inst.dispatch" not in kinds
