"""Non-cache covert channels: divider occupancy and port interference.

Units for the :mod:`repro.cpu.fu` trackers, the committed-vs-transient
divider contention the SpectreRewind gadget rides on, the MSHR-aware
delay-on-miss probe alignment, the wrong-path noise-draw parity across
defense families, and both end-to-end channels (rewind, two-context
interference) at their pinned deterministic deltas.
"""

from __future__ import annotations

from repro.attack import InterferenceHarness, RewindAttack
from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import CacheGeometry, CoreConfig, SystemConfig
from repro.cpu.core import NEVER, Core
from repro.cpu.fu import FU_ALU, FU_DIV, FU_MUL, FuPool, OccupancyTimeline, fu_for_op
from repro.cpu.noise import NoiseModel
from repro.defense.base import defense_keys, make_defense
from repro.isa import ProgramBuilder


class TestFuPool:
    def test_uncontended_div_starts_on_time(self):
        pool = FuPool()
        assert pool.acquire_div(10, 40, NEVER) == 10
        assert pool.div_busy_until == 50
        assert pool.div_issues == 1
        assert pool.div_contended == 0

    def test_second_div_queues_behind_first(self):
        pool = FuPool()
        pool.acquire_div(10, 40, NEVER)
        assert pool.acquire_div(20, 40, NEVER) == 50
        assert pool.div_busy_until == 90
        assert pool.div_contended == 1

    def test_squash_does_not_release_the_unit(self):
        # The SpectreRewind property: occupancy persists regardless of who
        # issued it — there is no "release" API at all.
        pool = FuPool()
        pool.acquire_div(0, 40, deadline=30)  # transient, issued before its squash
        assert pool.acquire_div(35, 40, NEVER) == 40  # committed, post-squash

    def test_try_acquire_issues_before_deadline(self):
        pool = FuPool()
        assert pool.acquire_div(10, 40, deadline=11) == 10
        assert pool.div_busy_until == 50

    def test_try_acquire_killed_at_deadline(self):
        # Operands ready exactly at the squash point: the uop is still in
        # the reservation station and dies with it — no occupancy.
        pool = FuPool()
        assert pool.acquire_div(50, 40, deadline=50) is None
        assert pool.div_busy_until == 0
        assert pool.div_issues == 0
        assert pool.div_contended == 0

    def test_try_acquire_killed_when_queue_slips_past_deadline(self):
        # Operands ready in time but the unit busy past the squash: the
        # division never reaches the divider, so it leaves no side effect.
        pool = FuPool()
        pool.acquire_div(0, 40, NEVER)
        assert pool.acquire_div(10, 40, deadline=30) is None
        assert pool.div_busy_until == 40
        assert pool.div_issues == 1

    def test_try_acquire_queued_but_still_in_time(self):
        pool = FuPool()
        pool.acquire_div(0, 40, NEVER)
        assert pool.acquire_div(10, 40, deadline=60) == 40
        assert pool.div_busy_until == 80
        assert pool.div_contended == 1

    def test_fu_classification(self):
        assert fu_for_op("div") == FU_DIV
        assert fu_for_op("mul") == FU_MUL
        assert fu_for_op("add") == FU_ALU
        assert fu_for_op("xor") == FU_ALU


class TestOccupancyTimeline:
    def test_empty_timeline_is_always_free(self):
        assert OccupancyTimeline().next_free(123) == 123

    def test_request_inside_interval_slips_to_its_end(self):
        tl = OccupancyTimeline()
        tl.record(100, 50)
        assert tl.next_free(120) == 150
        assert tl.next_free(99) == 99
        assert tl.next_free(150) == 150

    def test_chains_through_abutting_and_overlapping_intervals(self):
        tl = OccupancyTimeline()
        tl.record(100, 50)
        tl.record(140, 60)  # overlaps the first
        tl.record(200, 10)  # abuts the second
        assert tl.next_free(110) == 210

    def test_out_of_order_records_are_sorted_lazily(self):
        tl = OccupancyTimeline()
        tl.record(200, 10)
        tl.record(100, 50)
        assert tl.next_free(120) == 150

    def test_zero_duration_is_ignored(self):
        tl = OccupancyTimeline()
        tl.record(100, 0)
        assert len(tl) == 0
        assert tl.busy_cycles == 0

    def test_busy_cycles_sums_raw_intervals(self):
        tl = OccupancyTimeline()
        tl.record(0, 122)
        tl.record(100, 122)
        assert tl.busy_cycles == 244
        assert len(tl) == 2


def _tiny_mshr_hierarchy() -> CacheHierarchy:
    line = 64
    config = SystemConfig(
        core=CoreConfig(mshr_entries=1),
        l1d=CacheGeometry(
            name="L1D", size_bytes=16 * 2 * line, ways=2, sets=16, line_size=line
        ),
        l2=CacheGeometry(
            name="L2", size_bytes=64 * 4 * line, ways=4, sets=64, line_size=line
        ),
    )
    return CacheHierarchy(config=config, seed=0)


class TestDelayProbeMshrAlignment:
    """The load step's predictions must agree with access().

    The wrong path's landed-vs-in-flight decision uses the MSHR-pressure-
    aware :meth:`~repro.cache.hierarchy.CacheHierarchy.predict_latency`,
    whose cost tracks what ``access`` charges when the one-entry MSHR file
    is full. The delay-on-miss decision ("is this an L1 miss under an
    unresolved branch") needs only the serving level, which the
    pressure-blind ``probe_latency`` gets right.
    """

    def test_predict_matches_access_under_full_mshr(self):
        hierarchy = _tiny_mshr_hierarchy()
        hierarchy.access(0x1000, cycle=0)  # occupies the single MSHR slot
        predicted, level = hierarchy.predict_latency(0x2000, 5)
        assert level == "MEM"
        assert (predicted, level) == hierarchy.access(0x2000, cycle=5)

    def test_probe_and_predict_agree_on_level(self):
        # The *decision* (miss vs hit) is pressure-independent: a full
        # MSHR changes the cost, never the serving level.
        hierarchy = _tiny_mshr_hierarchy()
        hierarchy.access(0x1000, cycle=0)
        assert hierarchy.probe_latency(0x2000)[1] == "MEM"
        assert hierarchy.predict_latency(0x2000, 5)[1] == "MEM"
        assert (
            hierarchy.predict_latency(0x2000, 5)[0]
            > hierarchy.probe_latency(0x2000)[0]
        )


def _mispredict_program(miss_addr: int):
    """A taken branch (predicted not-taken on a fresh predictor) whose
    wrong path loads one flushed line — a single MEM probe per round."""
    b = ProgramBuilder("draw-parity")
    b.li("r1", miss_addr)
    b.flush("r1", 0)
    b.fence()
    b.li("r2", 1)
    b.li("r3", 0)
    b.branch("ge", "r2", "r3", "skip")
    b.load("r4", "r1", 0)  # wrong path only
    b.label("skip")
    b.halt()
    return b.build()


class TestWrongPathDrawParity:
    """Every registered defense burns the same per-round noise draws.

    The delay-on-miss wrong path never issues a MEM miss downstream, but
    it must still consume the jitter draw the install/shadow policies
    make for that access — otherwise the shared noise stream desyncs
    across defenses and per-defense results stop being comparable.
    """

    def test_noise_stream_position_is_family_invariant(self):
        program = _mispredict_program(0x4000)
        positions = {}
        for key in defense_keys():
            hierarchy = CacheHierarchy(seed=0)
            hierarchy.dram.poke(0x4000, 7)
            core = Core(
                hierarchy,
                make_defense(key, hierarchy),
                config=hierarchy.config.core,
                noise=NoiseModel(mem_jitter_std=6.0),
                noise_seed=7,
            )
            result = core.run(program)
            assert len(result.squashes) == 1, key
            # Same seed + same number of draws => identical next value
            # (a stream never built sits at its start).
            positions[key] = core.noise_generator().random()
        assert len(set(positions.values())) == 1, positions


class TestRewindChannel:
    """End-to-end SpectreRewind at its pinned deterministic numbers."""

    def test_divider_delta_under_cleanupspec(self):
        attack = RewindAttack(seed=0)  # defaults to CleanupSpec
        attack.prepare()
        s0 = attack.sample(0)
        s1 = attack.sample(1)
        # Secret 0: both chase loads hit, the transient divisions issue and
        # grind past the squash, the committed receiver division queues.
        # Secret 1: the divisor's dependent load cannot complete before the
        # squash under any policy, so no transient division ever issues.
        assert s0.latency == 61
        assert s1.latency == 46
        assert s0.div_contended > 0
        assert s0.div_issues > s1.div_issues

    def test_no_secret_dependent_cache_footprint(self):
        # The gadget transmits only through the divider: the rollback
        # stall is secret-independent under the shadow family.
        attack = RewindAttack(
            defense_factory=lambda h: make_defense("safespec", h), seed=0
        )
        attack.prepare()
        assert attack.sample(0).stall == attack.sample(1).stall
        assert attack.sample(0).latency - attack.sample(1).latency == 15

    def test_fixed_post_squash_delay_covers_the_tail(self):
        # CacheSquash's quantized stall exceeds the divider tail, so the
        # committed division no longer observes the occupancy.
        attack = RewindAttack(
            defense_factory=lambda h: make_defense("cachesquash", h), seed=0
        )
        attack.prepare()
        assert attack.sample(0).latency == attack.sample(1).latency


class TestInterferenceChannel:
    """End-to-end two-context interference at its pinned numbers."""

    def test_probe_delta_under_safespec(self):
        harness = InterferenceHarness(defense_key="safespec", seed=0)
        harness.prepare()
        s0 = harness.sample(0)
        s1 = harness.sample(1)
        assert s1.probe_latency - s0.probe_latency == 67
        # Ground truth: the delta comes from recorded port traffic, not
        # from any victim-side architectural difference.
        assert s1.port_busy_cycles > s0.port_busy_cycles
        assert s0.victim_stall == s1.victim_stall

    def test_delay_on_miss_issues_no_transient_traffic(self):
        harness = InterferenceHarness(defense_key="delay_on_miss", seed=0)
        harness.prepare()
        s0 = harness.sample(0)
        s1 = harness.sample(1)
        assert s0.probe_latency == s1.probe_latency
        assert s0.port_busy_cycles == s1.port_busy_cycles

    def test_attacker_shares_no_cache_state(self):
        harness = InterferenceHarness(defense_key="safespec", seed=0)
        harness.prepare()
        harness.sample(1)
        # The victim's probe array lines never appear in the attacker's
        # hierarchy: the only coupling is the port timeline.
        lay = harness.layout
        for k in range(1, harness.params.n_loads + 1):
            assert not harness.attacker_hierarchy.in_l1(lay.p_entry(k))
            assert not harness.attacker_hierarchy.in_l2(lay.p_entry(k))

    def test_committed_chase_records_secret_independently(self):
        # Even with secret 0 (no transient burst) the victim's committed
        # condition chase occupies the port — the baseline the attacker's
        # probe delta is measured against.
        harness = InterferenceHarness(defense_key="safespec", seed=0)
        harness.prepare()
        sample = harness.sample(0)
        assert sample.port_intervals >= 1
        assert sample.port_busy_cycles > 0
