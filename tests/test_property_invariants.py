"""Cross-layer invariant properties that must hold for arbitrary inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy
from repro.defense.base import SquashContext
from repro.defense.cleanupspec import CleanupSpec
from repro.defense.constant_time import ConstantTimeRollback
from repro.defense.fuzzy import FuzzyCleanup

addresses = st.integers(0, (1 << 24) - 1)


class TestProbeAccessConsistency:
    @given(st.lists(addresses, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_probe_always_predicts_access(self, addrs):
        """probe_latency must agree with the access that follows it.

        The only permitted divergence is the MSHR-full queueing penalty —
        a structural hazard the state-only probe deliberately excludes.
        """
        h = CacheHierarchy(seed=11)
        penalty = h.latency.mshr_full_penalty
        for i, addr in enumerate(addrs):
            latency, level = h.probe_latency(addr)
            got_latency, got_level = h.access(addr, cycle=i)
            assert got_latency in (latency, latency + penalty)
            assert got_level == level

    @given(st.lists(addresses, min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_second_access_is_l1_hit(self, addrs):
        h = CacheHierarchy(seed=11)
        for i, addr in enumerate(addrs):
            h.access(addr, cycle=i)
            assert h.access(addr, cycle=i)[1] == "L1"

    @given(st.lists(addresses, min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_flush_then_probe_never_l1(self, addrs):
        h = CacheHierarchy(seed=11)
        for addr in addrs:
            h.access(addr, 0)
        for addr in addrs:
            h.flush_line(addr)
            _, level = h.probe_latency(addr)
            assert level == "MEM"


def make_delta(h, lines):
    epoch = h.open_epoch()
    for i, line in enumerate(lines):
        h.access(0x30000 + line * 64, 10 + i, speculative=True, epoch=epoch)
    return h.squash_epoch_delta(epoch)


def ctx(delta, older=0, inflight=0):
    return SquashContext(
        resolve_cycle=100_000,
        delta=delta,
        inflight_transient=inflight,
        older_mem_complete=older,
    )


class TestSquashOutcomeInvariants:
    @given(st.lists(st.integers(0, 63), min_size=0, max_size=12))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_cleanupspec_breakdown_sums_to_stall(self, lines):
        h = CacheHierarchy(seed=3)
        d = CleanupSpec(h)
        outcome = d.on_squash(ctx(make_delta(h, lines)))
        assert outcome.stall_cycles == sum(outcome.breakdown.values())
        assert outcome.stall_cycles >= 0

    @given(
        st.lists(st.integers(0, 63), min_size=0, max_size=12),
        st.integers(0, 80),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_constant_time_floor(self, lines, const):
        h = CacheHierarchy(seed=3)
        d = ConstantTimeRollback(h, const)
        outcome = d.on_squash(ctx(make_delta(h, lines)))
        # Relaxed scheme: the rollback stage never undershoots the constant.
        assert outcome.stage("t5_rollback") + outcome.stage("padding") >= const
        assert outcome.stall_cycles == sum(outcome.breakdown.values())

    @given(
        st.lists(st.integers(0, 63), min_size=0, max_size=8),
        st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_fuzzy_bounded_above_cleanupspec(self, lines, amplitude):
        h = CacheHierarchy(seed=3)
        inner_ref = CleanupSpec(CacheHierarchy(seed=3))
        ref_outcome = inner_ref.on_squash(
            ctx(make_delta(inner_ref.hierarchy, lines))
        )
        d = FuzzyCleanup(h, amplitude, seed=9)
        outcome = d.on_squash(ctx(make_delta(h, lines)))
        base = ref_outcome.stall_cycles
        assert base <= outcome.stall_cycles <= base + amplitude

    @given(st.integers(0, 20), st.integers(0, 400))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_t4_only_with_work(self, inflight, older):
        """An empty delta never pays the in-flight wait."""
        h = CacheHierarchy(seed=3)
        d = CleanupSpec(h)
        outcome = d.on_squash(ctx(make_delta(h, []), older=older, inflight=inflight))
        assert outcome.stage("t4_inflight_wait") == 0
        assert outcome.stage("t5_rollback") == 0


class TestTraceRobustness:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=20))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_render_never_crashes(self, lines):
        from repro.cpu import Core
        from repro.defense import UnsafeBaseline
        from repro.isa import ProgramBuilder
        from repro.tools import render_squashes, render_timeline, summarize_run

        h = CacheHierarchy(seed=5)
        core = Core(h, UnsafeBaseline(h), record_timeline=True)
        b = ProgramBuilder("rnd")
        b.li("r1", 0x30000)
        for line in lines:
            b.load("r2", "r1", line * 64)
        b.halt()
        result = core.run(b.build())
        assert render_timeline(result)
        assert render_squashes(result)
        assert summarize_run(result)


class TestShardingInvariants:
    """Campaign sharding: k shards of N trials always cover exactly N."""

    @given(st.integers(0, 5000), st.integers(1, 64))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_split_covers_exactly_n_trials(self, n_trials, n_shards):
        from repro.campaign import split_trials

        spans = split_trials(n_trials, n_shards)
        assert sum(stop - start for start, stop in spans) == n_trials
        # Contiguous, ascending, disjoint half-open spans.
        cursor = 0
        for start, stop in spans:
            assert start == cursor and stop > start
            cursor = stop
        assert cursor == n_trials
        # Never more shards than trials; sizes balanced within one.
        assert len(spans) == min(n_shards, n_trials)
        if spans:
            sizes = [stop - start for start, stop in spans]
            assert max(sizes) - min(sizes) <= 1

    @given(st.integers(0, 2**62), st.integers(1, 16))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_shard_seeds_are_disjoint_substreams(self, parent_seed, n_shards):
        from repro.campaign import shard_seed

        seeds = [shard_seed(parent_seed, "fig10", i) for i in range(n_shards)]
        assert len(set(seeds)) == n_shards, "substream collision"
        assert parent_seed not in seeds
        # Different experiments draw from different substream families.
        other = [shard_seed(parent_seed, "fig9", i) for i in range(n_shards)]
        assert not set(seeds) & set(other)

    @given(st.integers(0, 2**62), st.integers(1, 16))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_shard_seeds_deterministic(self, parent_seed, index):
        from repro.campaign import shard_seed

        assert shard_seed(parent_seed, "fig3", index) == shard_seed(
            parent_seed, "fig3", index
        )


class TestSnapshotMergeInvariants:
    """Merging per-shard stat snapshots must equal whole-dataset stats."""

    @given(
        st.lists(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False), min_size=0, max_size=30
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_pooled_moments_match_whole_dataset(self, shards):
        import math

        from repro.campaign import merge_snapshots, snapshot_with_kinds
        from repro.obs import StatRegistry

        snapshots = []
        for samples in shards:
            reg = StatRegistry()
            dist = reg.distribution("x.lat")
            for v in samples:
                dist.add(v)
            snapshots.append(snapshot_with_kinds(reg))

        whole = StatRegistry().distribution("x.lat")
        for samples in shards:
            for v in samples:
                whole.add(v)

        _, entry = merge_snapshots(snapshots)["x.lat"]
        assert entry["count"] == whole.count
        assert math.isclose(entry["total"], whole.total, abs_tol=1e-6)
        if whole.count:
            assert entry["min"] == whole.minimum
            assert entry["max"] == whole.maximum
            assert math.isclose(entry["mean"], whole.mean, abs_tol=1e-6)
            assert math.isclose(
                entry["stddev"], whole.stddev, rel_tol=1e-6, abs_tol=1e-6
            )

    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=8),
        st.lists(st.integers(0, 1000), min_size=1, max_size=8),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_counters_sum_exactly(self, a_counts, b_counts):
        from repro.campaign import merge_snapshots

        snapshots = [
            {"core.squashes": ("counter", a), "l1d.fills": ("counter", b)}
            for a, b in zip(a_counts, b_counts)
        ]
        merged = merge_snapshots(snapshots)
        n = len(snapshots)
        assert merged["core.squashes"] == ("counter", sum(a_counts[:n]))
        assert merged["l1d.fills"] == ("counter", sum(b_counts[:n]))
