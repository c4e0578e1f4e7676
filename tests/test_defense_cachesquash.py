"""CacheSquash cancellable-request defense: quantization + golden pins."""

from __future__ import annotations

import pytest

from repro.attack import GadgetParams, UnxpecAttack
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.spec_tracker import EpochDelta
from repro.common.errors import ConfigError
from repro.defense.base import SquashContext, defense_capabilities
from repro.defense.cachesquash import (
    DEFAULT_CANCEL_QUANTUM,
    DEFAULT_COALESCE_WIDTH,
    CacheSquash,
)

SAMPLE_BITS = (0, 1, 0, 1, 1, 0)

#: Pinned rounds: constant 154 = the defenseless 138 plus exactly one
#: cancel quantum (16) — every squash pays one coalesced batch, whatever
#: the secret and whatever the footprint (1 or 8 transient loads).
GOLDEN_CACHESQUASH = {
    1: [154, 154, 154, 154, 154, 154],
    8: [154, 154, 154, 154, 154, 154],
}


def _ctx(shadow_fills=0, shadow_inflight=0):
    return SquashContext(
        resolve_cycle=100,
        delta=EpochDelta(epoch=1),
        inflight_transient=0,
        older_mem_complete=0,
        shadow_fills=shadow_fills,
        shadow_inflight=shadow_inflight,
    )


class TestCancellationQuantization:
    @pytest.mark.parametrize(
        "inflight,expected_batches",
        [
            # The empty cancellation walk still pays one quantum: 0-vs-1
            # in flight is an L1 hit vs a miss — exactly the unXpec
            # secret — and must land in the same timing bucket.
            (0, 1),
            (1, 1),
            (DEFAULT_COALESCE_WIDTH, 1),
            (DEFAULT_COALESCE_WIDTH + 1, 2),
            (3 * DEFAULT_COALESCE_WIDTH, 3),
        ],
    )
    def test_stall_is_bucketed(self, inflight, expected_batches):
        defense = CacheSquash(CacheHierarchy(seed=0))
        outcome = defense.on_squash(_ctx(shadow_inflight=inflight))
        assert outcome.stall_cycles == expected_batches * DEFAULT_CANCEL_QUANTUM
        assert defense.total_cancelled == inflight

    def test_zero_and_one_inflight_are_indistinguishable(self):
        defense = CacheSquash(CacheHierarchy(seed=0))
        hit_path = defense.on_squash(_ctx(shadow_inflight=0)).stall_cycles
        miss_path = defense.on_squash(_ctx(shadow_inflight=1)).stall_cycles
        assert hit_path == miss_path

    def test_custom_geometry(self):
        defense = CacheSquash(
            CacheHierarchy(seed=0), cancel_quantum=10, coalesce_width=2
        )
        assert defense.on_squash(_ctx(shadow_inflight=5)).stall_cycles == 30
        assert defense.total_cancel_stall == 30

    def test_config_validation(self):
        h = CacheHierarchy(seed=0)
        with pytest.raises(ConfigError):
            CacheSquash(h, cancel_quantum=-1)
        with pytest.raises(ConfigError):
            CacheSquash(h, coalesce_width=0)

    def test_capabilities(self):
        caps = defense_capabilities("cachesquash")
        assert caps.family == "cancel"
        assert set(caps.closes_channels) == {"flush", "rollback"}
        assert caps.shadowed_structures == ("MSHR",)
        assert CacheSquash.speculative_miss == "shadow"


@pytest.mark.parametrize("n_loads", sorted(GOLDEN_CACHESQUASH))
def test_golden_rounds_are_secret_independent(n_loads):
    attack = UnxpecAttack(
        params=GadgetParams(n_loads=n_loads),
        defense_factory=lambda h: CacheSquash(h),
        seed=0,
    )
    attack.prepare()
    latencies = [attack.sample(bit).latency for bit in SAMPLE_BITS]
    assert latencies == GOLDEN_CACHESQUASH[n_loads]
