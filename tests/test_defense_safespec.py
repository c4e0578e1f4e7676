"""SafeSpec shadow-structure defense: mechanics + golden timing pins."""

from __future__ import annotations

import pytest

from repro.attack import GadgetParams, UnxpecAttack
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.spec_tracker import EpochDelta, SpecInstall
from repro.defense.base import SquashContext, defense_capabilities
from repro.defense.safespec import SafeSpec

SAMPLE_BITS = (0, 1, 0, 1, 1, 0)

#: The defining property, pinned bit-for-bit: the round latency is a
#: constant — independent of the secret *and* of the transient footprint
#: size (CleanupSpec separates by ~22 cycles at n_loads=1 and grows with
#: n_loads; SafeSpec's squash is a free bulk discard).
GOLDEN_SAFESPEC = {
    1: [138, 138, 138, 138, 138, 138],
    8: [138, 138, 138, 138, 138, 138],
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


class TestSquashHandling:
    def test_squash_is_free_and_counts_discards(self):
        h = CacheHierarchy(seed=0)
        defense = SafeSpec(h)
        outcome = defense.on_squash(_ctx(shadow_fills=3, shadow_inflight=1))
        assert outcome.stall_cycles == 0
        assert defense.total_shadow_fills == 3
        assert defense.total_shadow_discards == 3
        # A footprint-free squash is indistinguishable in timing.
        assert defense.on_squash(_ctx()).stall_cycles == 0

    def test_rejects_real_speculative_installs(self):
        h = CacheHierarchy(seed=0)
        defense = SafeSpec(h)
        dirty = EpochDelta(
            epoch=1,
            installs=[SpecInstall(level="L1", line_addr=0x40, set_index=1, way=0)],
        )
        with pytest.raises(AssertionError):
            defense.handle_squash(
                SquashContext(
                    resolve_cycle=0,
                    delta=dirty,
                    inflight_transient=0,
                    older_mem_complete=0,
                )
            )

    def test_capabilities(self):
        caps = defense_capabilities("safespec")
        assert caps.family == "shadow"
        assert set(caps.closes_channels) == {"flush", "rollback"}
        assert caps.shadowed_structures == ("L1", "MSHR")
        assert SafeSpec.speculative_miss == "shadow"


@pytest.mark.parametrize("n_loads", sorted(GOLDEN_SAFESPEC))
def test_golden_rounds_are_secret_independent(n_loads):
    attack = UnxpecAttack(
        params=GadgetParams(n_loads=n_loads),
        defense_factory=lambda h: SafeSpec(h),
        seed=0,
    )
    attack.prepare()
    latencies = [attack.sample(bit).latency for bit in SAMPLE_BITS]
    assert latencies == GOLDEN_SAFESPEC[n_loads]
