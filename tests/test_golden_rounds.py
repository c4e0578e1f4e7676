"""Bit-identical timing regression guard for single attack rounds.

The performance work on the core hot path (decoded programs, cache fast
paths, lazy stats) is required to be *bit-identical* in timing: these
latency sequences were captured on the pre-optimization implementation and
any drift here means the fast path changed the model, not just its speed.

Unlike the campaign digest in test_golden_values.py (which aggregates
metrics across thousands of rounds), these pin individual round latencies,
including the exact per-round RNG draw order under campaign noise.
"""

from __future__ import annotations

import pytest

from repro.attack import GadgetParams, UnxpecAttack
from repro.cpu.noise import campaign_noise

#: secret-bit sequence sampled for each deterministic configuration.
SAMPLE_BITS = (0, 1, 0, 1, 1, 0)

#: Captured on the pre-optimization simulator (seed 0, prepare + 6 samples).
GOLDEN_PLAIN = {
    1: [138, 160, 138, 160, 160, 138],
    2: [138, 161, 138, 161, 161, 138],
    4: [138, 162, 138, 162, 162, 138],
    8: [138, 164, 138, 164, 164, 138],
}

GOLDEN_EVSET = {
    1: [138, 170, 138, 170, 170, 138],
    2: [138, 175, 138, 175, 175, 138],
    4: [138, 184, 138, 184, 184, 138],
    8: [138, 202, 138, 202, 202, 138],
}

#: Ten rounds (bits 0,1 alternating) under campaign noise: pins both the
#: latencies and the RNG draw order (one system-event draw per instruction
#: plus one jitter draw per memory-level load).
GOLDEN_NOISY = {
    0: [136, 139, 134, 130, 128, 167, 133, 150, 128, 173],
    7: [131, 152, 137, 160, 136, 170, 140, 171, 133, 164],
}


def _round_latencies(attack: UnxpecAttack, bits) -> list:
    attack.prepare()
    return [attack.sample(bit).latency for bit in bits]


class TestDeterministicRounds:
    @pytest.mark.parametrize("n_loads", sorted(GOLDEN_PLAIN))
    def test_plain_rounds(self, n_loads):
        attack = UnxpecAttack(
            params=GadgetParams(n_loads=n_loads), use_eviction_sets=False, seed=0
        )
        assert _round_latencies(attack, SAMPLE_BITS) == GOLDEN_PLAIN[n_loads]

    @pytest.mark.parametrize("n_loads", sorted(GOLDEN_EVSET))
    def test_evset_rounds(self, n_loads):
        attack = UnxpecAttack(
            params=GadgetParams(n_loads=n_loads), use_eviction_sets=True, seed=0
        )
        assert _round_latencies(attack, SAMPLE_BITS) == GOLDEN_EVSET[n_loads]


class TestNoisyRounds:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_NOISY))
    def test_campaign_noise_rounds(self, seed):
        attack = UnxpecAttack(
            params=GadgetParams(n_loads=1), seed=seed, noise=campaign_noise()
        )
        assert _round_latencies(attack, (0, 1) * 5) == GOLDEN_NOISY[seed]
