"""Extension — SpectreRewind: the divider-contention covert channel.

Undo- and shadow-based defenses police *cache state*: CleanupSpec restores
evicted lines, SafeSpec keeps speculative fills in shadow structures. The
SpectreRewind observation (Fustos & Yun; carried into the interference
literature) is that the functional units are a transmitter those defenses
never touch: the divider is non-pipelined, so transient divisions that
*issue* before the squash occupy it past the squash, and a committed
division right after the mis-predicted branch queues behind them. The
receiver's ``rdtscp``-bracketed latency over that committed division is
secret-dependent with **zero cache involvement** — no flush, no reload,
no footprint.

One shard per registered defense: each runs the
:class:`~repro.attack.rewind.RewindAttack` round loop (the
:class:`~repro.attack.gadgets.RewindGadget` sender) for both secrets and
records the committed-division latency plus the squash stall. The merged
table shows the paper-shaped story:

* under **CleanupSpec** (the unXpec target) and **SafeSpec** the cache
  channels are closed but the divider delta survives untouched;
* **CacheSquash**'s quantized squash stall and **constant-time** rollback
  happen to cover the divider tail — the contention delta collapses, by
  accident of their fixed post-squash delay, not by design;
* the squash stall itself stays secret-independent wherever the defense
  claims the rollback channel closed (the gadget transmits *only*
  through the divider).
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Sequence

from ..attack.rewind import RewindAttack
from ..defense.base import defense_keys, make_defense
from .base import ExperimentResult, Shard, ShardableExperiment
from .registry import register


@register
class ExtRewind(ShardableExperiment):
    id = "ext_rewind"
    title = "SpectreRewind divider contention vs cache defenses (extension)"
    paper_claim = (
        "Transient divisions occupy the non-pipelined divider past the "
        "squash; a committed division's latency leaks the secret with no "
        "cache involvement, under CleanupSpec and SafeSpec alike"
    )

    #: Defenses whose fixed post-squash delay covers the divider tail —
    #: the contention delta collapses there (see module docstring).
    COVERED = ("cachesquash", "constant_time")

    def _rounds(self, quick: bool) -> int:
        return 3 if quick else 6

    def shard_plan(self, quick: bool = False, seed: int = 0) -> List[Shard]:
        keys = defense_keys()
        return [
            Shard(
                index=i,
                count=len(keys),
                tag=f"defense:{key}",
                params={"defense": key},
            )
            for i, key in enumerate(keys)
        ]

    def run_shard(self, shard: Shard, quick: bool = False, seed: int = 0) -> object:
        defense_key = shard.params["defense"]
        attack = RewindAttack(
            defense_factory=lambda h: make_defense(defense_key, h),
            seed=seed,
        )
        attack.prepare()
        rounds = self._rounds(quick)
        rows = []
        for bit in (0, 1):
            for sample in attack.sample_many(bit, rounds):
                rows.append([sample.secret, sample.latency, sample.stall])
        return {"defense": defense_key, "rows": rows}

    def merge_shards(
        self, partials: Sequence[object], quick: bool = False, seed: int = 0
    ) -> ExperimentResult:
        result = self.new_result()
        tbl = result.table(
            "divider_channel",
            ["defense", "lat s=0", "lat s=1", "delta", "stall s=0", "stall s=1"],
        )
        deltas: Dict[str, float] = {}
        stall_dependent: Dict[str, bool] = {}
        for partial in partials:
            key = partial["defense"]
            lat = {0: [], 1: []}
            stall = {0: [], 1: []}
            for secret, latency, stall_cycles in partial["rows"]:
                lat[secret].append(latency)
                stall[secret].append(stall_cycles)
            delta = mean(lat[0]) - mean(lat[1])
            deltas[key] = delta
            stall_dependent[key] = mean(stall[0]) != mean(stall[1])
            tbl.add(
                key,
                round(mean(lat[0]), 1),
                round(mean(lat[1]), 1),
                round(delta, 1),
                round(mean(stall[0]), 1),
                round(mean(stall[1]), 1),
            )

        for key in sorted(deltas):
            result.metric(f"divider_delta_{key}", deltas[key])

        result.check(
            "divider_leaks_under_cleanupspec",
            abs(deltas["cleanupspec"]) >= 10,
            f"committed-division delta {deltas['cleanupspec']:.1f} cycles "
            "under CleanupSpec: undoing cache state leaves the divider "
            "occupied",
        )
        result.check(
            "divider_leaks_under_safespec",
            abs(deltas["safespec"]) >= 10,
            f"delta {deltas['safespec']:.1f} cycles under SafeSpec: shadow "
            "fills never touch the functional units either",
        )
        result.check(
            "fixed_delay_covers_divider_tail",
            all(deltas[key] == 0 for key in self.COVERED),
            "cachesquash/constant-time post-squash delays exceed the "
            "divider tail, collapsing the delta (by accident, not design)",
        )
        result.check(
            "no_cache_side_effects",
            not any(
                stall_dependent[key]
                for key in deltas
                if key in ("safespec", "cachesquash", "delay_on_miss")
            ),
            "the squash stall stays secret-independent under the shadow/"
            "cancel/invisible families — the gadget transmits only through "
            "the divider",
        )
        return result
