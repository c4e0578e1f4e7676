"""The (attack x defense x channel) matrix experiment.

One cell = one attack scenario against one registry-constructed defense,
judged under one observation channel.  Machine work is sharded per
(attack, defense) pair — every channel reads the same trial set — plus one
overhead shard per defense (synthetic SPEC-profile workloads, protected
vs. unsafe cycles).  The merged result is the leakage grid the paper's
story reduces to one table:

* the flush+reload footprint leaks only where speculative fills reach the
  real hierarchy and survive (the unsafe baseline);
* undo-based schemes close the footprint but open the rollback-timing
  channel (CleanupSpec's ~22-cycle secret-dependent squash — unXpec);
* SafeSpec-style shadow structures and CacheSquash-style cancellable
  requests close both *cache* channels, at near-baseline workload cost —
  but the non-cache contention channels stay open: SpectreRewind's
  divider occupancy leaks under CleanupSpec and SafeSpec, and the
  two-context interference probe leaks under SafeSpec and CacheSquash
  (no cache-centric defense claims the contention channel closed);
* every defense's *measured* row must be consistent with its registered
  :class:`~repro.defense.base.DefenseCapabilities` claim.

Run as ``python -m repro.experiments matrix [--jobs N]``; tables,
metrics, and checks are bit-identical for any jobs count (the campaign
determinism contract, docs/campaign.md).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..cache.hierarchy import CacheHierarchy
from ..cpu.core import Core
from ..defense.base import defense_capabilities, defense_keys, make_defense
from ..matrix import (
    evaluate_cell,
    grid_pairs,
    observations_to_rows,
    render_grid,
    rows_to_observations,
    run_cell_trials,
)
from ..workloads.profiles import SPEC2017_PROFILES
from ..workloads.synth import synthesize
from .base import ExperimentResult, Shard, ShardableExperiment
from .registry import register


@register
class MatrixGrid(ShardableExperiment):
    id = "matrix"
    title = "Attack x defense x channel leakage matrix (extension)"
    paper_claim = (
        "Undo schemes close the flush+reload footprint but leak through "
        "rollback timing; shadow-structure and cancellable-request schemes "
        "close both cache channels at near-baseline cost yet still leak "
        "through non-cache contention (divider occupancy, shared-port "
        "interference)"
    )

    def _trials(self, quick: bool) -> int:
        return 8 if quick else 16

    def shard_plan(self, quick: bool = False, seed: int = 0) -> List[Shard]:
        pairs = grid_pairs()
        overhead_defenses = [k for k in defense_keys() if k != "unsafe"]
        count = len(pairs) + len(overhead_defenses)
        shards = [
            Shard(
                index=i,
                count=count,
                tag=f"cell:{attack}:{defense}",
                params={"kind": "cell", "attack": attack, "defense": defense},
            )
            for i, (attack, defense) in enumerate(pairs)
        ]
        shards.extend(
            Shard(
                index=len(pairs) + j,
                count=count,
                tag=f"overhead:{defense}",
                params={"kind": "overhead", "defense": defense},
            )
            for j, defense in enumerate(overhead_defenses)
        )
        return shards

    def run_shard(self, shard: Shard, quick: bool = False, seed: int = 0) -> object:
        params = shard.params
        if params["kind"] == "cell":
            rows = observations_to_rows(
                run_cell_trials(
                    params["attack"], params["defense"], self._trials(quick), seed=seed
                )
            )
            return {
                "kind": "cell",
                "attack": params["attack"],
                "defense": params["defense"],
                "rows": rows,
            }
        return {
            "kind": "overhead",
            "defense": params["defense"],
            "overhead": self._overhead(params["defense"], quick, seed),
        }

    @staticmethod
    def _overhead(defense_key: str, quick: bool, seed: int) -> float:
        """Workload slowdown of one defense vs the unsafe baseline."""
        profiles = SPEC2017_PROFILES[:2] if quick else SPEC2017_PROFILES[:4]
        instructions = 2000 if quick else 6000

        def cycles(workload, key: str) -> int:
            hierarchy = CacheHierarchy(seed=seed + 1)
            core = Core(
                hierarchy, make_defense(key, hierarchy), config=hierarchy.config.core
            )
            return core.run(workload.program, max_instructions=20_000_000).cycles

        total = 0.0
        for profile in profiles:
            workload = synthesize(profile, instructions=instructions, seed=seed + 1)
            total += cycles(workload, defense_key) / cycles(workload, "unsafe") - 1.0
        return total / len(profiles)

    def merge_shards(
        self, partials: Sequence[object], quick: bool = False, seed: int = 0
    ) -> ExperimentResult:
        result = self.new_result()
        verdicts = []
        overheads: Dict[str, float] = {}
        for partial in partials:
            if partial["kind"] == "cell":
                verdicts.extend(
                    evaluate_cell(
                        partial["attack"],
                        partial["defense"],
                        rows_to_observations(partial["rows"]),
                    )
                )
            else:
                overheads[partial["defense"]] = partial["overhead"]

        cells = result.table(
            "cells",
            ["attack", "defense", "channel", "leaks", "signal", "accuracy",
             "claimed closed"],
        )
        for cv in sorted(
            verdicts, key=lambda v: (v.cell.attack, v.cell.defense, v.cell.channel)
        ):
            cells.add(
                cv.cell.attack,
                cv.cell.defense,
                cv.cell.channel,
                cv.leaks,
                round(cv.signal, 2),
                round(cv.accuracy, 3),
                cv.claimed_closed,
            )

        pivot = render_grid(verdicts)
        columns = sorted({column for row in pivot.values() for column in row})
        grid = result.table(
            "grid",
            ["defense", "family", *columns, "overhead %"],
        )
        for defense in defense_keys():
            caps = defense_capabilities(defense)
            overhead = overheads.get(defense)
            grid.add(
                defense,
                caps.family,
                *[pivot[defense].get(column, "-") for column in columns],
                "baseline" if overhead is None else round(100 * overhead, 1),
            )

        leak = {
            (cv.cell.attack, cv.cell.defense, cv.cell.channel): cv.leaks
            for cv in verdicts
        }

        def leaks_cache_channels(defense: str) -> bool:
            """Any flush/rollback leak — the channels cache-centric
            defenses actually claim; contention is judged separately."""
            return any(
                v
                for (_, d, c), v in leak.items()
                if d == defense and c in ("flush", "rollback")
            )

        result.metric(
            "unxpec_rollback_gap_cleanupspec",
            next(
                cv.signal
                for cv in verdicts
                if cv.cell == type(cv.cell)("unxpec", "cleanupspec", "rollback")
            ),
        )
        for defense, overhead in sorted(overheads.items()):
            result.metric(f"overhead_{defense}_pct", 100 * overhead)

        result.check(
            "footprint_leaks_only_unprotected",
            leak[("spectre", "unsafe", "flush")]
            and leak[("unxpec", "unsafe", "flush")]
            and not any(
                v
                for (_, d, c), v in leak.items()
                if c == "flush" and d != "unsafe"
            ),
            "the flush+reload footprint survives only without a defense",
        )
        result.check(
            "undo_opens_rollback_channel",
            leak[("unxpec", "cleanupspec", "rollback")],
            "unXpec reads the secret off CleanupSpec's rollback duration",
        )
        result.check(
            "shadow_closes_cache_channels",
            not leaks_cache_channels("safespec"),
            "SafeSpec-style shadow fills leave neither footprint nor "
            "secret-dependent squash timing",
        )
        result.check(
            "cancellable_closes_cache_channels",
            not leaks_cache_channels("cachesquash"),
            "coalesced cancellation quantizes squash timing and installs "
            "nothing",
        )
        result.check(
            "rewind_contention_survives_undo_and_shadow",
            leak[("rewind", "cleanupspec", "contention")]
            and leak[("rewind", "safespec", "contention")],
            "a committed division queues behind transient divider "
            "occupancy whether the cache state is undone or shadowed — "
            "no cache defense touches the functional units",
        )
        result.check(
            "interference_contention_survives_shadow_and_cancel",
            leak[("interference", "safespec", "contention")]
            and leak[("interference", "cachesquash", "contention")],
            "shadow and cancellable fills still occupy shared port "
            "bandwidth while in flight; the second context times it",
        )
        result.check(
            "delay_on_miss_closes_interference",
            not leak[("interference", "delay_on_miss", "contention")],
            "delaying speculative misses at issue means the transient "
            "burst never reaches the shared port at all",
        )
        result.check(
            "capabilities_match_measurement",
            not any(cv.leaks and cv.claimed_closed for cv in verdicts),
            "no defense leaks through a channel its capability descriptor "
            "claims closed",
        )
        if {"safespec", "cachesquash", "delay_on_miss"} <= set(overheads):
            result.check(
                "shadow_and_cancel_cheaper_than_invisible",
                max(overheads["safespec"], overheads["cachesquash"])
                < overheads["delay_on_miss"],
                f"safespec {100 * overheads['safespec']:.1f}% / cachesquash "
                f"{100 * overheads['cachesquash']:.1f}% vs delay-on-miss "
                f"{100 * overheads['delay_on_miss']:.1f}%: closing the squash "
                "channel does not require the invisible schemes' common-case "
                "cost",
            )
        return result
