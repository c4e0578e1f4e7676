"""Extension — two-context speculative interference (shared-port channel).

The strongest cache defenses in the matrix make transient loads
*invisible*: SafeSpec fills shadow structures, CacheSquash cancels
requests at squash. The speculative-interference observation is that
invisibility in cache *state* is not invisibility in cache *bandwidth* —
an in-flight shadow fill or cancellable request still occupies the shared
L2/memory port while outstanding, and a second hardware context timing
its own misses against that port sees it.

One shard per registered defense. Each runs the
:class:`~repro.attack.interference.InterferenceHarness` two-context
model: the victim executes a Spectre-style sender under the defense with
an :class:`~repro.cpu.fu.OccupancyTimeline` recording every beyond-L1
access, then the attacker context — its own hierarchy, no shared cache
state at all — replays a timed pointer chase against the recording. The
probe-latency delta between secrets is the channel.

The merged table shows:

* **SafeSpec** and **CacheSquash** leak: their invisible fills are still
  port traffic while in flight;
* **delay-on-miss** closes the channel: the speculative misses never
  *issue*, so there is nothing on the port to time;
* the victim's own squash stall stays secret-independent wherever the
  defense claims the rollback channel closed — the leak rides entirely
  on the second context's observation.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Sequence

from ..attack.interference import InterferenceHarness
from ..defense.base import defense_keys
from .base import ExperimentResult, Shard, ShardableExperiment
from .registry import register


@register
class ExtInterference(ShardableExperiment):
    id = "ext_interference"
    title = "Two-context interference vs invisible defenses (extension)"
    paper_claim = (
        "In-flight shadow/cancellable fills occupy shared port bandwidth; "
        "a second context's probe latency leaks the secret under SafeSpec "
        "and CacheSquash, while delay-on-miss never issues the traffic"
    )

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
        harness = InterferenceHarness(defense_key=defense_key, seed=seed)
        harness.prepare()
        rounds = self._rounds(quick)
        rows = []
        for bit in (0, 1):
            for sample in harness.sample_many(bit, rounds):
                rows.append(
                    [
                        sample.secret,
                        sample.probe_latency,
                        sample.victim_stall,
                        sample.port_busy_cycles,
                    ]
                )
        return {"defense": defense_key, "rows": rows}

    def merge_shards(
        self, partials: Sequence[object], quick: bool = False, seed: int = 0
    ) -> ExperimentResult:
        result = self.new_result()
        tbl = result.table(
            "port_channel",
            [
                "defense",
                "probe s=0",
                "probe s=1",
                "delta",
                "busy s=0",
                "busy s=1",
                "stall s=0",
                "stall s=1",
            ],
        )
        deltas: Dict[str, float] = {}
        stall_dependent: Dict[str, bool] = {}
        for partial in partials:
            key = partial["defense"]
            probe = {0: [], 1: []}
            stall = {0: [], 1: []}
            busy = {0: [], 1: []}
            for secret, latency, stall_cycles, busy_cycles in partial["rows"]:
                probe[secret].append(latency)
                stall[secret].append(stall_cycles)
                busy[secret].append(busy_cycles)
            delta = mean(probe[1]) - mean(probe[0])
            deltas[key] = delta
            stall_dependent[key] = mean(stall[0]) != mean(stall[1])
            tbl.add(
                key,
                round(mean(probe[0]), 1),
                round(mean(probe[1]), 1),
                round(delta, 1),
                round(mean(busy[0]), 1),
                round(mean(busy[1]), 1),
                round(mean(stall[0]), 1),
                round(mean(stall[1]), 1),
            )

        for key in sorted(deltas):
            result.metric(f"probe_delta_{key}", deltas[key])

        result.check(
            "interference_leaks_under_safespec",
            deltas["safespec"] >= 30,
            f"probe delta {deltas['safespec']:.1f} cycles under SafeSpec: "
            "shadow fills are invisible in state, not in bandwidth",
        )
        result.check(
            "interference_leaks_under_cachesquash",
            deltas["cachesquash"] >= 30,
            f"probe delta {deltas['cachesquash']:.1f} cycles under "
            "CacheSquash: cancellable requests still occupy the port "
            "until squash",
        )
        result.check(
            "delay_on_miss_issues_no_traffic",
            deltas["delay_on_miss"] == 0,
            "delaying speculative misses at issue keeps the transient "
            "burst off the shared port entirely — the one family that "
            "closes this channel",
        )
        result.check(
            "rollback_observable_stays_clean",
            not any(
                stall_dependent[key]
                for key in deltas
                if key in ("safespec", "cachesquash", "delay_on_miss")
            ),
            "the victim-side squash stall is secret-independent under the "
            "shadow/cancel/invisible families — the leak is entirely the "
            "second context's observation",
        )
        return result
