"""The automated gadget-synthesis experiment (extension).

One shard = one generation batch of the seeded candidate generator
(:mod:`repro.analysis.synth`).  Each shard runs the full pipeline on its
batch — multi-path explorer filter, simulator confirmation under
CleanupSpec, witness replay, single-hole mutation of confirmed leakers,
greedy minimization — and returns plain outcome dicts.  The merge
deduplicates confirmed gadgets across batches by program text and tallies
static/dynamic (dis)agreement.

The headline claim this supports: the rollback channel is not an
artifact of the two hand-written attack programs.  A blind, seeded
search over a small gadget vocabulary rediscovers it repeatedly — the
experiment checks that at least three *distinct* confirmed gadgets
emerge beyond the hand-written pair, that every confirmed gadget's
static witness replays concretely, and that the disagreement cases land
exactly where the machine model says they must (fenced bodies leak a
residual delta the static window misses; transient stores/flushes are
flagged but perform nothing speculatively).

Run as ``python -m repro.experiments synth [--jobs N]``; output is
bit-identical for any jobs count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.synth import (
    GeneratorConfig,
    PipelineConfig,
    evaluate_candidate,
    generate_batch,
    mutate,
)
from .base import ExperimentResult, Shard, ShardableExperiment
from .registry import register


@register
class SynthGadgets(ShardableExperiment):
    id = "synth"
    title = "Automated speculative-gadget synthesis (extension)"
    paper_claim = (
        "The undo-rollback channel is systematic: a seeded generate/"
        "filter/confirm search rediscovers it in multiple distinct "
        "gadgets beyond the paper's hand-written one"
    )

    def _batches(self, quick: bool) -> int:
        return 3 if quick else 6

    def _generator(self, quick: bool) -> GeneratorConfig:
        return GeneratorConfig(
            candidates=6 if quick else 10,
            mutants_per_leaker=1 if quick else 2,
        )

    def shard_plan(self, quick: bool = False, seed: int = 0) -> List[Shard]:
        batches = self._batches(quick)
        return [
            Shard(
                index=i,
                count=batches,
                tag=f"batch:{i}",
                params={"batch": i},
            )
            for i in range(batches)
        ]

    def run_shard(self, shard: Shard, quick: bool = False, seed: int = 0) -> object:
        gen = self._generator(quick)
        pipeline = PipelineConfig()
        outcomes = []
        candidates = generate_batch(seed, shard.params["batch"], gen)
        for candidate in candidates:
            outcome = evaluate_candidate(candidate, pipeline)
            outcomes.append(outcome)
            if outcome.confirmed:
                seen = {candidate.holes}
                for m in range(gen.mutants_per_leaker):
                    mutant = mutate(candidate, seed, m, gen.layout)
                    if mutant.holes in seen:
                        continue
                    seen.add(mutant.holes)
                    outcomes.append(evaluate_candidate(mutant, pipeline))
        return {
            "batch": shard.params["batch"],
            "outcomes": [o.to_dict() for o in outcomes],
        }

    def merge_shards(
        self, partials: Sequence[object], quick: bool = False, seed: int = 0
    ) -> ExperimentResult:
        result = self.new_result()
        outcomes: List[dict] = []
        for partial in partials:
            outcomes.extend(partial["outcomes"])

        confirmed = [o for o in outcomes if o["confirmed"]]
        false_pos = [
            o for o in outcomes if o["static_transient"] and not o["dynamic_leak"]
        ]
        false_neg = [
            o for o in outcomes if o["dynamic_leak"] and not o["static_transient"]
        ]
        agree = sum(
            1 for o in outcomes if o["static_transient"] == o["dynamic_leak"]
        )

        # Distinct = unique program text among confirmed leakers (two hole
        # assignments can build the same instruction sequence; mutants can
        # rebuild a parent).  First batch/occurrence wins, so the table is
        # independent of worker count.
        distinct: Dict[str, dict] = {}
        for o in confirmed:
            distinct.setdefault(o["listing"], o)

        gadgets = result.table(
            "confirmed gadgets",
            ["holes", "gen", "insns", "minimized", "delta cycles", "witness"],
        )
        for o in distinct.values():
            gadgets.add(
                o["holes"],
                o["generation"],
                o["instructions"],
                o["minimized_instructions"],
                o["delta_cycles"],
                "replayed" if o["witness_replayed"] else "NO",
            )

        disagreements = result.table(
            "static/dynamic disagreements",
            ["holes", "verdict", "delta cycles", "static findings"],
        )
        for o in false_pos:
            disagreements.add(
                o["holes"], "false positive", o["delta_cycles"], o["static_findings"]
            )
        for o in false_neg:
            disagreements.add(
                o["holes"], "false negative", o["delta_cycles"], o["static_findings"]
            )

        result.metric("candidates", len(outcomes))
        result.metric(
            "static_leaky", sum(1 for o in outcomes if o["static_transient"])
        )
        result.metric(
            "dynamic_leaky", sum(1 for o in outcomes if o["dynamic_leak"])
        )
        result.metric("confirmed", len(confirmed))
        result.metric("distinct_confirmed", len(distinct))
        result.metric("false_positives", len(false_pos))
        result.metric("false_negatives", len(false_neg))
        result.metric(
            "agreement_rate", agree / len(outcomes) if outcomes else 0.0
        )
        if confirmed:
            result.metric(
                "witness_replay_rate",
                sum(1 for o in confirmed if o["witness_replayed"]) / len(confirmed),
            )
            result.metric(
                "min_gadget_instructions",
                min(o["minimized_instructions"] for o in confirmed),
            )
            result.metric(
                "mean_confirmed_delta",
                sum(o["delta_cycles"] for o in confirmed) / len(confirmed),
            )

        result.check(
            "discovers_new_gadgets",
            len(distinct) >= 3,
            f"{len(distinct)} distinct confirmed gadgets (>= 3 beyond the "
            "hand-written unxpec/spectre pair)",
        )
        result.check(
            "witnesses_replay_concretely",
            bool(confirmed)
            and all(o["witness_replayed"] for o in confirmed),
            "every confirmed gadget's static witness reproduces on the "
            "dynamic taint interpreter",
        )
        result.check(
            "minimization_shrinks",
            all(
                o["minimized_instructions"] is not None
                and o["minimized_instructions"] <= o["instructions"]
                for o in confirmed
            ),
            "greedy minimization never grows a confirmed gadget",
        )
        result.check(
            "decoys_stay_clean",
            not any(o["confirmed"] for o in outcomes if "-public-" in o["holes"]),
            "candidates reading the public decoy word never confirm",
        )
        def fields(o: dict) -> dict:
            # Holes.label(): s<stride>-g<pad>-n<acc>-<op>-<f|x>-<w|c>-<src>-a<pad>
            parts = o["holes"].split("-")
            return {
                "stride": parts[0],
                "op": parts[3],
                "fenced": parts[4] == "f",
                "warm": parts[5] == "w",
            }

        def benign_fp(o: dict) -> bool:
            f = fields(o)
            return (
                f["op"] in ("store", "flush")  # never performed speculatively
                or f["fenced"]  # body blocked before any access
                or not f["warm"]  # cold target: both secrets miss alike
                or f["stride"] == "s5"  # 32B stride: both secrets, one line
            )

        result.check(
            "disagreements_match_machine_model",
            all(fields(o)["fenced"] for o in false_neg)
            and all(benign_fp(o) for o in false_pos),
            "false negatives are fenced bodies (residual MSHR delta below "
            "the static window); every false positive has a machine-model "
            "cause: speculatively-unperformed store/flush, fenced body, "
            "cold target, or sub-line stride",
        )
        return result
