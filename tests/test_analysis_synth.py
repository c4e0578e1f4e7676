"""Gadget synthesis: generator determinism, pipeline verdicts, experiment.

The synthesis loop's contract: generation is a pure function of
``(seed, batch)``, the pipeline's three oracles (explorer filter,
simulator confirmation, witness replay) agree on the hand-tuned default
skeleton, minimization only shrinks, and the registered ``synth``
experiment discovers >= 3 distinct confirmed gadgets with byte-identical
output at any worker count.
"""

import pytest

from repro.analysis.synth import (
    Holes,
    PipelineConfig,
    build_candidate,
    evaluate_candidate,
    generate_batch,
    minimize_program,
    mutate,
    remove_instruction,
    simulate_delta,
)
from repro.experiments.registry import all_ids, get
from repro.isa import ProgramBuilder

QUICK_PIPELINE = PipelineConfig(minimize=False)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generation_is_deterministic():
    a = generate_batch(0, 0)
    b = generate_batch(0, 0)
    assert [c.program.listing() for c in a] == [c.program.listing() for c in b]
    assert [c.holes for c in a] == [c.holes for c in b]


def test_batches_are_distinct_substreams():
    a = {c.holes for c in generate_batch(0, 0)}
    b = {c.holes for c in generate_batch(0, 1)}
    assert a != b


def test_batch_has_no_duplicate_holes():
    holes = [c.holes for c in generate_batch(7, 3)]
    assert len(holes) == len(set(holes))


def test_build_candidate_encodes_holes_in_name():
    candidate = build_candidate(Holes())
    assert Holes().label() in candidate.name
    assert candidate.program[-1].__class__.__name__ == "Halt"


def test_mutation_changes_exactly_one_hole():
    parent = build_candidate(Holes())
    mutant = mutate(parent, seed=0, index=0)
    assert mutant.generation == parent.generation + 1
    diffs = [
        f
        for f in (
            "stride", "guard_pad", "n_accesses", "leak_op",
            "fence_body", "warm_target", "source", "alu_pad",
        )
        if getattr(mutant.holes, f) != getattr(parent.holes, f)
    ]
    assert len(diffs) == 1
    assert mutate(parent, seed=0, index=0).holes == mutant.holes  # deterministic


# ---------------------------------------------------------------------------
# pipeline oracles
# ---------------------------------------------------------------------------


def test_default_skeleton_is_a_confirmed_gadget():
    outcome = evaluate_candidate(build_candidate(Holes()), PipelineConfig())
    assert outcome.static_transient
    assert outcome.dynamic_leak and outcome.delta_cycles != 0
    assert outcome.confirmed
    assert outcome.witness_replayed
    assert outcome.minimized_instructions is not None
    assert outcome.minimized_instructions <= outcome.instructions


def test_public_decoy_is_not_confirmed():
    outcome = evaluate_candidate(
        build_candidate(Holes(source="public")), QUICK_PIPELINE
    )
    assert not outcome.confirmed
    assert not outcome.dynamic_leak


def test_fenced_body_is_the_false_negative_case():
    outcome = evaluate_candidate(
        build_candidate(Holes(fence_body=True)), QUICK_PIPELINE
    )
    assert not outcome.static_transient  # fence closes the static window
    # The modeled machine keeps fetching past a wrong-path fence, so a
    # small residual delta remains: fences do not fully close the channel.
    assert outcome.dynamic_leak
    assert outcome.false_negative


def test_store_body_is_the_false_positive_case():
    outcome = evaluate_candidate(
        build_candidate(Holes(leak_op="store")), QUICK_PIPELINE
    )
    assert outcome.static_transient  # tainted store address is flagged
    assert not outcome.dynamic_leak  # stores never perform speculatively
    assert outcome.false_positive


def test_simulate_delta_sign_is_deterministic():
    program = build_candidate(Holes()).program
    assert simulate_delta(program, PipelineConfig()) == simulate_delta(
        program, PipelineConfig()
    )


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_remove_instruction_reaims_labels():
    b = ProgramBuilder("mini")
    b.li("r1", 1)
    b.li("r2", 2)
    b.label("end")
    b.halt()
    program = b.build()
    trimmed = remove_instruction(program, 0)
    assert len(trimmed) == 2
    assert trimmed.labels["end"] == 1


def test_minimize_keeps_predicate_true():
    b = ProgramBuilder("mini")
    for _ in range(5):
        b.opi("add", "r1", "r1", 1)
    b.halt()
    program = b.build()
    minimized = minimize_program(program, lambda p: len(p) >= 3)
    assert len(minimized) == 3


# ---------------------------------------------------------------------------
# the registered experiment
# ---------------------------------------------------------------------------


def test_synth_is_registered():
    assert "synth" in all_ids()


@pytest.fixture(scope="module")
def synth_result():
    return get("synth").run(quick=True, seed=0)


def test_synth_discovers_three_distinct_gadgets(synth_result):
    assert synth_result.metrics["distinct_confirmed"] >= 3
    assert synth_result.metrics["witness_replay_rate"] == 1.0


def test_synth_checks_all_pass(synth_result):
    failed = [c.name for c in synth_result.checks if not c.passed]
    assert not failed, failed


def test_synth_is_jobs_invariant(synth_result):
    """Serial reference vs explicit shard-by-shard execution."""
    experiment = get("synth")
    shards = experiment.shard_plan(quick=True, seed=0)
    partials = [experiment.run_shard(s, quick=True, seed=0) for s in shards]
    merged = experiment.merge_shards(partials, quick=True, seed=0)
    assert merged.to_json() == synth_result.to_json()
