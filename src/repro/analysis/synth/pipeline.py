"""Generate → explorer-filter → simulator-confirm gadget pipeline.

One candidate flows through three oracles:

1. **Static filter** — the specct multi-path explorer.  A candidate is a
   *speculative-gadget candidate* when some explored window path performs
   a secret-tainted cache mutation (a transient finding).
2. **Dynamic confirmation** — the cycle-accurate simulator under the
   CleanupSpec defense: run the program twice with only the secret word
   different and compare end-to-end cycles.  A nonzero delta is exactly
   the paper's rollback-duration channel.
3. **Witness replay** — the dynamic taint interpreter re-executes the
   explorer's witness concretely, tying the static finding to a concrete
   transient event.

The static and dynamic verdicts need not agree, and the disagreements
are the interesting part: a tainted *flush/store* body is transiently
flagged but performs nothing speculatively on the modeled machine (false
positive), while a fenced body is statically silent yet the simulator
still shows a small residual delta through MSHR pressure (false
negative — fences do not fully close the undo channel).  The pipeline
tallies both.

Confirmed leakers are greedily **minimized**: instructions are deleted
one at a time while both oracles keep confirming, yielding exemplar
gadgets.  Everything here is a pure function of its arguments — the
``synth`` experiment shards it by batch and merges byte-identically at
any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ...attack.layout import DEFAULT_LAYOUT, AttackLayout
from ...cache.hierarchy import CacheHierarchy
from ...cpu.core import Core
from ...defense.cleanupspec import CleanupSpec
from ...isa.instructions import Halt
from ...isa.program import Program
from ...obs import get_default_obs
from ..specct.explorer import ExplorerConfig, SpecExplorer, replay_witness


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of one candidate evaluation."""

    layout: AttackLayout = DEFAULT_LAYOUT
    explorer: ExplorerConfig = ExplorerConfig(max_paths=256, max_steps=20_000)
    #: Hierarchy seed for the confirmation runs (fixed: determinism).
    sim_seed: int = 0
    #: Upper bound on simulated instructions per confirmation run.
    max_instructions: int = 20_000
    #: Greedy-minimize confirmed leakers.
    minimize: bool = True

    def secret_ranges(self) -> Tuple[Tuple[int, int], ...]:
        return (self.layout.secret_range,)


@dataclass
class CandidateOutcome:
    """Everything the pipeline concluded about one candidate."""

    name: str
    holes: str
    generation: int
    instructions: int
    #: Static: any transient finding on an explored window path.
    static_transient: bool = False
    #: Static: any finding at all (incl. architectural over-approximation).
    static_any: bool = False
    static_findings: int = 0
    pruned_infeasible: int = 0
    #: Dynamic: cycles(secret=1) - cycles(secret=0) under CleanupSpec.
    delta_cycles: int = 0
    dynamic_leak: bool = False
    #: static_transient AND dynamic_leak: a discovered gadget.
    confirmed: bool = False
    #: The transient witness reproduced by the dynamic interpreter.
    witness_replayed: bool = False
    minimized_instructions: Optional[int] = None
    minimized_listing: Optional[str] = None
    listing: str = ""

    @property
    def false_positive(self) -> bool:
        """Statically flagged transient leak, no simulator delta."""
        return self.static_transient and not self.dynamic_leak

    @property
    def false_negative(self) -> bool:
        """Simulator delta with no static transient finding."""
        return self.dynamic_leak and not self.static_transient

    @property
    def agree(self) -> bool:
        return self.static_transient == self.dynamic_leak

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holes": self.holes,
            "generation": self.generation,
            "instructions": self.instructions,
            "static_transient": self.static_transient,
            "static_any": self.static_any,
            "static_findings": self.static_findings,
            "pruned_infeasible": self.pruned_infeasible,
            "delta_cycles": self.delta_cycles,
            "dynamic_leak": self.dynamic_leak,
            "confirmed": self.confirmed,
            "witness_replayed": self.witness_replayed,
            "minimized_instructions": self.minimized_instructions,
            "minimized_listing": self.minimized_listing,
            "listing": self.listing,
        }


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def simulate_cycles(
    program: Program, secret_bit: int, config: PipelineConfig
) -> int:
    """End-to-end cycles of one run under CleanupSpec with the given secret."""
    hierarchy = CacheHierarchy(seed=config.sim_seed)
    defense = CleanupSpec(hierarchy)
    core = Core(hierarchy, defense, config=hierarchy.config.core)
    hierarchy.dram.poke(config.layout.secret_addr, secret_bit & 1)
    result = core.run(program, max_instructions=config.max_instructions)
    return result.cycles


def simulate_delta(program: Program, config: PipelineConfig) -> int:
    """cycles(secret=1) - cycles(secret=0): the rollback-duration channel."""
    return simulate_cycles(program, 1, config) - simulate_cycles(program, 0, config)


def _static_verdict(program: Program, config: PipelineConfig):
    report = SpecExplorer(
        program, config.secret_ranges(), config.explorer
    ).explore()
    transient = [
        f for f in report.findings if f.transient and f.witness is not None
    ]
    return report, bool(transient)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def remove_instruction(program: Program, index: int) -> Program:
    """The program with instruction ``index`` deleted (labels re-aimed)."""
    instructions = [
        inst for pc, inst in enumerate(program) if pc != index
    ]
    labels = {
        name: idx - 1 if idx > index else idx
        for name, idx in program.labels.items()
    }
    return Program(instructions, labels, name=program.name)


def minimize_program(
    program: Program, keeps_leaking: Callable[[Program], bool]
) -> Program:
    """Greedy instruction deletion while ``keeps_leaking`` stays true.

    Deterministic: repeatedly sweeps pcs in descending order, restarting
    after any accepted deletion, until a full sweep removes nothing.
    """
    current = program
    changed = True
    while changed:
        changed = False
        for index in range(len(current) - 1, -1, -1):
            if isinstance(current[index], Halt):
                continue  # programs must end with Halt
            try:
                trial = remove_instruction(current, index)
            except Exception:
                continue  # deletion broke structural validity
            if keeps_leaking(trial):
                current = trial
                changed = True
                break
    return current


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_candidate(candidate, config: PipelineConfig) -> CandidateOutcome:
    """Run one candidate through all three oracles (plus minimization)."""
    program = candidate.program
    outcome = CandidateOutcome(
        name=candidate.name,
        holes=candidate.holes.label(),
        generation=candidate.generation,
        instructions=len(program),
        listing=program.listing(),
    )
    report, static_transient = _static_verdict(program, config)
    outcome.static_transient = static_transient
    outcome.static_any = not report.clean
    outcome.static_findings = len(report.findings)
    outcome.pruned_infeasible = report.pruned_infeasible

    outcome.delta_cycles = simulate_delta(program, config)
    outcome.dynamic_leak = outcome.delta_cycles != 0
    outcome.confirmed = outcome.static_transient and outcome.dynamic_leak

    if outcome.confirmed:
        secret_addr = config.layout.secret_addr
        for f in report.findings:
            if f.transient and f.witness is not None:
                if replay_witness(
                    program,
                    f.witness,
                    config.secret_ranges(),
                    memory={secret_addr: 1},
                    window=config.explorer.window,
                ):
                    outcome.witness_replayed = True
                    break
        if config.minimize:

            def still_confirmed(trial: Program) -> bool:
                _, transient = _static_verdict(trial, config)
                return transient and simulate_delta(trial, config) != 0

            minimized = minimize_program(program, still_confirmed)
            outcome.minimized_instructions = len(minimized)
            outcome.minimized_listing = minimized.listing()
    _count(outcome)
    return outcome


def _count(outcome: CandidateOutcome) -> None:
    """Bump obs counters when a default registry is installed."""
    obs = get_default_obs()
    if obs is None:
        return
    reg = obs.registry
    reg.counter("synth.candidates", "candidate gadgets evaluated").inc()
    if outcome.static_transient:
        reg.counter("synth.static_leaky", "statically flagged candidates").inc()
    if outcome.dynamic_leak:
        reg.counter("synth.dynamic_leaky", "simulator-confirmed deltas").inc()
    if outcome.confirmed:
        reg.counter("synth.confirmed", "static+dynamic confirmed gadgets").inc()
    if outcome.false_positive:
        reg.counter("synth.false_positives", "static-only findings").inc()
    if outcome.false_negative:
        reg.counter("synth.false_negatives", "dynamic-only deltas").inc()
