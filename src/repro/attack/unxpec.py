"""The unXpec attack orchestrator (paper §V).

:class:`UnxpecAttack` wires a protected machine (hierarchy + defense +
core) to an Algorithm-2 gadget and drives the two stages of Figure 4:

* :meth:`prepare` — construct eviction sets (if the §V-B optimisation is
  on), lay out the victim/attacker memory image, and run the setup program
  (warming + priming);
* :meth:`sample` — plant a secret bit, run one round (mistrain → flush →
  fence → timestamp → trigger → timestamp), and return the receiver's
  latency measurement with the defense-side ground truth attached for
  analysis.

The same object is reused across thousands of rounds; the hierarchy,
predictor and defense state persist exactly as they would on real hardware.
The programs are not per-machine state: the gadget builds them once per
process, so every attack with the same parameters (a matrix builds one per
trial pair) runs the same :class:`~repro.isa.program.Program` objects,
decoded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..cache.hierarchy import CacheHierarchy
from ..common.config import SystemConfig
from ..common.errors import AttackError
from ..cpu.core import Core
from ..cpu.noise import NoiseModel
from ..cpu.timing import RunResult, SquashEvent
from ..defense.base import Defense
from ..defense.cleanupspec import CleanupSpec
from .eviction_sets import build_prime_addresses
from .gadgets import GadgetParams, UnxpecGadget
from .layout import DEFAULT_LAYOUT, AttackLayout

DefenseFactory = Callable[[CacheHierarchy], Defense]


@dataclass(frozen=True)
class RoundSample:
    """One covert-channel sample with simulator-side ground truth."""

    secret: int
    #: ts2 - ts1: the only thing the real receiver sees.
    latency: int
    #: Defense stall of the attack squash (ground truth, for analysis).
    stall: int
    rollback_cycles: int
    invalidated_l1: int
    invalidated_l2: int
    restored_l1: int
    inflight_transient: int
    #: Branch resolution time (T1-T2 proxy): resolve minus the first
    #: timestamp (used by the Fig. 2 experiment).
    resolution_time: int
    total_cycles: int


class UnxpecAttack:
    """End-to-end unXpec against a configurable defense."""

    def __init__(
        self,
        params: GadgetParams = GadgetParams(),
        defense_factory: Optional[DefenseFactory] = None,
        use_eviction_sets: bool = False,
        layout: AttackLayout = DEFAULT_LAYOUT,
        config: Optional[SystemConfig] = None,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
    ) -> None:
        self.params = params
        self.layout = layout
        self.use_eviction_sets = use_eviction_sets
        self.hierarchy = CacheHierarchy(config=config, seed=seed)
        factory = defense_factory or (lambda h: CleanupSpec(h))
        self.defense = factory(self.hierarchy)
        self.core = Core(
            self.hierarchy,
            self.defense,
            config=self.hierarchy.config.core,
            noise=noise,
            noise_seed=seed,
        )
        self.gadget = UnxpecGadget(params=params, layout=layout)
        self._round_program = None
        self._prepared = False
        self.prime_addresses: List[int] = []

    # ------------------------------------------------------------------
    # preparation stage
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Eviction sets + memory image + setup program. Idempotent."""
        if self._prepared:
            return
        self.gadget.init_memory(self.hierarchy.dram, secret_bit=0)
        if self.use_eviction_sets:
            self.prime_addresses = build_prime_addresses(
                self.hierarchy, self.gadget.target_sets_needed(), layout=self.layout
            )
            self.gadget.prime_addresses = self.prime_addresses
        setup = self.gadget.build_setup()
        self.core.run(setup)
        self._round_program = self.gadget.build_round()
        self._prepared = True

    # ------------------------------------------------------------------
    # measurement stage
    # ------------------------------------------------------------------

    def sample(self, secret_bit: int) -> RoundSample:
        """Plant ``secret_bit`` and measure one round."""
        if not self._prepared:
            self.prepare()
        self.gadget.set_secret(self.hierarchy.dram, secret_bit)
        result = self.core.run(self._round_program)
        return self._extract(secret_bit, result)

    def sample_many(self, secret_bit: int, rounds: int) -> List[RoundSample]:
        return [self.sample(secret_bit) for _ in range(rounds)]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _attack_squash(self, result: RunResult) -> SquashEvent:
        pc = self.gadget.bounds_branch_pc
        if pc is None:
            raise AttackError("round program was never built")
        events = [e for e in result.squashes if e.branch_pc == pc]
        if not events:
            raise AttackError(
                "the bounds-check branch never mis-predicted — mistraining failed"
            )
        return events[-1]

    def _extract(self, secret_bit: int, result: RunResult) -> RoundSample:
        ts1, ts2 = self.gadget.ts_regs
        squash = self._attack_squash(result)
        outcome = squash.outcome
        return RoundSample(
            secret=secret_bit & 1,
            latency=result.timer_delta(ts1, ts2),
            stall=outcome.stall_cycles,
            rollback_cycles=outcome.stage("t5_rollback"),
            invalidated_l1=outcome.invalidated_l1,
            invalidated_l2=outcome.invalidated_l2,
            restored_l1=outcome.restored_l1,
            inflight_transient=squash.inflight_transient,
            resolution_time=squash.resolve_cycle - result.timer(ts1),
            total_cycles=result.cycles,
        )
