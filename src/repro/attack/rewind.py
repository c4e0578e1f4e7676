"""SpectreRewind-style divider-contention attack orchestrator.

:class:`RewindAttack` drives :class:`~repro.attack.gadgets.RewindGadget`
against a configurable defense, mirroring :class:`UnxpecAttack`'s two
stages (prepare / sample). The receiver here is *not* cache state and not
the rollback duration: it is the latency of one committed division issued
right after the squash (``ts1; div ts1/c; ts2``). When the secret bit is 0
the transient body's divisions issue inside the speculation window and the
non-pipelined divider is still grinding when the committed division
arrives; when the bit is 1 the dependent transient loads cannot complete
before the squash, no transient division ever issues, and the committed
division starts immediately.

Because the channel is execution-resource occupancy, rolling the cache
back perfectly (CleanupSpec), shadowing speculative fills (SafeSpec) or
cancelling in-flight requests (CacheSquash) does not close it — see
``docs/channels.md`` and the ``ext_rewind`` experiment.

As with :class:`~repro.attack.unxpec.UnxpecAttack`, the gadget's programs
are built once per process and shared by every attack with equal params.
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
from .gadgets import RewindGadget, RewindParams
from .layout import DEFAULT_LAYOUT, AttackLayout

DefenseFactory = Callable[[CacheHierarchy], Defense]


@dataclass(frozen=True)
class RewindSample:
    """One contention-channel sample with simulator-side ground truth."""

    secret: int
    #: ts2 - ts1 around the committed division: the contention observable —
    #: the only thing the receiver sees.
    latency: int
    #: Defense stall of the attack squash (the *rollback* observable; the
    #: rewind gadget is built so this stays secret-independent).
    stall: int
    #: Divisions that found the divider busy this round (ground truth).
    div_contended: int
    #: Divisions issued this round, committed + transient (ground truth).
    div_issues: int
    inflight_transient: int
    total_cycles: int


class RewindAttack:
    """End-to-end divider-contention leak against a configurable defense."""

    def __init__(
        self,
        params: RewindParams = RewindParams(),
        defense_factory: Optional[DefenseFactory] = None,
        layout: AttackLayout = DEFAULT_LAYOUT,
        config: Optional[SystemConfig] = None,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
    ) -> None:
        self.params = params
        self.layout = layout
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
        self.gadget = RewindGadget(params=params, layout=layout)
        self._round_program = None
        self._prepared = False

    def prepare(self) -> None:
        """Memory image + setup program. Idempotent."""
        if self._prepared:
            return
        self.gadget.init_memory(self.hierarchy.dram, secret_bit=0)
        setup = self.gadget.build_setup()
        self.core.run(setup)
        self._round_program = self.gadget.build_round()
        self._prepared = True

    def sample(self, secret_bit: int) -> RewindSample:
        """Plant ``secret_bit`` and measure one round."""
        if not self._prepared:
            self.prepare()
        self.gadget.set_secret(self.hierarchy.dram, secret_bit)
        result = self.core.run(self._round_program)
        return self._extract(secret_bit, result)

    def sample_many(self, secret_bit: int, rounds: int) -> List[RewindSample]:
        return [self.sample(secret_bit) for _ in range(rounds)]

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

    def _extract(self, secret_bit: int, result: RunResult) -> RewindSample:
        ts1, ts2 = self.gadget.ts_regs
        squash = self._attack_squash(result)
        fu = self.core.fu_pool
        return RewindSample(
            secret=secret_bit & 1,
            latency=result.timer_delta(ts1, ts2),
            stall=squash.outcome.stall_cycles,
            div_contended=fu.div_contended,
            div_issues=fu.div_issues,
            inflight_transient=squash.inflight_transient,
            total_cycles=result.cycles,
        )
