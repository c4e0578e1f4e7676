"""Two-context speculative interference attack (shared-port contention).

Models the Speculative Interference Attacks observation: even defenses
that make transient loads *invisible* in cache state (SafeSpec shadow
fills, CacheSquash cancellable requests) still let those loads occupy
shared downstream bandwidth while in flight — and a second context timing
its own memory accesses sees them.

Two machines run under a deterministic one-way interleave:

* the **victim** context runs a Spectre-style sender under the defense
  being evaluated, with an :class:`~repro.cpu.fu.OccupancyTimeline`
  attached as ``port_timeline``: every beyond-L1 access it makes —
  committed loads, wrong-path installs, in-flight fills *and* shadow
  fills — records the interval it occupies the shared L2/memory port.
  The transient body reads the secret, delays it through a dependent ALU
  chain (so the burst lands mid-window), then issues ``n_loads``
  independent loads of ``P[secret*64*k]``: L1 hits for secret 0 (no port
  traffic), a burst of in-flight fills for secret 1;
* the **attacker** context (its own hierarchy, no defense) replays a
  timed pointer-chase probe against the recording via
  ``contended_timeline``: each of its misses waits out the victim's
  recorded intervals before being serviced. The probe latency delta
  between secrets is the covert-channel observation.

The interleave is strictly one-way (victim recorded first, attacker
replays), which keeps both runs' timings well-defined in the one-pass
timestamp model.

Mistraining happens *across* runs: the victim's branch predictor persists
between :meth:`InterferenceHarness.sample` calls, so each sample re-trains
with in-bounds indices before the out-of-bounds measured run — the same
one-branch-PC discipline as the in-loop gadgets.

The victim and probe programs are built once per process and shared by
every harness with equal params, layout and registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..common.config import SystemConfig
from ..common.errors import AttackError
from ..cpu.core import Core
from ..cpu.fu import OccupancyTimeline
from ..defense.base import make_defense
from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from .layout import DEFAULT_LAYOUT, DEFAULT_REGS, AttackLayout, Regs, chain_pointers

#: Stride between the attacker's probe-chase lines (distinct sets/pages).
_PROBE_STRIDE = 4096


def _probe_entry(layout: AttackLayout, k: int) -> int:
    """Address of the attacker's k-th probe-chase line."""
    return layout.eviction_pool_base + k * _PROBE_STRIDE


@dataclass(frozen=True)
class InterferenceParams:
    """Knobs of the two-context interference experiment."""

    #: Independent transient loads in the victim burst (1..8).
    n_loads: int = 4
    #: Dependent ALU ops delaying the burst so it lands mid-window and
    #: overlaps the attacker's probe interval.
    delay_chain: int = 60
    #: Dependent memory accesses in the victim's branch condition f(N).
    condition_accesses: int = 1
    #: Chained ALU ops appended to the condition (window tuning).
    condition_pad: int = 4
    #: In-bounds victim runs before each measured run (re-mistraining).
    train_runs: int = 4
    #: Dependent loads in the attacker's timed probe chase.
    probe_loads: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.n_loads <= 8:
            raise AttackError("n_loads must be in 1..8")
        if self.delay_chain < 0:
            raise AttackError("delay_chain must be non-negative")
        if self.condition_accesses < 1:
            raise AttackError("condition_accesses must be >= 1")
        if self.condition_pad < 0:
            raise AttackError("condition_pad must be non-negative")
        if self.train_runs < 1:
            raise AttackError("need at least one training run")
        if not 1 <= self.probe_loads <= 8:
            raise AttackError("probe_loads must be in 1..8")


@dataclass(frozen=True)
class InterferenceSample:
    """One two-context trial with simulator-side ground truth."""

    secret: int
    #: Attacker probe ts2 - ts1: the contention observable — all the
    #: second context ever sees.
    probe_latency: int
    #: Victim-side defense stall of the measured squash (the rollback
    #: observable, for the matrix's rollback channel).
    victim_stall: int
    #: Ground truth: cycles of port occupancy the victim recorded.
    port_busy_cycles: int
    #: Ground truth: number of recorded busy intervals.
    port_intervals: int


class InterferenceHarness:
    """Victim + attacker contexts sharing one port timeline."""

    def __init__(
        self,
        defense_key: str = "safespec",
        params: InterferenceParams = InterferenceParams(),
        layout: AttackLayout = DEFAULT_LAYOUT,
        regs: Regs = DEFAULT_REGS,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
    ) -> None:
        self.params = params
        self.layout = layout
        self.regs = regs
        self.defense_key = defense_key
        self.victim_hierarchy = CacheHierarchy(config=config, seed=seed)
        self.victim_defense = make_defense(defense_key, self.victim_hierarchy)
        self.victim = Core(
            self.victim_hierarchy,
            self.victim_defense,
            config=self.victim_hierarchy.config.core,
            noise_seed=seed,
        )
        # The attacker is a separate, unprotected machine: it only shares
        # the downstream port (the timeline), never cache state.
        self.attacker_hierarchy = CacheHierarchy(config=config, seed=seed + 1)
        self.attacker = Core(
            self.attacker_hierarchy,
            make_defense("unsafe", self.attacker_hierarchy),
            config=self.attacker_hierarchy.config.core,
            noise_seed=seed + 1,
        )
        self.bounds_branch_pc: Optional[int] = None
        self._victim_round: Optional[Program] = None
        self._probe: Optional[Program] = None
        self._prepared = False

    # -- program builders ------------------------------------------------
    #
    # Each program is a pure function of the harness's frozen inputs, built
    # once per process: harnesses with equal inputs share program objects.

    @staticmethod
    @lru_cache(maxsize=None)
    def _build_victim_setup(lay: AttackLayout, r: Regs) -> Program:
        b = ProgramBuilder("interference-victim-setup")
        b.li(r.a_base, lay.a_base)
        b.li(r.p_base, lay.p_base)
        b.li(r.table, lay.table_base)
        b.load(r.scratch2, r.a_base, 0)
        b.li(r.tmp, lay.secret_addr)
        b.load(r.scratch2, r.tmp, 0)
        b.load(r.scratch2, r.p_base, 0)
        b.load(r.scratch2, r.table, 0)
        b.fence()
        b.halt()
        return b.build()

    @staticmethod
    @lru_cache(maxsize=None)
    def _build_victim_round(
        p: InterferenceParams, lay: AttackLayout, r: Regs
    ) -> Tuple[Program, int]:
        """The victim round and its bounds-check branch PC."""
        b = ProgramBuilder(f"interference-victim[loads={p.n_loads},delay={p.delay_chain}]")
        b.li(r.a_base, lay.a_base)
        b.li(r.p_base, lay.p_base)
        b.li(r.chain, lay.chain_base)
        b.li(r.table, lay.table_base)
        b.load(r.index, r.table, 0)
        for i in range(p.condition_accesses):
            b.li(r.tmp, lay.chain_entry(i))
            b.flush(r.tmp, 0)
        for k in range(1, p.n_loads + 1):
            b.flush(r.p_base, lay.p_entry(k) - lay.p_base)
        b.fence()
        b.load(r.bound, r.chain, 0)
        for _ in range(p.condition_accesses - 1):
            b.load(r.bound, r.bound, 0)
        for _ in range(p.condition_pad):
            b.addi(r.bound, r.bound, 0)
        branch_pc = b.here
        b.branch("ge", r.index, r.bound, "skip")
        # -- transient sender body --
        b.shli(r.scratch_addr, r.index, 3)
        b.add(r.scratch_addr, r.a_base, r.scratch_addr)
        b.load(r.secret, r.scratch_addr, 0)  # secret = A[index]
        # Dependent delay chain: positions the burst mid-window, past the
        # start of the attacker's probe interval.
        b.addi(r.tmp, r.secret, 0)
        for _ in range(p.delay_chain - 1):
            b.addi(r.tmp, r.tmp, 0)
        b.shli(r.secret_off, r.tmp, 6)  # secret * 64
        for k in range(1, p.n_loads + 1):
            # Independent loads of P[secret*64*k]: a burst of concurrent
            # fills for secret 1, silent L1 hits for secret 0.
            b.opi("mul", r.scratch_addr, r.secret_off, k)
            b.add(r.scratch_addr, r.p_base, r.scratch_addr)
            b.load(r.transient_dst(k), r.scratch_addr, 0)
        b.label("skip")
        b.halt()
        return b.build(), branch_pc

    @staticmethod
    @lru_cache(maxsize=None)
    def _build_probe(probe_loads: int, lay: AttackLayout, r: Regs) -> Program:
        b = ProgramBuilder(f"interference-probe[loads={probe_loads}]")
        for k in range(probe_loads):
            b.li(r.tmp, _probe_entry(lay, k))
            b.flush(r.tmp, 0)
        b.fence()
        b.li(r.scratch_addr, _probe_entry(lay, 0))
        b.rdtscp(r.ts1)
        for _ in range(probe_loads):
            # Dependent chase: each miss arrives at the shared port only
            # after the previous one was serviced, sweeping the recording.
            b.load(r.scratch_addr, r.scratch_addr, 0)
        b.rdtscp(r.ts2)
        b.halt()
        return b.build()

    # -- stages ----------------------------------------------------------

    def prepare(self) -> None:
        """Memory images + victim warm-up run. Idempotent."""
        if self._prepared:
            return
        p, lay = self.params, self.layout
        vdram = self.victim_hierarchy.dram
        vdram.poke(lay.a_base, 0)
        vdram.poke(lay.secret_addr, 0)
        for k in range(p.n_loads + 1):
            vdram.poke(lay.p_entry(k), 0)
        vdram.poke(lay.table_entry(0), 0)
        for i, word in enumerate(chain_pointers(lay, p.condition_accesses)):
            vdram.poke(lay.chain_entry(i), word)
        adram = self.attacker_hierarchy.dram
        for k in range(p.probe_loads):
            nxt = _probe_entry(lay, k + 1) if k + 1 < p.probe_loads else 0
            adram.poke(_probe_entry(lay, k), nxt)
        self.victim.run(self._build_victim_setup(lay, self.regs))
        self._victim_round, self.bounds_branch_pc = self._build_victim_round(p, lay, self.regs)
        self._probe = self._build_probe(p.probe_loads, lay, self.regs)
        self._prepared = True

    def sample(self, secret_bit: int) -> InterferenceSample:
        """Train, plant ``secret_bit``, run victim + attacker once each."""
        if not self._prepared:
            self.prepare()
        p, lay = self.params, self.layout
        vdram = self.victim_hierarchy.dram
        # Re-mistrain: in-bounds runs, no recording.
        vdram.poke(lay.table_entry(0), 0)
        for _ in range(p.train_runs):
            self.victim.run(self._victim_round)
        # Measured victim run: out-of-bounds index, port recorded.
        vdram.poke(lay.secret_addr, secret_bit & 1)
        vdram.poke(lay.table_entry(0), lay.out_of_bounds_index)
        timeline = OccupancyTimeline()
        self.victim.port_timeline = timeline
        try:
            vresult = self.victim.run(self._victim_round)
        finally:
            self.victim.port_timeline = None
        stall = self._victim_stall(vresult)
        # Attacker probe replays against the recording.
        self.attacker.contended_timeline = timeline
        try:
            aresult = self.attacker.run(self._probe)
        finally:
            self.attacker.contended_timeline = None
        return InterferenceSample(
            secret=secret_bit & 1,
            probe_latency=aresult.timer_delta(self.regs.ts1, self.regs.ts2),
            victim_stall=stall,
            port_busy_cycles=timeline.busy_cycles,
            port_intervals=len(timeline),
        )

    def sample_many(self, secret_bit: int, rounds: int) -> List[InterferenceSample]:
        return [self.sample(secret_bit) for _ in range(rounds)]

    def _victim_stall(self, result) -> int:
        pc = self.bounds_branch_pc
        events = [e for e in result.squashes if e.branch_pc == pc]
        if not events:
            raise AttackError(
                "the victim bounds-check branch never mis-predicted — "
                "cross-run mistraining failed"
            )
        return events[-1].outcome.stall_cycles

