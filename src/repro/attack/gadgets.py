"""Attack gadget builders (paper Algorithms 1 & 2, Figure 4).

:class:`UnxpecGadget` produces two programs:

* a **setup** program, run once, that warms the lines whose residency the
  round code depends on (the secret word, ``P[0]``, the index table) and
  optionally primes the eviction sets;
* a **round** program, run once per leaked bit, structured as the paper's
  Figure 4: ``train_iters`` invocations of the sender with in-bounds
  indices (mistraining the bounds-check branch toward *not taken*), then
  one invocation with the out-of-bounds index whose end-to-end latency —
  bracketed by two serialising timer reads around the sender — is the
  covert-channel sample.

The sender's bounds check loads its bound through an ``condition_accesses``
-deep pointer chase (the paper's ``f(N)``); every chase line is flushed in
the preparation part of each invocation, so resolving the branch takes a
(constant) main-memory round trip — the speculation window the transient
loads execute in. The in-branch body performs ``n_loads`` loads of
``P[secret*64*k]``: every load hits ``P[0]`` when the secret bit is 0 and
misses (installing ``P[64k]``) when it is 1.

All invocations share one code path, so the bounds-check branch trains and
mis-predicts at a single PC, exactly like a real sender function invoked
repeatedly.

The programs are pure functions of the gadget's frozen inputs (params,
layout, register allocation, and for the unXpec setup the primed
addresses), so they are built once per process and shared: two gadgets
with the same inputs get the same :class:`~repro.isa.program.Program`
object — and with it the decoded table :meth:`Program.decoded` caches.
Programs are immutable, so sharing one across machines is safe. The victim
memory image is built the same way, once per process, and
:meth:`UnxpecGadget.init_memory` writes it in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..common.errors import AttackError
from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from ..memory.dram import WORD_SIZE, Dram
from .layout import DEFAULT_LAYOUT, DEFAULT_REGS, AttackLayout, Regs, chain_pointers


@dataclass(frozen=True)
class GadgetParams:
    """Tunable knobs of the unXpec round (paper §V-C parameterisation)."""

    #: In-branch transient loads (1..8; paper Figs. 3/6 sweep this).
    n_loads: int = 1
    #: Dependent memory accesses in the branch condition f(N) (paper Fig. 2).
    condition_accesses: int = 1
    #: Chained ALU ops appended to the condition — the paper's f(N) tuning
    #: that guarantees the window covers the transient loads.
    condition_pad: int = 4
    #: Sender invocations with in-bounds indices before the attack one.
    train_iters: int = 16

    def __post_init__(self) -> None:
        if not 1 <= self.n_loads <= 8:
            raise AttackError("n_loads must be in 1..8")
        if self.condition_accesses < 1:
            raise AttackError("condition_accesses must be >= 1")
        if self.condition_pad < 0:
            raise AttackError("condition_pad must be non-negative")
        if self.train_iters < 1:
            raise AttackError("need at least one training invocation")


class UnxpecGadget:
    """Builds setup/round programs for one parameterisation."""

    def __init__(
        self,
        params: GadgetParams = GadgetParams(),
        layout: AttackLayout = DEFAULT_LAYOUT,
        regs: Regs = DEFAULT_REGS,
        prime_addresses: Sequence[int] = (),
    ) -> None:
        self.params = params
        self.layout = layout
        self.regs = regs
        #: Eviction-set lines loaded during setup (the §V-B optimisation).
        self.prime_addresses: List[int] = list(prime_addresses)
        #: PC of the sender's bounds-check branch, set by :meth:`build_round`
        #: (used to pick the attack squash out of a round's squash events).
        self.bounds_branch_pc: Optional[int] = None

    # ------------------------------------------------------------------
    # victim memory image
    # ------------------------------------------------------------------

    def init_memory(self, dram: Dram, secret_bit: int = 0) -> None:
        """Write the victim/attacker data structures into memory."""
        dram.poke_image(self._image_words(self.params, self.layout))
        self.set_secret(dram, secret_bit)

    @staticmethod
    @lru_cache(maxsize=None)
    def _image_words(params: GadgetParams, lay: AttackLayout) -> Tuple[Tuple[int, int], ...]:
        """The victim image with secret 0, as ``(word address, value)`` pairs."""
        dram = Dram()
        # A[0] = 0: in-bounds training accesses resolve to P[0].
        dram.poke(lay.a_base, 0)
        dram.poke(lay.secret_addr, 0)
        # Index table: train_iters in-bounds entries, then the OOB index,
        # then a tail of in-bounds entries covering wrong-path overruns.
        total = params.train_iters
        for i in range(total):
            dram.poke(lay.table_entry(i), 0)
        dram.poke(lay.table_entry(total), lay.out_of_bounds_index)
        for i in range(total + 1, total + 64):
            dram.poke(lay.table_entry(i), 0)
        # f(N) pointer chase.
        for i, word in enumerate(chain_pointers(lay, params.condition_accesses)):
            dram.poke(lay.chain_entry(i), word)
        return tuple(dram.image().items())

    def set_secret(self, dram: Dram, secret_bit: int) -> None:
        """The victim's secret changes between rounds; only it is rewritten."""
        dram.poke(self.layout.secret_addr, secret_bit & 1)

    def memory_image(self, secret_bit: int = 0) -> dict:
        """The :meth:`init_memory` contents as a plain word→value map.

        Lets the static analysis replay witnesses against the same victim
        data structures the simulator runs with (the OOB table entry is
        what makes the concrete transient leak fire).
        """
        dram = Dram()
        self.init_memory(dram, secret_bit)
        return dram.image()

    # ------------------------------------------------------------------
    # setup program (run once)
    # ------------------------------------------------------------------

    def build_setup(self) -> Program:
        """Warm every line the round code expects resident, prime eviction sets.

        Shared: gadgets with equal inputs get the same program object.
        """
        return self._setup_program(
            self.params, self.layout, self.regs, tuple(self.prime_addresses)
        )

    @staticmethod
    @lru_cache(maxsize=None)
    def _setup_program(
        params: GadgetParams, lay: AttackLayout, r: Regs, prime_addresses: Tuple[int, ...]
    ) -> Program:
        b = ProgramBuilder("unxpec-setup")
        b.li(r.a_base, lay.a_base)
        b.li(r.p_base, lay.p_base)
        b.li(r.table, lay.table_base)
        # Warm A[0], the secret word (the victim uses it, so it is cached),
        # and P[0].
        b.load(r.scratch2, r.a_base, 0)
        b.li(r.tmp, lay.secret_addr)
        b.load(r.scratch2, r.tmp, 0)
        b.load(r.scratch2, r.p_base, 0)
        # Warm the whole index table (one load per line) so wrong-path
        # overruns never install table lines.
        table_words = params.train_iters + 64
        table_lines = (table_words * WORD_SIZE + 63) // 64
        for line in range(table_lines):
            b.load(r.scratch2, r.table, line * 64)
        # Prime eviction sets (paper Fig. 5 step 1). The targets are flushed
        # first so the primed partition is *full* with no invalid way left —
        # otherwise the transient install would fill the hole instead of
        # evicting (and nothing would need restoring). Restoration puts the
        # primed lines back after every squash, so priming once suffices
        # (paper §VI-B).
        if prime_addresses:
            for k in range(1, params.n_loads + 1):
                b.flush(r.p_base, 64 * k)
        for addr in prime_addresses:
            b.li(r.tmp, addr)
            b.load(r.tmp2, r.tmp, 0)
        b.fence()
        b.halt()
        return b.build()

    # ------------------------------------------------------------------
    # round program (run once per bit)
    # ------------------------------------------------------------------

    def build_round(self) -> Program:
        """One attack round (see :meth:`_round_program`); sets
        :attr:`bounds_branch_pc`. Shared like :meth:`build_setup`."""
        program, self.bounds_branch_pc = self._round_program(
            self.params, self.layout, self.regs
        )
        return program

    @staticmethod
    @lru_cache(maxsize=None)
    def _round_program(p: GadgetParams, lay: AttackLayout, r: Regs) -> Tuple[Program, int]:
        """One attack round: train_iters sender calls, then the measured one.

        Every iteration executes the *same* sender code (same branch PC):
        read the iteration's index from the table, flush the f(N) chain and
        the P[64k] targets, fence, timestamp, run the bounds check and
        (transiently or not) the in-branch loads, timestamp. The final
        iteration's index is out of bounds; its ts2-ts1 is the sample.
        Returns the program and its bounds-check branch PC.
        """
        b = ProgramBuilder(
            f"unxpec-round[n={p.n_loads},N={p.condition_accesses},train={p.train_iters}]"
        )
        b.li(r.a_base, lay.a_base)
        b.li(r.p_base, lay.p_base)
        b.li(r.chain, lay.chain_base)
        b.li(r.table, lay.table_base)
        b.li(r.iters, p.train_iters + 1)
        b.li(r.i, 0)

        b.label("invoke")
        # index = table[i]
        b.shli(r.scratch_addr, r.i, 3)
        b.add(r.scratch_addr, r.table, r.scratch_addr)
        b.load(r.index, r.scratch_addr, 0)
        # Preparation: flush the chain lines and the P[64k] targets
        # (Algorithm 2 lines 20-21 / Fig. 4 preparation stage).
        for i in range(p.condition_accesses):
            b.li(r.tmp, lay.chain_entry(i))
            b.flush(r.tmp, 0)
        for k in range(1, p.n_loads + 1):
            b.flush(r.p_base, 64 * k)
        b.fence()
        b.rdtscp(r.ts1)
        # Branch condition: bound = f(N) pointer chase.
        b.load(r.bound, r.chain, 0)
        for _ in range(p.condition_accesses - 1):
            b.load(r.bound, r.bound, 0)
        for _ in range(p.condition_pad):
            b.addi(r.bound, r.bound, 0)
        # if index >= bound: skip the body (taken on the attack iteration).
        branch_pc = b.here
        b.branch("ge", r.index, r.bound, "after_body")
        # -- sender body (transient on the attack iteration) --
        b.shli(r.scratch_addr, r.index, 3)
        b.add(r.scratch_addr, r.a_base, r.scratch_addr)
        b.load(r.secret, r.scratch_addr, 0)  # secret = A[index]
        b.shli(r.secret_off, r.secret, 6)  # secret * 64
        for k in range(1, p.n_loads + 1):
            addr_reg = r.addr_dst(k)
            if k == 1:
                b.add(addr_reg, r.p_base, r.secret_off)
            else:
                b.opi("mul", addr_reg, r.secret_off, k)
                b.add(addr_reg, r.p_base, addr_reg)
            b.load(r.transient_dst(k), addr_reg, 0)  # load P[secret*64*k]
        b.label("after_body")
        b.rdtscp(r.ts2)
        b.addi(r.i, r.i, 1)
        b.branch("lt", r.i, r.iters, "invoke")
        b.halt()
        return b.build(), branch_pc

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    @property
    def ts_regs(self) -> tuple:
        return (self.regs.ts1, self.regs.ts2)

    def secret_ranges(self) -> tuple:
        """Taint-source declaration for the static analyzer: the byte
        range(s) this gadget's programs leak from."""
        return (self.layout.secret_range,)

    def target_sets_needed(self) -> List[int]:
        """Addresses whose L1 sets the eviction-set optimisation must prime."""
        return [self.layout.p_entry(k) for k in range(1, self.params.n_loads + 1)]


# ---------------------------------------------------------------------------
# SpectreRewind gadget (functional-unit contention channel)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewindParams:
    """Knobs of the SpectreRewind round (see ``docs/channels.md``)."""

    #: Transient divisions racing the squash (1..8). Only those whose issue
    #: slot lands before the squash occupy the divider, so the chain just
    #: needs to outlast the speculation window — the observable tail is the
    #: last division to win an issue slot, grinding past the squash point.
    div_chain: int = 6
    #: Dependent memory accesses in the branch condition f(N).
    condition_accesses: int = 1
    #: Chained ALU ops appended to the condition (window tuning).
    condition_pad: int = 4
    #: Sender invocations with in-bounds indices before the attack one.
    train_iters: int = 8

    def __post_init__(self) -> None:
        if not 1 <= self.div_chain <= 8:
            raise AttackError("div_chain must be in 1..8")
        if self.condition_accesses < 1:
            raise AttackError("condition_accesses must be >= 1")
        if self.condition_pad < 0:
            raise AttackError("condition_pad must be non-negative")
        if self.train_iters < 1:
            raise AttackError("need at least one training invocation")


class RewindGadget:
    """Builds setup/round programs for the divider-contention channel.

    Same invocation-loop skeleton as :class:`UnxpecGadget` (one branch PC,
    mistrained in-bounds, one out-of-bounds attack invocation), but the
    transient body transmits through the **non-pipelined divider** instead
    of cache state, and the receiver is a *committed* division after the
    squash:

    * the transient body loads ``x = P[secret*64]`` and then the dependent
      ``y = P[secret*128 + x]``.  With secret 0 both are warm L1 hits, so a
      chain of divisions issues well inside the speculation window and the
      last one to issue keeps the divider busy past the squash.  With
      secret 1 both lines are flushed each invocation: whatever the defense
      does with the miss (install it, shadow-fill it, delay it), the
      *dependent* load cannot complete before the squash, the divisor never
      readies, and no transient division issues;
    * after the squash, ``ts1; q = ts1/c; ts2`` times one committed
      division.  Secret 0 leaves the divider busy (the squash cannot recall
      an in-flight division), so the committed division queues — a
      secret-dependent ``ts2-ts1`` with **zero** cache-state involvement.

    The round leaves no secret-dependent cache footprint even with no
    defense at all: the secret-1 fills are still in flight at the squash
    and never install.
    """

    def __init__(
        self,
        params: RewindParams = RewindParams(),
        layout: AttackLayout = DEFAULT_LAYOUT,
        regs: Regs = DEFAULT_REGS,
    ) -> None:
        self.params = params
        self.layout = layout
        self.regs = regs
        self.bounds_branch_pc: Optional[int] = None

    #: Scratch registers of the rewind body (clear of the Regs allocation:
    #: r13..r20 hold the div chain via ``transient_dst``).
    R_X = "r12"  # x = P[secret*64]
    R_DIVIDEND = "r22"
    R_CDIV = "r23"  # committed divisor
    R_XADDR = "r26"
    R_YADDR = "r27"
    R_DIVISOR = "r29"  # y | 1

    def init_memory(self, dram: Dram, secret_bit: int = 0) -> None:
        """Write the victim/attacker data structures into memory."""
        dram.poke_image(self._image_words(self.params, self.layout))
        self.set_secret(dram, secret_bit)

    @staticmethod
    @lru_cache(maxsize=None)
    def _image_words(params: RewindParams, lay: AttackLayout) -> Tuple[Tuple[int, int], ...]:
        """The victim image with secret 0, as ``(word address, value)`` pairs."""
        dram = Dram()
        dram.poke(lay.a_base, 0)
        dram.poke(lay.secret_addr, 0)
        # P[0] = 0 so the dependent y address is P[secret*128] either way.
        dram.poke(lay.p_base, 0)
        dram.poke(lay.p_entry(1), 0)
        total = params.train_iters
        for i in range(total):
            dram.poke(lay.table_entry(i), 0)
        dram.poke(lay.table_entry(total), lay.out_of_bounds_index)
        # The tail entries past the attack index stay out-of-bounds too:
        # the wrong path overruns the loop-back branch and re-enters the
        # invocation with i+1, so an in-bounds tail index would make every
        # overrun pass transmit a constant 0 — hitting P[0] and issuing a
        # secret-independent division right before the squash. Keeping the
        # tail out-of-bounds makes each overrun pass re-send the secret.
        for i in range(total + 1, total + 64):
            dram.poke(lay.table_entry(i), lay.out_of_bounds_index)
        for i, word in enumerate(chain_pointers(lay, params.condition_accesses)):
            dram.poke(lay.chain_entry(i), word)
        return tuple(dram.image().items())

    def set_secret(self, dram: Dram, secret_bit: int) -> None:
        dram.poke(self.layout.secret_addr, secret_bit & 1)

    def memory_image(self, secret_bit: int = 0) -> dict:
        dram = Dram()
        self.init_memory(dram, secret_bit)
        return dram.image()

    def build_setup(self) -> Program:
        """Warm A[0], the secret word, P[0] and the index table.

        Shared: gadgets with equal inputs get the same program object.
        """
        return self._setup_program(self.params, self.layout, self.regs)

    def build_round(self) -> Program:
        """One round (see :meth:`_round_program`); sets
        :attr:`bounds_branch_pc`. Shared like :meth:`build_setup`."""
        program, self.bounds_branch_pc = self._round_program(
            self.params, self.layout, self.regs
        )
        return program

    @staticmethod
    @lru_cache(maxsize=None)
    def _setup_program(params: RewindParams, lay: AttackLayout, r: Regs) -> Program:
        b = ProgramBuilder("rewind-setup")
        b.li(r.a_base, lay.a_base)
        b.li(r.p_base, lay.p_base)
        b.li(r.table, lay.table_base)
        b.load(r.scratch2, r.a_base, 0)
        b.li(r.tmp, lay.secret_addr)
        b.load(r.scratch2, r.tmp, 0)
        b.load(r.scratch2, r.p_base, 0)
        table_words = params.train_iters + 64
        table_lines = (table_words * WORD_SIZE + 63) // 64
        for line in range(table_lines):
            b.load(r.scratch2, r.table, line * 64)
        b.fence()
        b.halt()
        return b.build()

    @classmethod
    @lru_cache(maxsize=None)
    def _round_program(
        cls, p: RewindParams, lay: AttackLayout, r: Regs
    ) -> Tuple[Program, int]:
        """The round program and its bounds-check branch PC."""
        b = ProgramBuilder(
            f"rewind-round[divs={p.div_chain},N={p.condition_accesses},"
            f"train={p.train_iters}]"
        )
        b.li(r.a_base, lay.a_base)
        b.li(r.p_base, lay.p_base)
        b.li(r.chain, lay.chain_base)
        b.li(r.table, lay.table_base)
        b.li(r.iters, p.train_iters + 1)
        b.li(r.i, 0)
        b.li(cls.R_DIVIDEND, 1 << 20)
        b.li(cls.R_CDIV, 3)

        b.label("invoke")
        # index = table[i]
        b.shli(r.scratch_addr, r.i, 3)
        b.add(r.scratch_addr, r.table, r.scratch_addr)
        b.load(r.index, r.scratch_addr, 0)
        # Preparation: flush the f(N) chain and the secret-1 targets P[64]
        # (x) and P[128] (y) so the dependent transient pair misses.
        for i in range(p.condition_accesses):
            b.li(r.tmp, lay.chain_entry(i))
            b.flush(r.tmp, 0)
        b.flush(r.p_base, lay.p_entry(1) - lay.p_base)
        b.flush(r.p_base, lay.p_entry(2) - lay.p_base)
        b.fence()
        # Branch condition: bound = f(N) pointer chase.
        b.load(r.bound, r.chain, 0)
        for _ in range(p.condition_accesses - 1):
            b.load(r.bound, r.bound, 0)
        for _ in range(p.condition_pad):
            b.addi(r.bound, r.bound, 0)
        branch_pc = b.here
        b.branch("ge", r.index, r.bound, "after_body")
        # -- transient sender body --
        b.shli(r.scratch_addr, r.index, 3)
        b.add(r.scratch_addr, r.a_base, r.scratch_addr)
        b.load(r.secret, r.scratch_addr, 0)  # secret = A[index]
        b.shli(r.secret_off, r.secret, 6)  # secret * 64
        b.add(cls.R_XADDR, r.p_base, r.secret_off)
        b.load(cls.R_X, cls.R_XADDR, 0)  # x = P[secret*64]
        b.shli(cls.R_YADDR, r.secret, 7)  # secret * 128
        b.add(cls.R_YADDR, r.p_base, cls.R_YADDR)
        b.add(cls.R_YADDR, cls.R_YADDR, cls.R_X)
        b.load(cls.R_DIVISOR, cls.R_YADDR, 0)  # y = P[secret*128 + x]
        b.opi("or", cls.R_DIVISOR, cls.R_DIVISOR, 1)  # divisor != 0
        for k in range(1, p.div_chain + 1):
            # Independent divisions (shared sources, distinct dests):
            # serialised by divider occupancy, not dataflow, so they race
            # the squash point one issue slot at a time.
            b.div(r.transient_dst(k), cls.R_DIVIDEND, cls.R_DIVISOR)
        b.label("after_body")
        # -- committed receiver: time one post-squash division. Dividing
        # ts1 (not a constant) keeps the wrong-path overrun from issuing
        # this division transiently: ts1 never readies on the wrong path.
        b.rdtscp(r.ts1)
        b.div(r.scratch2, r.ts1, cls.R_CDIV)
        b.rdtscp(r.ts2)
        # Drain epilogue: a load data-dependent on the measured division.
        # The next invocation's fence only orders *memory* operations, so
        # without this the committed training-body divisions back-log the
        # divider across iterations and bury the attack-round signal.
        b.opi("and", r.tmp, r.scratch2, 0)
        b.add(r.tmp, r.tmp, r.table)
        b.load(r.tmp2, r.tmp, 0)
        b.addi(r.i, r.i, 1)
        b.branch("lt", r.i, r.iters, "invoke")
        b.halt()
        return b.build(), branch_pc

    @property
    def ts_regs(self) -> tuple:
        return (self.regs.ts1, self.regs.ts2)

    def secret_ranges(self) -> tuple:
        """Taint-source declaration for the static analyzer."""
        return (self.layout.secret_range,)
