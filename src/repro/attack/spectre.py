"""Classic Spectre v1 (paper Algorithm 1) with a Flush+Reload probe.

This attack is the *motivation* for CleanupSpec: the transient load's cache
footprint survives the squash on an unprotected machine, so probing the
array ``P`` recovers ``A[i]``. Against CleanupSpec the rollback erases the
footprint and the probe finds nothing — while unXpec (same machine, same
gadget family) still leaks through the rollback *duration*. The extension
experiment pairs the two to make that contrast explicit.

Structure mirrors :class:`~repro.attack.gadgets.UnxpecGadget`: a training
loop over one shared sender, a final out-of-bounds invocation, then a probe
phase timing each ``P[64*j]``. The round program is built once per process
and shared by every attack with the same alphabet, training count, layout
and registers; a machine writes the victim image on its first round and
then only the secret word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..common.config import SystemConfig
from ..common.errors import AttackError
from ..cpu.core import Core
from ..defense.base import Defense
from ..defense.unsafe import UnsafeBaseline
from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from ..memory.dram import Dram
from .layout import DEFAULT_LAYOUT, DEFAULT_REGS, AttackLayout, Regs, chain_pointers
from .unxpec import DefenseFactory

#: Sentinel A-value used by wrong-path overrun iterations: it maps outside
#: the probed alphabet so speculative overruns cannot pollute the probe.
_SENTINEL_INDEX = 1


@dataclass(frozen=True)
class ProbeReading:
    value: int
    latency: int
    cached: bool


@dataclass(frozen=True)
class SpectreResult:
    """Outcome of one Spectre round + probe."""

    secret: int
    readings: tuple
    guess: Optional[int]

    @property
    def success(self) -> bool:
        return self.guess == self.secret

    @property
    def hot_values(self) -> List[int]:
        return [r.value for r in self.readings if r.cached]


class SpectreV1Attack:
    """Algorithm 1 against a configurable defense (default: unsafe)."""

    def __init__(
        self,
        defense_factory: Optional[DefenseFactory] = None,
        alphabet: int = 16,
        train_iters: int = 8,
        layout: AttackLayout = DEFAULT_LAYOUT,
        regs: Regs = DEFAULT_REGS,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
    ) -> None:
        if not 2 <= alphabet <= 63:
            raise AttackError("alphabet must be in 2..63 (one L1 set per entry)")
        self.alphabet = alphabet
        self.train_iters = train_iters
        self.layout = layout
        self.regs = regs
        self.hierarchy = CacheHierarchy(config=config, seed=seed)
        factory = defense_factory or (lambda h: UnsafeBaseline(h))
        self.defense: Defense = factory(self.hierarchy)
        self.core = Core(
            self.hierarchy, self.defense, config=self.hierarchy.config.core
        )
        self._round: Optional[Program] = None
        #: Whether this machine's DRAM holds the victim image yet.
        self._image_written = False

    # ------------------------------------------------------------------

    def memory_image(self, secret_value: int) -> dict:
        """The victim data structures as a plain word→value map.

        Same contents :meth:`_init_memory` pokes into the simulator's
        DRAM; used by the static analysis to replay witnesses concretely.
        """
        dram = Dram()
        self._write_memory(dram, secret_value)
        return dram.image()

    def _init_memory(self, secret_value: int) -> None:
        """Plant ``secret_value``: the whole image on this machine's first
        round, then only the secret word — the round stores nothing, so
        every other word still holds what the first round wrote."""
        dram = self.hierarchy.dram
        if self._image_written:
            dram.poke(self.layout.secret_addr, secret_value % self.alphabet)
        else:
            self._write_memory(dram, secret_value)
            self._image_written = True

    def _write_memory(self, dram, secret_value: int) -> None:
        dram.poke_image(self._image_words(self.alphabet, self.train_iters, self.layout))
        dram.poke(self.layout.secret_addr, secret_value % self.alphabet)

    @staticmethod
    @lru_cache(maxsize=None)
    def _image_words(
        alphabet: int, train_iters: int, lay: AttackLayout
    ) -> Tuple[Tuple[int, int], ...]:
        """The victim image with secret 0, as ``(word address, value)`` pairs."""
        dram = Dram()
        dram.poke(lay.a_base, 0)  # training value -> P[0]
        # Wrong-path overrun sentinel: A[1] maps past the probed alphabet.
        dram.poke(lay.a_base + 8 * _SENTINEL_INDEX, alphabet)
        dram.poke(lay.secret_addr, 0)
        for i in range(train_iters):
            dram.poke(lay.table_entry(i), 0)
        dram.poke(lay.table_entry(train_iters), lay.out_of_bounds_index)
        for i in range(train_iters + 1, train_iters + 64):
            dram.poke(lay.table_entry(i), _SENTINEL_INDEX)
        for i, word in enumerate(chain_pointers(lay, 1)):
            dram.poke(lay.chain_entry(i), word)
        return tuple(dram.image().items())

    def build_round(self) -> Program:
        """The round program (public so the static analyzer can lint it).

        Shared: attacks with equal alphabet, training count, layout and
        registers get the same program object.
        """
        return self._round_program(self.alphabet, self.train_iters, self.layout, self.regs)

    @staticmethod
    @lru_cache(maxsize=None)
    def _round_program(alphabet: int, train_iters: int, lay: AttackLayout, r: Regs) -> Program:
        b = ProgramBuilder(f"spectre-v1[alphabet={alphabet}]")
        b.li(r.a_base, lay.a_base)
        b.li(r.p_base, lay.p_base)
        b.li(r.chain, lay.chain_base)
        b.li(r.table, lay.table_base)
        b.li(r.iters, train_iters + 1)
        b.li(r.i, 0)
        b.label("invoke")
        b.shli(r.scratch_addr, r.i, 3)
        b.add(r.scratch_addr, r.table, r.scratch_addr)
        b.load(r.index, r.scratch_addr, 0)
        # FLUSH(): evict the whole probe array and the bound (Alg. 1 l. 19).
        for j in range(alphabet):
            b.flush(r.p_base, 64 * j)
        b.li(r.tmp, lay.chain_entry(0))
        b.flush(r.tmp, 0)
        b.fence()
        # VICTIM(index): bounds check + dependent probe-array load.
        b.load(r.bound, r.chain, 0)
        b.branch("ge", r.index, r.bound, "after_body")
        b.shli(r.scratch_addr, r.index, 3)
        b.add(r.scratch_addr, r.a_base, r.scratch_addr)
        b.load(r.secret, r.scratch_addr, 0)
        b.shli(r.secret_off, r.secret, 6)
        b.add(r.scratch_addr, r.p_base, r.secret_off)
        b.load(r.transient_dst(1), r.scratch_addr, 0)  # y = P[64 * A[index]]
        b.label("after_body")
        b.addi(r.i, r.i, 1)
        b.branch("lt", r.i, r.iters, "invoke")
        b.halt()
        return b.build()

    def secret_ranges(self) -> tuple:
        """Taint-source declaration for the static analyzer."""
        return (self.layout.secret_range,)

    # ------------------------------------------------------------------

    def run(self, secret_value: int) -> SpectreResult:
        """POISON + VICTIM(i), then PROBE by timing each P entry."""
        secret_value, result = self._run_round(secret_value)
        readings = self._probe()
        hot = [r.value for r in readings if r.cached]
        guess = hot[0] if len(hot) == 1 else None
        return SpectreResult(secret=secret_value, readings=tuple(readings), guess=guess)

    def run_measured(self, secret_value: int):
        """One round for the scenario matrix: ``(RunResult, guess)``.

        The :class:`~repro.cpu.timing.RunResult` carries the squash events
        (rollback-timing channel); the guess comes from a *non-mutating*
        residency probe of the P array (flush+reload channel) so probing
        one trial never perturbs the next.
        """
        secret_value, result = self._run_round(secret_value)
        lay = self.layout
        hot = [
            j
            for j in range(self.alphabet)
            if self.hierarchy.in_l1(lay.p_entry(j))
            or self.hierarchy.in_l2(lay.p_entry(j))
        ]
        guess = hot[0] if len(hot) == 1 else None
        return result, guess

    def _run_round(self, secret_value: int):
        secret_value %= self.alphabet
        self._init_memory(secret_value)
        if self._round is None:
            self._round = self.build_round()
        # Warm the secret line (the victim uses it) and the index table.
        lay = self.layout
        self.hierarchy.warm([lay.secret_addr, lay.a_base])
        table_lines = ((self.train_iters + 64) * 8 + 63) // 64
        self.hierarchy.warm(lay.table_base + 64 * i for i in range(table_lines))
        result = self.core.run(self._round)
        return secret_value, result

    def _probe(self) -> List[ProbeReading]:
        """Flush+Reload: time a load of every probe entry (Alg. 1 l. 14-17)."""
        lat = self.hierarchy.latency
        threshold = (lat.l2_total + lat.memory_total) // 2
        readings = []
        for j in range(self.alphabet):
            latency, _ = self.hierarchy.access(self.layout.p_entry(j), cycle=0)
            readings.append(ProbeReading(value=j, latency=latency, cached=latency < threshold))
        return readings
