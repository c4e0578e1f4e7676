"""Measurement-noise model.

The paper's latency samples (Figs. 7, 8, 10, 11) show a Gaussian-ish core
around each secret's mean plus occasional large positive outliers (the
scattered 300–400-cycle points in Figs. 10/11 — OS / co-runner
interference). We model both:

* **DRAM jitter** — per memory-level access, a rounded Gaussian added to
  the access latency (row-buffer state, refresh, controller queueing);
* **system events** — with small per-instruction probability, a large
  uniformly distributed stall (interrupt, TLB shootdown, co-runner burst).

The default model is *disabled* (a deterministic simulator); attack
campaigns construct a calibrated instance. Everything draws from a seeded
generator, so noisy experiments are still exactly reproducible.

Draw order. A core's noise comes from one PCG64 generator (``core-noise``),
in program order: one uniform per committed instruction (none when
``event_prob`` is 0), followed, when it is below ``event_prob``, by one
``integers`` draw for the stall; and one normal per memory-level load,
committed or wrong-path, after the uniform of the instruction that issued
it (none when ``mem_jitter_std`` is 0).

Read-ahead. :class:`NoiseStream` reads the uniforms ahead in blocks of at
most ``_BLOCK`` (``random(n)``) and tells its reader how many instructions
draw no event, so a quiet instruction costs the reader one countdown
decrement.
Before any other draw it steps the generator back over the block's unread
rest with ``bit_generator.advance(2**128 - unread)``. Every draw therefore
reads exactly the 64-bit word it would read with one scalar ``random()``
per instruction. This relies on two PCG64 details: ``random`` and
``normal`` use whole 64-bit words, while ``integers`` over a 32-bit range
uses half words and buffers the other half (``has_uint32``/``uinteger``),
which ``advance`` drops. The stream remembers that half and puts it back
before the next ``integers`` draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

#: PCG64's period: advancing by ``_PERIOD - n`` steps the generator back n words.
_PERIOD = 1 << 128

#: Most uniforms one block reads ahead.
_BLOCK = 64


@dataclass(frozen=True)
class NoiseModel:
    """Parameters of the stochastic perturbations."""

    #: Std-dev (cycles) of per-DRAM-access latency jitter; 0 disables.
    mem_jitter_std: float = 0.0
    #: Largest negative jitter allowed (DRAM can be early, but not by much).
    mem_jitter_floor: int = -10
    #: Per-instruction probability of a large system-event stall.
    event_prob: float = 0.0
    event_min_cycles: int = 80
    event_max_cycles: int = 250

    def __post_init__(self) -> None:
        if self.mem_jitter_std < 0:
            raise ValueError("mem_jitter_std must be non-negative")
        if not 0 <= self.event_prob <= 1:
            raise ValueError("event_prob must be a probability")
        if self.event_min_cycles > self.event_max_cycles:
            raise ValueError("event_min_cycles must be <= event_max_cycles")

    @property
    def enabled(self) -> bool:
        return self.mem_jitter_std > 0 or self.event_prob > 0

    def mem_jitter(self, stream: Optional["NoiseStream"]) -> int:
        """Signed cycles added to one DRAM access (no draw when disabled)."""
        if self.mem_jitter_std <= 0:
            return 0
        return max(self.mem_jitter_floor, int(round(stream.normal(self.mem_jitter_std))))

    def system_event(self, stream: "NoiseStream") -> int:
        """Stall cycles of the system event at ``stream``'s current tick."""
        return stream.integers(self.event_min_cycles, self.event_max_cycles + 1)


#: Calibrated noise used by the attack-campaign experiments: yields the
#: paper's single-sample accuracies (≈86.7% without eviction sets, ≈91.6%
#: with) at the 22/32-cycle timing differences.
def campaign_noise() -> NoiseModel:
    return NoiseModel(mem_jitter_std=11.0, event_prob=0.0015)


class NoiseStream:
    """One core's noise generator, with the per-instruction uniforms read ahead.

    The reader keeps a countdown of instructions known to draw no event.
    At zero it calls :meth:`tick` for the next instruction, which returns
    ``(stall cycles, countdown)``. ``left`` holds the reader's countdown
    whenever the stream may draw: the reader stores it before anything
    that can draw a jitter and reads it back after, since a draw drops the
    block. Only a model with ``event_prob > 0`` is ticked.

    A block holds at most ``_BLOCK`` uniforms. When the reader's last
    two jitters were fewer uniforms apart, a block stops where the next
    jitter would fall if that spacing repeats: a load in a loop then finds
    its block used up, with nothing to step back over.

    The generator is built by the first draw, from ``factory``.
    """

    __slots__ = (
        "model",
        "left",
        "_factory",
        "_rng",
        "_size",
        "_end",
        "_event_at",
        "_since",
        "_gap",
        "_half",
    )

    def __init__(self, model: NoiseModel, factory: Callable[[], np.random.Generator]) -> None:
        self.model = model
        self._factory = factory
        self._rng: Optional[np.random.Generator] = None
        #: The pending block's size, and the index one past the last tick
        #: handed out from it; equal when no block is pending.
        self._size = 0
        self._end = 0
        #: Index of the pending block's first event uniform, else its size.
        self._event_at = 0
        #: Ticks handed out that the reader has not used yet.
        self.left = 0
        #: Uniforms read since the last jitter, before the pending block;
        #: and how many were read between the last two jitters.
        self._since = 0
        self._gap = 0
        #: PCG64's buffered 32-bit half after the last ``integers`` draw,
        #: or None; ``advance`` drops it from the generator.
        self._half: Optional[int] = None

    def tick(self) -> Tuple[int, int]:
        """Use the next instruction's uniform: ``(stall cycles, countdown)``."""
        end = self._end
        if end == self._size:
            # Read the next block. Most blocks hold no event, and one
            # argmin tells; the first event is looked for only on a hit.
            since = self._since = self._since + end
            size = self._gap - since
            if not 0 < size <= _BLOCK:
                size = _BLOCK
            rng = self._rng
            if rng is None:
                rng = self._rng = self._factory()
            block = rng.random(size)
            p = self.model.event_prob
            lowest = block[block.argmin()]
            self._event_at = int(np.flatnonzero(block < p)[0]) if lowest < p else size
            self._size = size
            end = 0
        self.left = 0
        event_at = self._event_at
        if end == event_at:
            self._end = end + 1
            return self.model.system_event(self), 0
        self._end = event_at
        return 0, event_at - end - 1

    def _rewind(self) -> np.random.Generator:
        """The generator, stepped back over the pending block's unread
        uniforms; the block is dropped."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._factory()
        size = self._size
        unread = size - self._end + self.left
        if unread:
            rng.bit_generator.advance(_PERIOD - unread)
        self._since += size - unread
        self._size = self._end = self.left = 0
        return rng

    def generator(self) -> np.random.Generator:
        """The live generator at its logical position, buffered half included.

        Drops the pending block; the stream's draws that follow are
        unchanged. Draw from it only through the stream: a draw made
        directly moves the generator without the stream knowing (an
        ``integers`` draw also uses up the half the stream keeps).
        Take a ``copy.deepcopy`` to draw freely.
        """
        rng = self._rewind()
        if self._half is not None:
            bit_generator = rng.bit_generator
            state = bit_generator.state
            state["has_uint32"] = 1
            state["uinteger"] = self._half
            bit_generator.state = state
        return rng

    def integers(self, low: int, high: int) -> int:
        """One ``Generator.integers(low, high)`` draw at the logical position."""
        rng = self.generator()
        value = int(rng.integers(low, high))
        state = rng.bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        return value

    def normal(self, std: float) -> float:
        """One ``Generator.normal(0, std)`` draw at the logical position.

        A normal reads whole words, so the buffered half may stay dropped.
        """
        rng = self._rewind()
        self._gap = self._since
        self._since = 0
        return rng.normal(0, std)
