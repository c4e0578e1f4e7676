"""Bimodal branch predictor (table of 2-bit saturating counters).

The attack's preparation stage *mistrains* this predictor: repeated
in-bounds invocations of the sender drive the bounds-check branch's counter
to a strong state, so the subsequent out-of-bounds invocation mis-speculates
into the transient body (paper Fig. 4, "mistrain()").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..common.errors import ConfigError

# Counter values: 0 strongly-not-taken, 1 weakly-not-taken,
#                 2 weakly-taken,       3 strongly-taken.
STRONG_NOT_TAKEN = 0
WEAK_NOT_TAKEN = 1
WEAK_TAKEN = 2
STRONG_TAKEN = 3


@dataclass
class PredictorStats:
    predictions: int = 0
    mispredictions: int = 0
    updates: int = 0

    @property
    def accuracy(self) -> float:
        if self.predictions == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


class BimodalPredictor:
    """PC-indexed 2-bit counter table."""

    def __init__(self, table_size: int = 16384, initial: int = WEAK_NOT_TAKEN) -> None:
        if table_size <= 0 or table_size & (table_size - 1):
            raise ConfigError("predictor table size must be a power of two")
        if not 0 <= initial <= 3:
            raise ConfigError("initial counter must be in [0, 3]")
        self.table_size = table_size
        self.initial = initial
        self._counters: Dict[int, int] = {}
        self.stats = PredictorStats()

    def _slot(self, pc: int) -> int:
        return pc & (self.table_size - 1)

    def counter(self, pc: int) -> int:
        return self._counters.get(self._slot(pc), self.initial)

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc`` (True = taken)."""
        self.stats.predictions += 1
        return self.counter(pc) >= WEAK_TAKEN

    def update(self, pc: int, taken: bool, mispredicted: bool) -> None:
        """Train the counter with the resolved outcome."""
        slot = self._slot(pc)
        value = self._counters.get(slot, self.initial)
        if taken:
            value = min(STRONG_TAKEN, value + 1)
        else:
            value = max(STRONG_NOT_TAKEN, value - 1)
        self._counters[slot] = value
        self.stats.updates += 1
        if mispredicted:
            self.stats.mispredictions += 1

    def reset(self) -> None:
        self._counters.clear()
        self.stats = PredictorStats()
