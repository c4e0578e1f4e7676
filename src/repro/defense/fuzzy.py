"""Fuzzy (dummy-operation) cleanup — the paper's future-work defense.

Paper §VII sketches a lighter countermeasure: instead of enforcing the
*longest* rollback time on every squash (constant-time), inject **random
dummy cleanup operations / delays** so the observed rollback time no longer
cleanly encodes the secret, at a much lower average cost.

We implement it as CleanupSpec plus a uniformly random dummy stall in
``[0, max_dummy_cycles]`` drawn per squash from a seeded generator. The
extension experiment (`ext_fuzzy`) measures both sides of the trade-off:
attack accuracy degradation vs average added stall.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cache.hierarchy import CacheHierarchy
from ..common.rng import derive_rng
from .base import (
    Defense,
    DefenseCapabilities,
    SquashContext,
    SquashOutcome,
    counter,
    register_defense,
)
from .cleanup_timing import CleanupMode, CleanupTimingModel
from .cleanupspec import CleanupSpec


class FuzzyCleanup(Defense):
    """CleanupSpec with random dummy cleanup delay."""

    total_dummy = counter()

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        max_dummy_cycles: int,
        mode: CleanupMode = CleanupMode.CLEANUP_FOR_L1L2,
        timing: Optional[CleanupTimingModel] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(hierarchy)
        if max_dummy_cycles < 0:
            raise ValueError("max_dummy_cycles must be non-negative")
        self.max_dummy_cycles = max_dummy_cycles
        self.inner = CleanupSpec(hierarchy, mode=mode, timing=timing)
        self._rng: np.random.Generator = derive_rng(seed, "fuzzy-cleanup")
        self.name = f"FuzzyCleanup[<= {max_dummy_cycles}cyc]"
        self.total_dummy = 0
        if self.obs is not None:
            self._register_extra_stats(self.obs.registry)

    def _register_extra_stats(self, registry) -> None:
        c = self.counters
        registry.gauge(
            "defense.fuzzy.dummy_cycles", "cumulative random dummy-cleanup stall"
        ).add_source(lambda: c.total_dummy)

    def handle_squash(self, ctx: SquashContext) -> SquashOutcome:
        inner = self.inner.handle_squash(ctx)
        dummy = (
            int(self._rng.integers(self.max_dummy_cycles + 1))
            if self.max_dummy_cycles
            else 0
        )
        self.total_dummy += dummy
        breakdown = dict(inner.breakdown)
        breakdown["dummy"] = dummy
        return SquashOutcome(
            defense=self.name,
            stall_cycles=inner.stall_cycles + dummy,
            breakdown=breakdown,
            invalidated_l1=inner.invalidated_l1,
            invalidated_l2=inner.invalidated_l2,
            restored_l1=inner.restored_l1,
        )


register_defense(
    "fuzzy",
    lambda hierarchy: FuzzyCleanup(hierarchy, max_dummy_cycles=32),
    # The per-squash RNG draw only *blurs* the rollback channel.
    DefenseCapabilities(family="undo", closes_channels=("flush",)),
)
