"""CleanupSpec: Undo-based safe speculation (Saileshwar & Qureshi, MICRO'19).

On squash, roll the cache back to its pre-window state:

* **T3** — clean in-flight mis-speculated loads out of the MSHR;
* **T4** — wait until older, correct-path in-flight loads retire (avoiding
  recursive squash during cleanup);
* **T5** — *invalidate* every line the transient loads installed (in L1,
  and also in L2 under ``CLEANUP_FOR_L1L2``), then *restore* the original
  L1 lines those installs evicted, servicing restores from L2.

The rollback is functional — the hierarchy really ends up in the
pre-speculation state for L1 (up to the L2/replacement side effects the
paper also concedes) — and its duration comes from
:class:`~repro.defense.cleanup_timing.CleanupTimingModel`. The core stalls
for the whole duration; that stall is the unXpec timing channel.
"""

from __future__ import annotations

from typing import Optional

from ..cache.hierarchy import CacheHierarchy
from .base import (
    Defense,
    DefenseCapabilities,
    SquashContext,
    SquashOutcome,
    counter,
    register_defense,
)
from .cleanup_timing import CleanupMode, CleanupTimingModel


class CleanupSpec(Defense):
    """Undo defense with invalidation + restoration rollback."""

    total_invalidations_l1 = counter()
    total_invalidations_l2 = counter()
    total_restorations = counter()

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        mode: CleanupMode = CleanupMode.CLEANUP_FOR_L1L2,
        timing: Optional[CleanupTimingModel] = None,
    ) -> None:
        super().__init__(hierarchy)
        self.mode = mode
        self.timing = timing or CleanupTimingModel()
        self.name = f"CleanupSpec[{mode.value}]"
        # Cumulative rollback statistics for reports.
        self.total_invalidations_l1 = 0
        self.total_invalidations_l2 = 0
        self.total_restorations = 0
        if self.obs is not None:
            self._register_extra_stats(self.obs.registry)

    def _register_extra_stats(self, registry) -> None:
        c = self.counters
        registry.gauge(
            "defense.cleanup.invalidations_l1",
            "transient L1 lines invalidated by rollback (T5)",
        ).add_source(lambda: c.total_invalidations_l1)
        registry.gauge(
            "defense.cleanup.invalidations_l2",
            "transient L2 lines invalidated by rollback (T5)",
        ).add_source(lambda: c.total_invalidations_l2)
        registry.gauge(
            "defense.cleanup.restores",
            "evicted L1 victims restored by rollback (T5)",
        ).add_source(lambda: c.total_restorations)

    def handle_squash(self, ctx: SquashContext) -> SquashOutcome:
        delta = ctx.delta

        # ---- T3: clean in-flight mis-speculated loads from the MSHR ----
        cleaned = self.hierarchy.mshr.clean_speculative(ctx.resolve_cycle)
        n_inflight = max(ctx.inflight_transient, len(cleaned))
        t3 = self.timing.mshr_clean_cycles(n_inflight)

        # ---- T4: wait for in-flight correct-path loads to retire ----
        # The retirement wait only matters when there is rollback work to
        # order against (no cleanup -> nothing can recursively squash), so a
        # squash with an empty speculative delta pays no T4. This is why the
        # attack must both create a delta (secret=1) and fence away older
        # loads (zeroing T4) to get a clean T5-only measurement.
        t4 = 0
        if not delta.is_empty:
            t4 = max(0, ctx.older_mem_complete - (ctx.resolve_cycle + t3))

        # ---- T5: invalidation ----
        inval_l1 = 0
        inval_l2 = 0
        seen_l1 = set()
        seen_l2 = set()
        for install in delta.installs:
            if install.level == "L1" and install.line_addr not in seen_l1:
                seen_l1.add(install.line_addr)
                if self.hierarchy.rollback_invalidate("L1", install.line_addr):
                    inval_l1 += 1
            elif install.level == "L2" and install.line_addr not in seen_l2:
                seen_l2.add(install.line_addr)
                if self.mode is CleanupMode.CLEANUP_FOR_L1L2:
                    if self.hierarchy.rollback_invalidate("L2", install.line_addr):
                        inval_l2 += 1
                else:
                    # L1-only mode leaves the L2 copy; clear its mark so it
                    # behaves as an ordinary line afterwards.
                    line = self.hierarchy.l2.get_line(install.line_addr)
                    if line is not None and line.speculative:
                        line.commit()

        # ---- T5: restoration (L1 only; see paper §II-B) ----
        restored = 0
        for eviction in delta.evictions_at("L1"):
            if self.hierarchy.rollback_restore(eviction):
                restored += 1

        t5 = self.timing.rollback_cycles(
            inval_l1,
            inval_l2 if self.mode is CleanupMode.CLEANUP_FOR_L1L2 else 0,
            restored,
        )

        self.total_invalidations_l1 += inval_l1
        self.total_invalidations_l2 += inval_l2
        self.total_restorations += restored

        return SquashOutcome(
            defense=self.name,
            stall_cycles=t3 + t4 + t5,
            breakdown={
                "t3_mshr_clean": t3,
                "t4_inflight_wait": t4,
                "t5_rollback": t5,
            },
            invalidated_l1=inval_l1,
            invalidated_l2=inval_l2,
            restored_l1=restored,
        )


register_defense(
    "cleanupspec",
    lambda hierarchy: CleanupSpec(hierarchy),
    # The undo family closes the footprint (flush) channel; the rollback
    # duration itself stays secret-dependent — exactly the unXpec channel.
    DefenseCapabilities(family="undo", closes_channels=("flush",)),
)
