"""Unsafe baseline: conventional speculation, no cache rollback.

On a squash the transiently installed lines simply *stay* in the cache
(their speculative marks are cleared — architecturally they are now ordinary
lines). This is the machine Spectre attacks: the probe stage finds the
secret-dependent line hot. It is also Figure 12's normalisation baseline.
"""

from __future__ import annotations

from .base import (
    Defense,
    DefenseCapabilities,
    SquashContext,
    SquashOutcome,
    register_defense,
)


class UnsafeBaseline(Defense):
    """No protection: squashes cost nothing beyond the pipeline penalty."""

    name = "UnsafeBaseline"

    def handle_squash(self, ctx: SquashContext) -> SquashOutcome:
        # The transient lines become permanent; clear their speculative
        # marking so later accesses (and coherence) treat them normally.
        self.hierarchy.commit_installs(ctx.delta)
        return SquashOutcome(
            defense=self.name,
            stall_cycles=0,
            breakdown={"t3_mshr_clean": 0, "t4_inflight_wait": 0, "t5_rollback": 0},
        )


register_defense(
    "unsafe",
    lambda hierarchy: UnsafeBaseline(hierarchy),
    DefenseCapabilities(family="none"),
)
