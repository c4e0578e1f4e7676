"""SafeSpec-style shadow structures (Khasawneh et al., DAC'19).

Instead of letting transient loads install into the real cache (Undo) or
deferring them past branch resolution (Invisible delay-on-miss), SafeSpec
gives speculative fills their own *shadow* structures — shadow L1 entries
and shadow MSHRs sized for the speculation window. A wrong-path miss is
serviced into the shadow structure at its real latency, so the transient
program makes full progress; the fill only moves into the real hierarchy
when the branch resolves *correctly*. On a squash the shadow entries are
simply dropped.

Security consequences reproduced here:

* classic Spectre's flush-based probe dies — the transient footprint never
  reaches the real cache, so there is nothing to reload;
* unXpec's rollback-timing probe dies too — discarding shadow entries is a
  bulk-invalidate off the critical path, so the post-squash stall is zero
  and, unlike CleanupSpec, *independent of the transient footprint*.

Modelling notes: the scheme's :attr:`Defense.speculative_miss` policy is
``"shadow"`` — wrong-path misses complete (value forwarded at the probed
latency) without touching the real hierarchy, MSHR, or speculation tracker,
and the squash context carries the window's shadow-fill counts. Correct-path
speculation is charged nothing for the shadow-to-real movement at commit
(the paper's leakage-free transfer happens in parallel with retirement),
so the scheme's overhead in this model comes only from losing wrong-path
prefetch effects.
"""

from __future__ import annotations

from ..cache.hierarchy import CacheHierarchy
from .base import (
    Defense,
    DefenseCapabilities,
    SquashContext,
    SquashOutcome,
    counter,
    register_defense,
)


class SafeSpec(Defense):
    """Shadow-structure defense: transient fills never become visible."""

    name = "SafeSpec"
    speculative_miss = "shadow"

    total_shadow_fills = counter()
    total_shadow_discards = counter()

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        super().__init__(hierarchy)
        #: Wrong-path misses serviced by shadow structures, cumulative.
        self.total_shadow_fills = 0
        #: Shadow entries discarded by squashes (= fills of squashed
        #: windows; correct-path windows commit instead).
        self.total_shadow_discards = 0
        if self.obs is not None:
            self._register_extra_stats(self.obs.registry)

    def _register_extra_stats(self, registry) -> None:
        c = self.counters
        registry.gauge(
            "defense.safespec.shadow_fills",
            "wrong-path misses serviced by shadow structures",
        ).add_source(lambda: c.total_shadow_fills)
        registry.gauge(
            "defense.safespec.shadow_discards",
            "shadow entries dropped on squash",
        ).add_source(lambda: c.total_shadow_discards)

    def handle_squash(self, ctx: SquashContext) -> SquashOutcome:
        # Nothing ever installed into the real hierarchy; dropping the
        # shadow entries is a bulk clear off the critical path.
        assert ctx.delta.is_empty, (
            "shadow-structure scheme must not see real speculative installs"
        )
        self.total_shadow_fills += ctx.shadow_fills
        self.total_shadow_discards += ctx.shadow_fills
        return SquashOutcome(
            defense=self.name,
            stall_cycles=0,
            breakdown={
                "t3_mshr_clean": 0,
                "t4_inflight_wait": 0,
                "t5_rollback": 0,
                "shadow_discard": 0,
            },
        )


register_defense(
    "safespec",
    lambda hierarchy: SafeSpec(hierarchy),
    DefenseCapabilities(
        family="shadow",
        closes_channels=("flush", "rollback"),
        shadowed_structures=("L1", "MSHR"),
    ),
)
