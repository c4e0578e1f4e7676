"""CacheSquash-style cancellable memory requests (ElAtali & Asokan).

CacheSquash attacks the root cause CleanupSpec leaves standing: the squash
itself does secret-dependent work. Speculative misses issue *cancellable*
memory requests; when the wrong path is squashed, requests still in flight
are squashed with it — cancellation messages chase the fills down the
hierarchy — and completed speculative fills are dropped before they become
visible. Crucially, the squash-visible cost is *coalesced*: cancellations
travel in groups, so the post-squash delay is quantized into buckets of
``coalesce_width`` requests rather than scaling per-request, hiding the
footprint size the unXpec receiver would otherwise read off the stall.

Security consequences reproduced here:

* classic Spectre's flush-based probe dies — no speculative fill ever
  lands in the real cache;
* unXpec's rollback-timing probe is closed down to bucket granularity —
  any two secrets whose in-flight counts land in the same coalescing
  bucket (in particular the common 0-vs-0 and 1-vs-1 cases, and every
  count up to ``coalesce_width``) produce identical squash timing.

Modelling notes: like :class:`~repro.defense.safespec.SafeSpec`, the core
serves wrong-path misses without touching the real hierarchy
(the ``"shadow"`` :attr:`Defense.speculative_miss` policy — the fill buffer
is the cancellable request), and the squash context reports how many of the
window's requests were still in flight at the squash point; only those
need cancellation messages.
"""

from __future__ import annotations

from ..cache.hierarchy import CacheHierarchy
from ..common.errors import ConfigError
from .base import (
    Defense,
    DefenseCapabilities,
    SquashContext,
    SquashOutcome,
    counter,
    register_defense,
)

#: Cycles one batch of coalesced cancellations adds to the squash.
DEFAULT_CANCEL_QUANTUM = 16
#: In-flight requests cancelled per batch.
DEFAULT_COALESCE_WIDTH = 8


class CacheSquash(Defense):
    """Cancellable-request defense with coalesced cancellation timing."""

    speculative_miss = "shadow"

    total_cancelled = counter()
    total_cancel_stall = counter()

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        cancel_quantum: int = DEFAULT_CANCEL_QUANTUM,
        coalesce_width: int = DEFAULT_COALESCE_WIDTH,
    ) -> None:
        super().__init__(hierarchy)
        if cancel_quantum < 0:
            raise ConfigError("cancel_quantum must be non-negative")
        if coalesce_width < 1:
            raise ConfigError("coalesce_width must be at least 1")
        self.cancel_quantum = cancel_quantum
        self.coalesce_width = coalesce_width
        self.name = f"CacheSquash[q={cancel_quantum},w={coalesce_width}]"
        #: In-flight speculative requests cancelled by squashes, cumulative.
        self.total_cancelled = 0
        #: Cumulative coalesced cancellation stall.
        self.total_cancel_stall = 0
        if self.obs is not None:
            self._register_extra_stats(self.obs.registry)

    def _register_extra_stats(self, registry) -> None:
        c = self.counters
        registry.gauge(
            "defense.cachesquash.cancelled",
            "in-flight speculative requests cancelled on squash",
        ).add_source(lambda: c.total_cancelled)
        registry.gauge(
            "defense.cachesquash.cancel_stall",
            "cumulative coalesced cancellation stall",
        ).add_source(lambda: c.total_cancel_stall)

    def handle_squash(self, ctx: SquashContext) -> SquashOutcome:
        # No real-hierarchy installs: completed speculative fills are
        # dropped from the request buffer for free; only requests still in
        # flight need cancellation messages, charged per coalesced batch.
        # Every squash walks the cancellable-request buffer, so even an
        # empty walk pays one quantum — otherwise 0-vs-1 in-flight (an L1
        # hit vs a miss, exactly the unXpec secret) would separate by a
        # full quantum and re-open the channel the coalescing closes.
        assert ctx.delta.is_empty, (
            "cancellable-request scheme must not see real speculative installs"
        )
        n = ctx.shadow_inflight
        batches = max(1, -(-n // self.coalesce_width))
        cancel = batches * self.cancel_quantum
        self.total_cancelled += n
        self.total_cancel_stall += cancel
        return SquashOutcome(
            defense=self.name,
            stall_cycles=cancel,
            breakdown={
                "t3_mshr_clean": 0,
                "t4_inflight_wait": 0,
                "t5_rollback": 0,
                "cancel": cancel,
            },
        )


register_defense(
    "cachesquash",
    lambda hierarchy: CacheSquash(hierarchy),
    DefenseCapabilities(
        family="cancel",
        closes_channels=("flush", "rollback"),
        shadowed_structures=("MSHR",),
    ),
)
