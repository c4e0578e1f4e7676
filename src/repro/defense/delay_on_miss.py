"""Delay-on-miss: an Invisible-family defense (Sakalis et al., ISCA'19).

The paper's background (§II-B) contrasts Undo defenses with *Invisible*
ones, which forbid speculative cache-state changes altogether. Delay-on-
miss is the efficient representative: speculative loads that **hit** the L1
proceed (a hit changes no state the attacker can see under the companion
policies), while speculative loads that **miss** are *deferred* until the
controlling branch resolves — so a transient miss never touches the cache.

Consequences reproduced here:

* classic Spectre dies (no transient install at all);
* unXpec dies too — there is no rollback and thus no rollback timing;
* the cost moves to the **common case**: every correctly-speculated miss
  waits for branch resolution first, the slowdown the paper quotes at ~11%
  (with value prediction) to 17% (InvisiSpec) for Invisible schemes —
  exactly why CleanupSpec's Undo approach looked attractive before unXpec;
* it remains vulnerable to the speculative interference attack [2], which
  is out of scope here (it needs an MSHR/execution-port contention model
  between SMT threads).

Mechanically, the scheme's :attr:`Defense.speculative_miss` policy is
``"delay"``: the core defers a miss issued under an unresolved branch until
the branch resolves, so a committed-path miss waits and a wrong-path miss
never issues (no fill, no port traffic). On squash there is nothing to roll
back.
"""

from __future__ import annotations

from .base import (
    Defense,
    DefenseCapabilities,
    SquashContext,
    SquashOutcome,
    register_defense,
)


class DelayOnMiss(Defense):
    """Invisible-family baseline: defer speculative L1 misses."""

    name = "DelayOnMiss"
    speculative_miss = "delay"

    def handle_squash(self, ctx: SquashContext) -> SquashOutcome:
        # Nothing was installed speculatively, so there is nothing to undo;
        # deferred misses simply die with the squash.
        assert ctx.delta.is_empty or all(
            i.level == "NONE" for i in ctx.delta.installs
        ), "invisible scheme must not see speculative installs"
        return SquashOutcome(
            defense=self.name,
            stall_cycles=0,
            breakdown={"t3_mshr_clean": 0, "t4_inflight_wait": 0, "t5_rollback": 0},
        )


register_defense(
    "delay_on_miss",
    lambda hierarchy: DelayOnMiss(hierarchy),
    DefenseCapabilities(family="invisible", closes_channels=("flush", "rollback")),
)
