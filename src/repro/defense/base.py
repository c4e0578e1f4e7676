"""Defense interface: what happens when a speculation window squashes.

The core hands every mis-speculation to the attached defense as a
:class:`SquashContext` describing the transient window's cache-state delta
and MSHR situation. The defense (a) mutates the hierarchy to enact its
policy (roll back, commit, …) and (b) returns a :class:`SquashOutcome`
whose ``stall_cycles`` the core adds before fetch resumes — this stall is
precisely the secret-dependent quantity unXpec measures.

The stages mirror the CleanupSpec timeline of paper Fig. 1:

* **T3** ``mshr_clean`` — cancel in-flight mis-speculated loads,
* **T4** ``inflight_wait`` — wait for in-flight correct-path loads,
* **T5** ``rollback`` — invalidation + restoration.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..common.errors import ConfigError
from ..obs import Observability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..cache.hierarchy import CacheHierarchy
    from ..cache.spec_tracker import EpochDelta


@dataclass(frozen=True)
class SquashContext:
    """Everything a defense may inspect at squash time."""

    #: Cycle at which the mis-speculation was detected and younger
    #: instructions identified for squash (paper's T2, plus the pipeline's
    #: squash-identification delay).
    resolve_cycle: int
    #: Speculative cache-state changes of the squashed window.
    delta: "EpochDelta"
    #: Transient loads still in flight at resolve (MSHR-clean targets, T3).
    inflight_transient: int
    #: Latest completion cycle among older (correct-path) memory ops; the
    #: basis of the T4 wait. A fence before the window pins this <= resolve.
    older_mem_complete: int
    #: Wrong-path misses serviced into shadow structures (only non-zero
    #: under the ``"shadow"`` speculative-miss policy); the squashed
    #: window's shadow state to discard.
    shadow_fills: int = 0
    #: Of those, fills still in flight at the squash point — the requests a
    #: cancellation-based defense (CacheSquash) must squash.
    shadow_inflight: int = 0


@dataclass
class SquashOutcome:
    """What the defense did and how long the core must stall."""

    defense: str
    #: Extra stall, beyond the baseline mispredict penalty, before fetch
    #: resumes (the unXpec-observable quantity).
    stall_cycles: int
    #: Per-stage breakdown, e.g. {"t3_mshr_clean": 2, "t4_inflight_wait": 0,
    #: "t5_rollback": 22, "dummy": 0, "padding": 0}.
    breakdown: Dict[str, int] = field(default_factory=dict)
    #: Lines actually invalidated, per level.
    invalidated_l1: int = 0
    invalidated_l2: int = 0
    #: L1 victims actually restored.
    restored_l1: int = 0

    def stage(self, name: str) -> int:
        return self.breakdown.get(name, 0)


class DefenseCounters:
    """A defense's cumulative counters, held apart from the defense itself.

    The stats registry's gauge sources close over this object, never over
    the defense: the defense references the registry through ``obs``, so a
    source that referenced the defense back would make every machine of an
    experiment a reference cycle, freed only by a full garbage collection.
    """


class counter:
    """A public integer attribute of a defense, stored on its ``counters``.

    Reads and writes (``defense.squash_count += 1``) go to
    :class:`DefenseCounters`, where a gauge source can read them without
    holding the defense.
    """

    __slots__ = ("name",)

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj.counters.__dict__[self.name]

    def __set__(self, obj, value: int) -> None:
        obj.counters.__dict__[self.name] = value


class Defense(abc.ABC):
    """A speculation-squash policy attached to a hierarchy."""

    #: Human-readable scheme name used in reports.
    name: str = "defense"

    #: What a wrong-path load that misses the L1 does (L1 hits always
    #: proceed); one of:
    #:
    #: * ``"install"`` — the fill installs into the real hierarchy, recorded
    #:   for the defense to roll back (undo family, and no defense at all);
    #: * ``"shadow"`` — the fill completes from a shadow structure at its
    #:   real latency without touching the real hierarchy, and the squash
    #:   context reports the window's shadow fills (SafeSpec, CacheSquash);
    #: * ``"delay"`` — delay-on-miss (invisible family): a miss issued
    #:   before an older branch resolves waits for it, so a wrong-path miss
    #:   never issues and dies with the squash.
    speculative_miss: str = "install"

    squash_count = counter()
    total_stall = counter()

    def __init__(self, hierarchy: "CacheHierarchy") -> None:
        self.hierarchy = hierarchy
        self.counters = DefenseCounters()
        self.squash_count = 0
        self.total_stall = 0
        self.obs: Optional[Observability] = None
        attached = getattr(hierarchy, "obs", None)
        if attached is not None:
            self.obs = attached
            self._register_base_stats(attached.registry)

    # -- observability ------------------------------------------------------

    def attach_obs(self, obs: Optional[Observability]) -> None:
        """Report through ``obs`` (idempotent once attached)."""
        if obs is None or self.obs is not None:
            return
        self.obs = obs
        self._register_base_stats(obs.registry)
        self._register_extra_stats(obs.registry)

    def _register_base_stats(self, registry) -> None:
        c = self.counters
        registry.gauge("defense.squashes", "squashes handled by the defense").add_source(
            lambda: c.squash_count
        )
        registry.gauge(
            "defense.stall_cycles", "cumulative post-squash stall"
        ).add_source(lambda: c.total_stall)

    def _register_extra_stats(self, registry) -> None:
        """Hook for subclass-specific stats; called once obs is known.

        Subclasses whose counters exist only after their own ``__init__``
        ran must register here (and call it themselves when the hierarchy
        already carries an obs at construction time). Sources read
        ``self.counters``, never ``self`` (see :class:`DefenseCounters`).
        """

    @abc.abstractmethod
    def handle_squash(self, ctx: SquashContext) -> SquashOutcome:
        """Enact the policy on ``self.hierarchy``; return timing/outcome."""

    def on_squash(self, ctx: SquashContext) -> SquashOutcome:
        """Template wrapper: delegates to :meth:`handle_squash` and counts."""
        outcome = self.handle_squash(ctx)
        self.squash_count += 1
        self.total_stall += outcome.stall_cycles
        obs = self.obs
        if obs is not None:
            reg = obs.registry
            reg.distribution(
                "defense.stall", "per-squash defense stall (the unXpec observable)"
            ).add(outcome.stall_cycles)
            for stage, cycles in outcome.breakdown.items():
                reg.distribution(
                    f"defense.stage.{stage}", "per-squash stage duration"
                ).add(cycles)
        return outcome


# ----------------------------------------------------------------------
# defense registry + capability descriptors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DefenseCapabilities:
    """What a defense claims about itself, machine-checkable.

    The (attack x defense x channel) matrix validates the
    ``closes_channels`` claims empirically: a channel a defense claims to
    close must show no leak in any matrix cell that pairs them.
    """

    #: Scheme family: "none", "undo" (rollback), "invisible" (delay),
    #: "shadow" (shadow structures), "cancel" (cancellable requests).
    family: str
    #: Channel keys (see :mod:`repro.attack.channel`) the scheme claims to
    #: close, e.g. ("flush",) for undo schemes, ("flush", "rollback") for
    #: shadow-structure schemes.
    closes_channels: Tuple[str, ...] = ()
    #: Microarchitectural structures the scheme shadows/duplicates.
    shadowed_structures: Tuple[str, ...] = ()


#: key -> (factory, capabilities). Populated by each defense module at
#: import time; ``repro.defense`` imports them all, so importing the
#: package fills the registry.
_DEFENSE_REGISTRY: Dict[str, Tuple[Callable[..., "Defense"], DefenseCapabilities]] = {}


def register_defense(
    key: str,
    factory: Callable[..., "Defense"],
    capabilities: DefenseCapabilities,
) -> None:
    """Register ``factory`` (hierarchy -> Defense) under ``key``."""
    if key in _DEFENSE_REGISTRY:
        raise ConfigError(f"defense {key!r} already registered")
    _DEFENSE_REGISTRY[key] = (factory, capabilities)


def defense_keys() -> Tuple[str, ...]:
    """Registered defense keys, sorted for deterministic iteration."""
    return tuple(sorted(_DEFENSE_REGISTRY))


def make_defense(key: str, hierarchy: "CacheHierarchy") -> "Defense":
    """Instantiate the registered defense ``key`` on ``hierarchy``."""
    try:
        factory, _ = _DEFENSE_REGISTRY[key]
    except KeyError:
        raise ConfigError(
            f"unknown defense {key!r}; registered: {', '.join(defense_keys())}"
        ) from None
    return factory(hierarchy)


def defense_capabilities(key: str) -> DefenseCapabilities:
    """Capability descriptor of the registered defense ``key``."""
    try:
        _, caps = _DEFENSE_REGISTRY[key]
    except KeyError:
        raise ConfigError(
            f"unknown defense {key!r}; registered: {', '.join(defense_keys())}"
        ) from None
    return caps
