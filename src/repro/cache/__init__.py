"""Cache substrate: lines, policies, set-associative levels, hierarchy."""

from .coherence import CoherenceGuard, CoherenceGuardStats, DowngradeRequest
from .hierarchy import CacheHierarchy
from .line import CacheLine, CoherenceState
from .randomized import RandomizedIndexing
from .replacement import (
    LruReplacement,
    NoMoPartition,
    RandomReplacement,
    ReplacementPolicy,
)
from .setassoc import CacheStats, Eviction, SetAssociativeCache
from .spec_tracker import (
    EpochDelta,
    SpecEviction,
    SpecInstall,
    SpeculationTracker,
)

__all__ = [
    "CacheLine",
    "CoherenceState",
    "ReplacementPolicy",
    "RandomReplacement",
    "LruReplacement",
    "NoMoPartition",
    "SetAssociativeCache",
    "CacheStats",
    "Eviction",
    "RandomizedIndexing",
    "CoherenceGuard",
    "CoherenceGuardStats",
    "DowngradeRequest",
    "SpeculationTracker",
    "EpochDelta",
    "SpecInstall",
    "SpecEviction",
    "CacheHierarchy",
]
