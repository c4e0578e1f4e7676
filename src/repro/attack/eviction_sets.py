"""Eviction-set construction (paper §V-B, after Vila et al. [41]).

The optimised unXpec primes the L1 sets of the transient-load targets
``P[64k]`` so the transient install *must* evict a line, forcing a
restoration during rollback and enlarging the timing difference.

The attacker builds eviction sets with only its own loads and timing:

1. **Candidate generation** — the L1D is virtually indexed with
   4 KB of sets×lines, so addresses at 4 KB stride from a pool share the
   target's set (:func:`congruent_candidates`). This mirrors real attacks,
   where L1 congruence is derivable from page offsets.
2. **Conflict testing** — :func:`evicts` checks whether accessing a
   candidate group displaces the target, using the access *latency* the
   receiver observes (an L1 hit is distinguishable from L2/DRAM). Because
   the protected L1 uses random replacement, a single pass is
   probabilistic; the test makes several passes and majority-votes trials.
3. **Group reduction** — :func:`reduce_eviction_set` shrinks a conflicting
   candidate set to a minimal core with the group-testing strategy of
   Vila et al., adapted to the noisy oracle by re-verification.

NoMo partitioning confines the attacker's allocations to its own ways, but
since unXpec is same-thread (non-SMT model, §III-B), the sender's transient
loads allocate in the *same* partition — priming that partition is exactly
what the attack needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cache.hierarchy import CacheHierarchy
from ..common.errors import EvictionSetError
from .layout import DEFAULT_LAYOUT, AttackLayout


@dataclass(frozen=True)
class EvictionSet:
    """A verified eviction set for one target line."""

    target: int
    lines: tuple

    def __len__(self) -> int:
        return len(self.lines)


def partition_ways(hierarchy: CacheHierarchy, thread: int = 0) -> int:
    """Ways the attacking thread can allocate into (NoMo partition size)."""
    return len(hierarchy.l1.policy.allowed_ways(thread, hierarchy.l1.geometry.ways))


def l1_hit_threshold(hierarchy: CacheHierarchy) -> int:
    """Latency below which the receiver classifies an access as an L1 hit."""
    return (hierarchy.latency.l1_hit + hierarchy.latency.l2_total) // 2


def congruent_candidates(
    target: int,
    count: int,
    layout: AttackLayout = DEFAULT_LAYOUT,
    stride: int = 4096,
) -> List[int]:
    """``count`` pool addresses sharing the target's L1 set.

    The L1D's sets×line_size span is one 4 KB page, so equal page offsets
    imply equal set indices under conventional (modulo) L1 indexing.
    """
    if count < 0:
        raise EvictionSetError("count must be non-negative")
    page_offset = target & (stride - 1)
    base = layout.eviction_pool_base
    out = []
    j = 0
    while len(out) < count:
        addr = base + j * stride + (page_offset & ~63)
        if addr >= base + layout.eviction_pool_size:
            raise EvictionSetError(
                f"eviction pool exhausted after {len(out)} candidates"
            )
        if (addr >> 6) != (target >> 6):
            out.append(addr)
        j += 1
    return out


def evicts(
    hierarchy: CacheHierarchy,
    candidates: Sequence[int],
    target: int,
    trials: int = 5,
    passes: int = 4,
) -> bool:
    """Timing conflict test: does accessing ``candidates`` evict ``target``?

    Each trial: load the target, traverse the candidates ``passes`` times,
    then reload the target and classify by latency. Majority over trials
    absorbs the randomness of the replacement policy.
    """
    if not candidates:
        return False
    threshold = l1_hit_threshold(hierarchy)
    votes = 0
    for _ in range(trials):
        hierarchy.access(target, cycle=0)
        for _ in range(passes):
            for addr in candidates:
                hierarchy.access(addr, cycle=0)
        latency, _ = hierarchy.access(target, cycle=0)
        if latency > threshold:
            votes += 1
    return votes * 2 > trials


def reduce_eviction_set(
    hierarchy: CacheHierarchy,
    candidates: Sequence[int],
    target: int,
    size: int,
    trials: int = 5,
) -> List[int]:
    """Shrink ``candidates`` to ``size`` lines that still evict ``target``.

    Group-testing reduction: split into ``size + 1`` groups and discard any
    group whose removal keeps the set evicting; repeat until minimal.
    """
    current = list(candidates)
    if len(current) < size:
        raise EvictionSetError(f"need at least {size} candidates, got {len(current)}")
    while len(current) > size:
        groups = _split(current, size + 1)
        removed_one = False
        for g in range(len(groups)):
            rest = [a for i, group in enumerate(groups) if i != g for a in group]
            if len(rest) >= size and evicts(hierarchy, rest, target, trials=trials):
                current = rest
                removed_one = True
                break
        if not removed_one:
            # Noisy oracle refused every removal; trim arbitrarily if we are
            # still above the partition size and the trimmed set verifies.
            trimmed = current[: len(current) - 1]
            if len(trimmed) >= size and evicts(hierarchy, trimmed, target, trials=trials):
                current = trimmed
            else:
                break
    return current


def _split(items: Sequence[int], parts: int) -> List[List[int]]:
    size = max(1, (len(items) + parts - 1) // parts)
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def find_eviction_set(
    hierarchy: CacheHierarchy,
    target: int,
    layout: AttackLayout = DEFAULT_LAYOUT,
    size: Optional[int] = None,
    overprovision: int = 2,
    trials: int = 5,
) -> EvictionSet:
    """Construct and verify an eviction set for ``target``'s L1 set."""
    if size is None:
        size = partition_ways(hierarchy)
    candidates = congruent_candidates(target, overprovision * size + 2, layout)
    if not evicts(hierarchy, candidates, target, trials=trials):
        raise EvictionSetError(
            f"candidate pool does not conflict with target {target:#x}"
        )
    core = reduce_eviction_set(hierarchy, candidates, target, size, trials=trials)
    if not evicts(hierarchy, core, target, trials=trials):
        raise EvictionSetError(f"reduced set failed verification for {target:#x}")
    return EvictionSet(target=target, lines=tuple(core))


def build_prime_addresses(
    hierarchy: CacheHierarchy,
    targets: Sequence[int],
    layout: AttackLayout = DEFAULT_LAYOUT,
    size: Optional[int] = None,
) -> List[int]:
    """Eviction-set lines priming every target's set (setup-program input)."""
    out: List[int] = []
    for target in targets:
        out.extend(find_eviction_set(hierarchy, target, layout=layout, size=size).lines)
    return out
