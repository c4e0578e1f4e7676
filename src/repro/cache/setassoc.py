"""Set-associative cache (tag store).

One level of the hierarchy: lookup, install with victim selection,
invalidation, flush. Data values live in the DRAM model; the cache tracks
presence, dirtiness, coherence state, and speculative marking.

The cache optionally routes set indexing through a
:class:`~repro.cache.randomized.RandomizedIndexing` permutation (CEASER-like,
used for the shared L2) and restricts allocation ways per thread through the
replacement policy's ``allowed_ways`` (NoMo partition, used for the L1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..common.config import CacheGeometry
from .line import CacheLine, CoherenceState
from .randomized import RandomizedIndexing
from .replacement import ReplacementPolicy


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    installs: int = 0
    spec_installs: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    restorations: int = 0
    flushes: int = 0


@dataclass
class Eviction:
    """Record of a line evicted to make room for an install."""

    line_addr: int
    dirty: bool
    set_index: int
    way: int
    was_speculative: bool


class _SetIndexMemo(dict):
    """Line number -> set index under one randomized mapping.

    The mapping is a pure function of the permutation and the geometry, so
    every cache built with them shares one memo and a deep copy of a cache
    keeps sharing it (copying it would only repeat the same answers).
    """

    def __deepcopy__(self, memo: dict) -> "_SetIndexMemo":
        return self


#: Process-wide memos keyed by ``(key, bits, rounds, offset_bits, sets)``.
_SET_INDEX_MEMOS: Dict[Tuple[int, int, int, int, int], _SetIndexMemo] = {}


def _shared_set_index_memo(
    randomizer: RandomizedIndexing, geometry: CacheGeometry
) -> _SetIndexMemo:
    """The shared memo for caches of ``geometry`` indexed through ``randomizer``."""
    key = (
        randomizer.key,
        randomizer.bits,
        randomizer.rounds,
        geometry.offset_bits,
        geometry.sets,
    )
    memo = _SET_INDEX_MEMOS.get(key)
    if memo is None:
        memo = _SET_INDEX_MEMOS[key] = _SetIndexMemo()
    return memo


class SetAssociativeCache:
    """One cache level."""

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        randomizer: Optional[RandomizedIndexing] = None,
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        self.randomizer = randomizer
        #: Way lists, one per set; ``None`` until the set's first install.
        #: Most machines touch a few dozen of the L2's 2,048 sets, so an
        #: unallocated set stands for an empty one and every reader treats
        #: it that way.
        self._sets: List[Optional[List[Optional[CacheLine]]]] = [None] * geometry.sets
        self.stats = CacheStats()
        # Hot-path precomputes: line/set masks, the (expensive, pure)
        # randomized set-index function memoized per line number in a memo
        # shared by every cache with the same permutation, and an exact
        # line_addr -> (set_index, way) residency map so lookups are O(1)
        # instead of a way scan. A line is resident iff the map finds it.
        self._offset_bits = geometry.offset_bits
        self._line_mask = ~(geometry.line_size - 1)
        self._set_mask = geometry.sets - 1
        self._rand_mask = (1 << randomizer.bits) - 1 if randomizer is not None else 0
        self._set_index_memo: Optional[_SetIndexMemo] = (
            _shared_set_index_memo(randomizer, geometry) if randomizer is not None else None
        )
        self._where: dict = {}

    # -- indexing ---------------------------------------------------------------

    def set_index_of(self, addr: int) -> int:
        """Set index of ``addr``, honouring the randomized mapping if present.

        The randomized (CEASER-like Feistel) mapping is a pure function of
        the line number, so it is memoized once per process and permutation
        (:func:`_shared_set_index_memo`): experiment working sets touch a
        bounded set of lines but access each one thousands of times, across
        many machines built from the same seed.
        """
        line_number = addr >> self._offset_bits
        memo = self._set_index_memo
        if memo is None:
            return line_number & self._set_mask
        index = memo.get(line_number)
        if index is None:
            index = memo[line_number] = (
                self.randomizer.permute(line_number & self._rand_mask) & self._set_mask
            )
        return index

    def line_addr_of(self, addr: int) -> int:
        return addr & self._line_mask

    # -- lookup -------------------------------------------------------------------

    def _find(self, addr: int) -> tuple:
        """Return ``(set_index, way, line)``, or ``(None, None, None)`` if absent.

        The residency map is exact (only this class writes the way lists,
        and every write keeps the map in step), so a miss in it is a
        definite answer and an absent line never costs a set-index
        computation. A resident line is never INVALID: invalidation empties
        the way and installs store only E or M lines.
        """
        loc = self._where.get(addr & self._line_mask)
        if loc is None:
            return None, None, None
        set_index, way = loc
        return set_index, way, self._sets[set_index][way]

    def lookup(self, addr: int, cycle: int = 0, touch: bool = True) -> Optional[CacheLine]:
        """Hit check with stats and (optionally) recency update."""
        # Hot path: the residency-map check is inlined (rather than going
        # through _find) — lookup() runs once per hierarchy access.
        loc = self._where.get(addr & self._line_mask)
        if loc is None:
            self.stats.misses += 1
            return None
        line = self._sets[loc[0]][loc[1]]
        self.stats.hits += 1
        if touch:
            line.last_access = cycle
        return line

    def contains(self, addr: int) -> bool:
        """Presence probe without statistics or recency side effects."""
        _, way, _line = self._find(addr)
        return way is not None

    def get_line(self, addr: int) -> Optional[CacheLine]:
        """The resident line for ``addr`` with no side effects, or None."""
        _, _, line = self._find(addr)
        return line

    # -- install ---------------------------------------------------------------

    def install(
        self,
        addr: int,
        cycle: int,
        dirty: bool = False,
        speculative: bool = False,
        epoch: Optional[int] = None,
        thread: int = 0,
        preferred_way: Optional[int] = None,
    ) -> tuple:
        """Install the line for ``addr``; return ``(line, eviction_or_None)``.

        Empty ways are filled first; otherwise the replacement policy picks
        a victim among the ways the accessing ``thread`` may allocate into.
        ``preferred_way`` pins the destination way (used by restoration to
        put a victim back where the transient line was invalidated).
        """
        line, eviction, _, _ = self.place(
            addr, cycle, dirty, speculative, epoch, thread, preferred_way
        )
        return line, eviction

    def place(
        self,
        addr: int,
        cycle: int,
        dirty: bool = False,
        speculative: bool = False,
        epoch: Optional[int] = None,
        thread: int = 0,
        preferred_way: Optional[int] = None,
    ) -> tuple:
        """:meth:`install`, also reporting where the line landed.

        Returns ``(line, eviction_or_None, set_index, way)``: the caller
        learns the line's location without looking it up again.
        """
        line_addr = addr & self._line_mask
        set_index, way, existing = self._find(addr)
        if existing is not None:
            # Already present — refresh rather than duplicate.
            existing.touch(cycle)
            if dirty:
                existing.write(cycle)
            return existing, None, set_index, way
        set_index = self.set_index_of(addr)
        ways = self._sets[set_index]
        if ways is None:
            ways = self._sets[set_index] = [None] * self.geometry.ways

        eviction: Optional[Eviction] = None
        if preferred_way is not None:
            target = preferred_way
        else:
            # First empty way the policy allows; with none empty, every
            # allowed way is occupied and they are the victim candidates.
            allowed = self.policy.allowed_ways(thread, self.geometry.ways)
            for target in allowed:
                if ways[target] is None:
                    break
            else:
                target = self.policy.choose_victim(set_index, ways, allowed)

        victim = ways[target]
        if victim is not None:
            eviction = Eviction(
                line_addr=victim.line_addr,
                dirty=victim.dirty,
                set_index=set_index,
                way=target,
                was_speculative=victim.speculative,
            )
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
            del self._where[victim.line_addr]

        state = CoherenceState.MODIFIED if dirty else CoherenceState.EXCLUSIVE
        new_line = CacheLine(
            line_addr=line_addr,
            state=state,
            dirty=dirty,
            speculative=speculative,
            epoch=epoch,
            installed_at=cycle,
            last_access=cycle,
        )
        ways[target] = new_line
        self._where[line_addr] = (set_index, target)
        self.stats.installs += 1
        if speculative:
            self.stats.spec_installs += 1
        return new_line, eviction, set_index, target

    # -- removal -----------------------------------------------------------------

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Remove the line for ``addr``; return it (pre-invalidation) or None."""
        set_index, way, line = self._find(addr)
        if line is None:
            return None
        self._sets[set_index][way] = None
        del self._where[line.line_addr]
        self.stats.invalidations += 1
        return line

    def way_of(self, addr: int) -> Optional[int]:
        """Way currently holding ``addr``'s line, if resident."""
        _, way, _ = self._find(addr)
        return way

    def flush(self, addr: int) -> Optional[CacheLine]:
        """clflush semantics at this level: invalidate, report the line."""
        line = self.invalidate(addr)
        if line is not None:
            self.stats.flushes += 1
        return line

    # -- maintenance ---------------------------------------------------------------

    def commit_epoch(self, epoch: int, line_addrs: Iterable[int]) -> int:
        """Clear the speculative marks ``epoch`` left on ``line_addrs``; count them.

        ``line_addrs`` is the epoch's install footprint at this level (the
        ``line_addr`` of each of its :class:`~repro.cache.spec_tracker.SpecInstall`
        records). Only a speculative install stamps a line with an epoch,
        and every such install is recorded, so the footprint covers every
        line the window marked: a line since evicted, re-installed by
        another epoch or already cleared (a duplicate address) is skipped.
        """
        cleared = 0
        where = self._where
        sets = self._sets
        for line_addr in line_addrs:
            loc = where.get(line_addr)
            if loc is None:
                continue
            line = sets[loc[0]][loc[1]]
            if not line.speculative or line.epoch != epoch:
                continue
            line.commit()
            cleared += 1
        return cleared

    def speculative_lines(self, epoch: Optional[int] = None) -> List[CacheLine]:
        """All speculative lines (optionally of one epoch)."""
        out = []
        for ways in self._sets:
            if ways is None:
                continue
            for line in ways:
                if line is not None and line.speculative:
                    if epoch is None or line.epoch == epoch:
                        out.append(line)
        return out

    def resident_lines(self) -> List[CacheLine]:
        """Resident lines in set-index order, ways in way order."""
        return [l for ways in self._sets if ways is not None for l in ways if l is not None]

    def set_occupancy(self, set_index: int) -> int:
        """Number of lines currently resident in ``set_index``."""
        ways = self._sets[set_index]
        if ways is None:
            return 0
        return sum(1 for l in ways if l is not None)

    def clear(self) -> None:
        """Empty the cache: every set returns to unallocated, in place."""
        self._sets[:] = [None] * len(self._sets)
        self._where.clear()

    # -- observability -------------------------------------------------------

    def register_stats(self, registry, prefix: str) -> None:
        """Publish this level's counters under ``prefix`` (e.g. ``l1d``).

        Pull-based: the registry reads ``self.stats`` at dump time, so the
        lookup/install hot paths pay nothing.  Several caches registering
        under the same prefix (one per hierarchy in a campaign) aggregate.
        """
        st = self.stats
        pulls = (
            ("hits", "demand hits at this level", lambda: st.hits),
            ("misses", "demand misses at this level", lambda: st.misses),
            ("installs", "lines installed", lambda: st.installs),
            ("spec_installs", "speculatively installed lines", lambda: st.spec_installs),
            ("evictions", "victims evicted by installs", lambda: st.evictions),
            ("dirty_evictions", "dirty victims written back", lambda: st.dirty_evictions),
            ("invalidations", "lines invalidated (incl. rollback)", lambda: st.invalidations),
            ("restorations", "rollback-restored victims", lambda: st.restorations),
            ("flushes", "clflush invalidations", lambda: st.flushes),
        )
        for name, desc, fn in pulls:
            registry.gauge(f"{prefix}.{name}", desc).add_source(fn)
        hits = registry.gauge(f"{prefix}.hits")
        misses = registry.gauge(f"{prefix}.misses")
        registry.formula(
            f"{prefix}.miss_rate",
            lambda h=hits, m=misses: m.value() / max(1, h.value() + m.value()),
            desc="misses / accesses at this level",
        )
