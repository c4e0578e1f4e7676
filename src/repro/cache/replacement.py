"""Replacement policies.

CleanupSpec's protected L1 uses **random replacement** (to close
replacement-state side channels such as LRU attacks) and a **NoMo-style way
partition** (to stop an SMT sibling from building same-core Prime+Probe).
We implement:

* :class:`RandomReplacement` — uniform choice among candidate ways,
* :class:`LruReplacement` — classic least-recently-used (the unsafe
  baseline's policy, and what replacement-state attacks exploit),
* :class:`NoMoPartition` — a wrapper that restricts victim selection to the
  ways owned by the accessing thread.

A policy selects a victim way among ``candidates`` (way indices whose lines
are valid; invalid ways are always preferred by the cache before asking the
policy).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Sequence

import numpy as np

from ..common.errors import ConfigError
from .line import CacheLine


class ReplacementPolicy(Protocol):
    """Strategy interface for victim selection."""

    def choose_victim(
        self,
        set_index: int,
        lines: Sequence[Optional[CacheLine]],
        candidates: Sequence[int],
    ) -> int:
        """Pick the way to evict among ``candidates`` (non-empty)."""
        ...

    def allowed_ways(self, thread: int, ways: int) -> List[int]:
        """Ways thread ``thread`` may allocate into (partitioning hook)."""
        ...


class RandomReplacement:
    """Uniformly random victim choice (CleanupSpec's protected-L1 policy).

    ``rng_factory`` builds the policy's generator, once, at the first
    victim choice: a machine that never evicts never pays for its stream.
    Pass a :func:`functools.partial` (e.g. of
    :func:`~repro.common.rng.derive_rng`) so the policy stays deep-copyable.
    """

    def __init__(self, rng_factory: Callable[[], np.random.Generator]) -> None:
        self._rng_factory = rng_factory
        #: The generator; None until the first :meth:`choose_victim`.
        self._rng: Optional[np.random.Generator] = None

    def choose_victim(
        self,
        set_index: int,
        lines: Sequence[Optional[CacheLine]],
        candidates: Sequence[int],
    ) -> int:
        if not candidates:
            raise ValueError("no candidate ways to evict")
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rng_factory()
        return int(candidates[rng.integers(len(candidates))])

    def allowed_ways(self, thread: int, ways: int) -> List[int]:
        return list(range(ways))


class LruReplacement:
    """Least-recently-used victim choice (baseline policy)."""

    def choose_victim(
        self,
        set_index: int,
        lines: Sequence[Optional[CacheLine]],
        candidates: Sequence[int],
    ) -> int:
        if not candidates:
            raise ValueError("no candidate ways to evict")
        return min(
            candidates,
            key=lambda way: (lines[way].last_access, way),  # type: ignore[union-attr]
        )

    def allowed_ways(self, thread: int, ways: int) -> List[int]:
        return list(range(ways))


class NoMoPartition:
    """NoMo-style static way partition wrapped around an inner policy.

    With ``threads`` hardware threads and ``W`` ways, thread ``t`` owns the
    contiguous way range ``[t*W/threads, (t+1)*W/threads)``. Victim selection
    is restricted to the accessor's ways; hits in any way still count (NoMo
    partitions allocation, not lookup).
    """

    def __init__(self, inner: ReplacementPolicy, threads: int = 2) -> None:
        if threads < 1:
            raise ConfigError("NoMo needs at least one thread")
        self.inner = inner
        self.threads = threads

    def allowed_ways(self, thread: int, ways: int) -> List[int]:
        if not 0 <= thread < self.threads:
            raise ConfigError(f"thread {thread} out of range (< {self.threads})")
        if ways % self.threads != 0:
            raise ConfigError(
                f"{ways} ways do not partition evenly over {self.threads} threads"
            )
        per = ways // self.threads
        return list(range(thread * per, (thread + 1) * per))

    def choose_victim(
        self,
        set_index: int,
        lines: Sequence[Optional[CacheLine]],
        candidates: Sequence[int],
    ) -> int:
        return self.inner.choose_victim(set_index, lines, candidates)
