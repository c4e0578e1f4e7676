"""Tests for repro.cache.replacement — Random, LRU, NoMo partition."""

from functools import partial

import pytest

from repro.cache.line import CacheLine
from repro.cache.replacement import LruReplacement, NoMoPartition, RandomReplacement
from repro.common.errors import ConfigError
from repro.common.rng import make_rng


def lines(n, base_cycle=0):
    return [CacheLine(line_addr=i * 64, last_access=base_cycle + i) for i in range(n)]


class TestRandomReplacement:
    def test_picks_from_candidates(self):
        policy = RandomReplacement(partial(make_rng, 0))
        ways = lines(8)
        for _ in range(50):
            victim = policy.choose_victim(0, ways, [2, 5, 7])
            assert victim in (2, 5, 7)

    def test_uniform_ish(self):
        policy = RandomReplacement(partial(make_rng, 1))
        ways = lines(4)
        counts = {i: 0 for i in range(4)}
        for _ in range(4000):
            counts[policy.choose_victim(0, ways, [0, 1, 2, 3])] += 1
        for c in counts.values():
            assert 800 < c < 1200  # each ~1000

    def test_empty_candidates_rejected(self):
        policy = RandomReplacement(partial(make_rng, 0))
        with pytest.raises(ValueError):
            policy.choose_victim(0, lines(4), [])

    def test_allowed_ways_all(self):
        policy = RandomReplacement(partial(make_rng, 0))
        assert policy.allowed_ways(0, 8) == list(range(8))


class TestLruReplacement:
    def test_picks_least_recent(self):
        policy = LruReplacement()
        ways = lines(4)
        ways[2].last_access = -5
        assert policy.choose_victim(0, ways, [0, 1, 2, 3]) == 2

    def test_tie_broken_by_way(self):
        policy = LruReplacement()
        ways = [CacheLine(line_addr=i * 64, last_access=0) for i in range(4)]
        assert policy.choose_victim(0, ways, [1, 3]) == 1


class TestNoMoPartition:
    def test_partition_two_threads(self):
        policy = NoMoPartition(RandomReplacement(partial(make_rng, 0)), threads=2)
        assert policy.allowed_ways(0, 8) == [0, 1, 2, 3]
        assert policy.allowed_ways(1, 8) == [4, 5, 6, 7]

    def test_uneven_partition_rejected(self):
        policy = NoMoPartition(RandomReplacement(partial(make_rng, 0)), threads=3)
        with pytest.raises(ConfigError):
            policy.allowed_ways(0, 8)

    def test_thread_out_of_range(self):
        policy = NoMoPartition(RandomReplacement(partial(make_rng, 0)), threads=2)
        with pytest.raises(ConfigError):
            policy.allowed_ways(2, 8)

    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigError):
            NoMoPartition(RandomReplacement(partial(make_rng, 0)), threads=0)

    def test_victim_choice_delegates(self):
        policy = NoMoPartition(RandomReplacement(partial(make_rng, 0)), threads=2)
        ways = lines(8)
        victim = policy.choose_victim(0, ways, [0, 1])
        assert victim in (0, 1)
