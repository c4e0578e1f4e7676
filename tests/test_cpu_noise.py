"""Tests for repro.cpu.noise."""

import copy
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.cpu.noise import NoiseModel, NoiseStream, campaign_noise


class ScalarNoise:
    """The documented draw order, one scalar draw at a time: one ``random()``
    per instruction, ``integers`` on an event, ``normal`` per jitter."""

    def __init__(self, model: NoiseModel, rng: np.random.Generator) -> None:
        self.model = model
        self.rng = rng

    def tick(self) -> int:
        m = self.model
        if m.event_prob <= 0 or self.rng.random() >= m.event_prob:
            return 0
        return int(self.rng.integers(m.event_min_cycles, m.event_max_cycles + 1))

    def jitter(self) -> int:
        m = self.model
        if m.mem_jitter_std <= 0:
            return 0
        return max(m.mem_jitter_floor, int(round(self.rng.normal(0, m.mem_jitter_std))))


class Reader:
    """Reads a :class:`NoiseStream` the way ``Core.run`` does."""

    def __init__(self, stream: NoiseStream) -> None:
        self.stream = stream
        self.ticks = stream.model.event_prob > 0
        self.left = stream.left

    def tick(self) -> int:
        if not self.ticks:
            return 0
        if self.left:
            self.left -= 1
            return 0
        event, self.left = self.stream.tick()
        return event

    def jitter(self) -> int:
        self.stream.left = self.left
        value = self.stream.model.mem_jitter(self.stream)
        self.left = self.stream.left
        return value

    def park(self) -> NoiseStream:
        """Hand the countdown back, as a run does at its end."""
        self.stream.left = self.left
        return self.stream


def _stream(model: NoiseModel, seed: int) -> NoiseStream:
    return NoiseStream(model, partial(make_rng, seed))


def _logical_state(rng: np.random.Generator) -> dict:
    """The generator state every future draw depends on: PCG64 keeps a
    consumed 32-bit half in ``uinteger`` (``advance`` zeroes it), but reads
    it only while ``has_uint32`` is set."""
    state = rng.bit_generator.state
    if not state["has_uint32"]:
        state["uinteger"] = 0
    return state


class TestNoiseModel:
    def test_disabled_by_default(self):
        n = NoiseModel()
        assert not n.enabled
        # A disabled jitter never touches its stream.
        assert n.mem_jitter(None) == 0

    def test_jitter_floor(self):
        reader = Reader(_stream(NoiseModel(mem_jitter_std=50.0, mem_jitter_floor=-10), 0))
        assert min(reader.jitter() for _ in range(500)) >= -10

    def test_jitter_zero_mean_ish(self):
        reader = Reader(_stream(NoiseModel(mem_jitter_std=10.0, mem_jitter_floor=-100), 1))
        mean = np.mean([reader.jitter() for _ in range(4000)])
        assert abs(mean) < 1.0

    def test_event_probability(self):
        n = NoiseModel(event_prob=0.1, event_min_cycles=80, event_max_cycles=250)
        reader = Reader(_stream(n, 2))
        events = [reader.tick() for _ in range(5000)]
        hits = [e for e in events if e]
        assert 0.07 < len(hits) / len(events) < 0.13
        assert all(80 <= e <= 250 for e in hits)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(mem_jitter_std=-1)
        with pytest.raises(ValueError):
            NoiseModel(event_prob=1.5)
        with pytest.raises(ValueError):
            NoiseModel(event_min_cycles=10, event_max_cycles=5)

    def test_campaign_noise_enabled(self):
        n = campaign_noise()
        assert n.enabled
        assert n.mem_jitter_std > 0
        assert n.event_prob > 0


#: One step of a reader: ``n`` instructions' ticks, ``n`` jitter draws, or a
#: deep copy of the stream (and the reference) taken between them. A tick run
#: can outlast a whole block; jitters between short tick runs size blocks
#: below the ceiling.
_STEP = st.one_of(
    st.tuples(st.just("tick"), st.integers(1, 150)),
    st.tuples(st.just("jitter"), st.integers(1, 3)),
    st.tuples(st.just("copy"), st.just(0)),
)


class TestNoiseStream:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        event_prob=st.one_of(st.just(0.0), st.floats(1e-4, 0.3)),
        jitter_std=st.one_of(st.just(0.0), st.floats(0.5, 30.0)),
        steps=st.lists(_STEP, max_size=30),
    )
    def test_draws_match_scalar_reference(self, seed, event_prob, jitter_std, steps):
        model = NoiseModel(mem_jitter_std=jitter_std, event_prob=event_prob)
        reader = Reader(_stream(model, seed))
        reference = ScalarNoise(model, make_rng(seed))
        # (stream, reference generator) pairs left untouched by a deep copy.
        parked = []
        for kind, n in steps:
            if kind == "tick":
                assert [reader.tick() for _ in range(n)] == [reference.tick() for _ in range(n)]
            elif kind == "jitter":
                assert [reader.jitter() for _ in range(n)] == [
                    reference.jitter() for _ in range(n)
                ]
            else:
                stream = reader.park()
                parked.append((stream, copy.deepcopy(reference.rng)))
                reader = Reader(copy.deepcopy(stream))
                reference = ScalarNoise(model, copy.deepcopy(reference.rng))
        parked.append((reader.park(), reference.rng))
        for stream, rng in parked:
            assert _logical_state(stream.generator()) == _logical_state(rng)

    def test_buffered_half_survives_a_rewind(self):
        # An event's integers draw leaves half a word buffered; a jitter's
        # rewind drops it from the generator; the next event must use it.
        model = NoiseModel(mem_jitter_std=5.0, event_prob=0.2)
        reader = Reader(_stream(model, 4))
        reference = ScalarNoise(model, make_rng(4))
        seen_half = False
        for _ in range(200):
            assert reader.tick() == reference.tick()
            seen_half |= bool(reference.rng.bit_generator.state["has_uint32"])
            assert reader.jitter() == reference.jitter()
        assert seen_half
        assert _logical_state(reader.park().generator()) == _logical_state(reference.rng)

    def test_no_uniforms_without_events(self):
        # event_prob = 0: the reader never ticks the stream, so only the
        # jitter normals are drawn.
        model = NoiseModel(mem_jitter_std=8.0)
        stream = _stream(model, 6)
        reader = Reader(stream)
        rng = make_rng(6)
        for _ in range(50):
            assert reader.tick() == 0
            assert reader.jitter() == max(-10, int(round(rng.normal(0, 8.0))))
        assert _logical_state(stream.generator()) == _logical_state(rng)

    def test_generator_is_built_by_the_first_draw(self):
        built = []
        stream = NoiseStream(campaign_noise(), lambda: built.append(1) or make_rng(0))
        assert not built
        stream.tick()
        assert built == [1]
