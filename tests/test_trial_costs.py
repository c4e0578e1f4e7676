"""A matrix trial pays only for the instructions it simulates.

Driven by the registries (``SCENARIOS``, ``defense_keys()``), so a new
attack or defense is covered the day it is registered:

* attack programs are pure functions of their frozen inputs, built once
  per process: a second scenario with the same inputs reuses the first
  one's :class:`~repro.isa.program.Program` objects (and so their decoded
  tables) with the right bounds-check branch PC, and builds or decodes
  nothing; different params give different programs;
* a machine builds only the random streams it draws from, and a stream
  built lazily draws exactly what ``derive_rng(seed, tag)`` draws;
* a deep copy of a machine whose streams were never built behaves like
  the original.
"""

from __future__ import annotations

import copy
import hashlib
from functools import partial

import pytest

import repro.common.rng as rng_module
from repro.attack.gadgets import RewindParams
from repro.attack.interference import InterferenceHarness, InterferenceParams
from repro.attack.layout import DEFAULT_LAYOUT, DEFAULT_REGS
from repro.attack.rewind import RewindAttack
from repro.attack.spectre import SpectreV1Attack
from repro.cache.hierarchy import CacheHierarchy, ceaser_key
from repro.cache.line import CacheLine
from repro.cache.replacement import RandomReplacement
from repro.common.rng import derive_rng
from repro.cpu.core import Core
from repro.cpu.noise import NoiseStream, campaign_noise
from repro.defense.base import defense_keys, make_defense
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Branch
from repro.isa.program import Program
from repro.matrix.scenarios import SCENARIOS, make_scenario
from repro.memory.dram import Dram
from tests.differential.harness import machine_fingerprint


def _unxpec_programs(scenario):
    attack = scenario.attack
    return (attack.gadget.build_setup(), attack._round_program), attack.gadget.bounds_branch_pc


def _spectre_programs(scenario):
    return (scenario.attack._round,), None


def _rewind_programs(scenario):
    attack = scenario.attack
    return (attack.gadget.build_setup(), attack._round_program), attack.gadget.bounds_branch_pc


def _interference_programs(scenario):
    harness = scenario.harness
    setup = harness._build_victim_setup(harness.layout, harness.regs)
    return (setup, harness._victim_round, harness._probe), harness.bounds_branch_pc


#: Scenario key -> (programs a run of it uses, bounds-check branch PC or None).
PROGRAMS_OF = {
    "unxpec": _unxpec_programs,
    "spectre": _spectre_programs,
    "rewind": _rewind_programs,
    "interference": _interference_programs,
}

#: Scenario key -> the round program built from params other than the
#: scenario's defaults.
OTHER_PARAMS_ROUND = {
    "unxpec": lambda: make_scenario_with("unxpec", n_loads=2).attack.gadget.build_round(),
    "spectre": lambda: make_scenario_with("spectre", alphabet=8).attack.build_round(),
    "rewind": lambda: RewindAttack(params=RewindParams(div_chain=3)).gadget.build_round(),
    "interference": lambda: InterferenceHarness._build_victim_round(
        InterferenceParams(n_loads=2), DEFAULT_LAYOUT, DEFAULT_REGS
    )[0],
}

#: Scenario key -> SHA-256 of each of its programs' listings, in
#: ``PROGRAMS_OF`` order: building a program once per process must not
#: change what it contains.
LISTING_SHA256 = {
    "unxpec": (
        "21481967027f3d915c175e946d21aa2048b13acff38784ade1f698ac318b53c8",
        "3c45de571a0bb870b03218a93b6072dcac0dbd3b5a69b61c0da7a47e82144cd0",
    ),
    "spectre": ("3183a6747c85748121e97c120cf619ee9c30e352b97bc506993c2d9bf40cc982",),
    "rewind": (
        "fad9d9317442bff0eea3b409fce51c15d831d7fd7185ea92fd2240600d7f51ce",
        "9eda8efbb7e15038bfab325ae92d18d350ea58d669df84d8aa0e650f7833a0fa",
    ),
    "interference": (
        "a0a1ef8e15601c31a4661377827ac35a200a48a1c1b472ba5142afb6ed6749e1",
        "7abbab29b0b0d2682f4e164bb968e54956463c2708f08c4bee4498a175534898",
        "1f0cbcd3c27aac937fa2a4d24957c44f08cbaec55bb28f41759ecdb0f587b702",
    ),
}


def make_scenario_with(key: str, **params):
    return SCENARIOS[key]("cleanupspec", seed=0, **params)


def test_every_scenario_is_covered():
    assert set(PROGRAMS_OF) == set(SCENARIOS) == set(OTHER_PARAMS_ROUND) == set(LISTING_SHA256)


@pytest.fixture
def build_calls(monkeypatch):
    """Counts of ``ProgramBuilder.build`` and ``decode_program`` calls."""
    import repro.isa.decoded as decoded

    calls = {"build": 0, "decode": 0}
    build, decode = ProgramBuilder.build, decoded.decode_program

    def counting_build(self):
        calls["build"] += 1
        return build(self)

    def counting_decode(program):
        calls["decode"] += 1
        return decode(program)

    monkeypatch.setattr(ProgramBuilder, "build", counting_build)
    monkeypatch.setattr(decoded, "decode_program", counting_decode)
    return calls


@pytest.mark.parametrize("key", sorted(SCENARIOS))
class TestSharedPrograms:
    def test_second_scenario_reuses_programs(self, key, build_calls):
        first = make_scenario(key, "cleanupspec", seed=0)
        first.run_trials(2)
        build_calls.update(build=0, decode=0)
        second = make_scenario(key, "cleanupspec", seed=1)
        second.run_trials(2)  # fails if the branch PC misses the attack squash
        assert build_calls == {"build": 0, "decode": 0}
        programs, pc = PROGRAMS_OF[key](first)
        again, pc_again = PROGRAMS_OF[key](second)
        assert all(isinstance(p, Program) for p in programs)
        assert all(a is b for a, b in zip(programs, again))
        assert pc_again == pc
        if pc is not None:
            round_program = programs[1]
            # The bounds check: ``bge index, bound`` skips the sender body.
            assert isinstance(round_program[pc], Branch)
            assert round_program[pc].cond == "ge"

    def test_programs_match_their_golden_listings(self, key):
        scenario = make_scenario(key, "cleanupspec", seed=0)
        scenario.run_trials(1)
        programs, _ = PROGRAMS_OF[key](scenario)
        digests = tuple(hashlib.sha256(p.listing().encode()).hexdigest() for p in programs)
        assert digests == LISTING_SHA256[key]

    def test_different_params_give_different_programs(self, key):
        scenario = make_scenario(key, "cleanupspec", seed=0)
        scenario.run_trials(1)
        programs, _ = PROGRAMS_OF[key](scenario)
        other = OTHER_PARAMS_ROUND[key]()
        assert all(other is not p for p in programs)
        assert all(other.listing() != p.listing() for p in programs)


def test_spectre_writes_its_image_once_per_machine(monkeypatch):
    attack = SpectreV1Attack()
    dram = attack.hierarchy.dram
    images = []

    def counting_poke_image(words):
        images.append(words)
        Dram.poke_image(dram, words)

    monkeypatch.setattr(dram, "poke_image", counting_poke_image)
    for secret in (3, 9, 5):
        attack.run_measured(secret)
    assert len(images) == 1
    assert dram.image() == attack.memory_image(5)


class _GeneratorLog:
    """Every generator ``make_rng`` builds, with its state at birth."""

    def __init__(self) -> None:
        self.born = []

    def __call__(self, seed):
        rng = self.make_rng(seed)
        self.born.append((rng, rng.bit_generator.state))
        return rng

    def undrawn(self) -> int:
        return sum(1 for rng, state in self.born if rng.bit_generator.state == state)


@pytest.fixture
def generator_log(monkeypatch):
    log = _GeneratorLog()
    log.make_rng = rng_module.make_rng
    monkeypatch.setattr(rng_module, "make_rng", log)
    return log


@pytest.mark.parametrize("defense", defense_keys())
def test_noise_free_trial_pair_builds_only_drawn_generators(defense, generator_log):
    for attack in sorted(SCENARIOS):
        # A seed no other test uses, so the CEASER key memo misses too.
        make_scenario(attack, defense, seed=987_654).run_trials(3)
    assert generator_log.undrawn() == 0


class TestLazyStreams:
    def test_replacement_draws_match_derive_rng(self):
        policy = RandomReplacement(partial(derive_rng, 5, "l1-replacement"))
        assert policy._rng is None
        lines = [CacheLine(line_addr=64 * i) for i in range(8)]
        candidates = list(range(8))
        got = [policy.choose_victim(0, lines, candidates) for _ in range(50)]
        reference = derive_rng(5, "l1-replacement")
        assert got == [int(candidates[reference.integers(8)]) for _ in range(50)]

    def test_core_noise_draws_match_an_eager_stream(self):
        program = _mispredict_program()
        lazy, eager = _noisy_core(3), _noisy_core(3)
        assert lazy._noise_stream is None
        eager_rng = derive_rng(3, "core-noise")
        eager._noise_stream = NoiseStream(eager.noise, lambda: eager_rng)
        for _ in range(20):
            a, b = lazy.run(program), eager.run(program)
            assert (a.cycles, a.noise_event_cycles) == (b.cycles, b.noise_event_cycles)
        assert (
            lazy.noise_generator().bit_generator.state
            == eager.noise_generator().bit_generator.state
        )

    def test_noise_generator_hands_out_a_copy(self):
        # Draws from the handed-out generator, an integers draw included
        # (it would use up PCG64's buffered half), leave the core's noise as
        # it was: the core keeps drawing what a twin never asked draws.
        program = _mispredict_program()
        core, twin = _noisy_core(4), _noisy_core(4)
        core.noise_generator().random()
        assert core._noise_stream is None
        for _ in range(10):
            core.run(program), twin.run(program)
            drawn = core.noise_generator()
            drawn.integers(80, 251, size=3)
            drawn.normal(0, 11.0)
            a, b = core.run(program), twin.run(program)
            assert (a.cycles, a.noise_event_cycles) == (b.cycles, b.noise_event_cycles)
        assert (
            core.noise_generator().bit_generator.state
            == twin.noise_generator().bit_generator.state
        )

    def test_noise_free_core_never_builds_its_stream(self):
        hierarchy = CacheHierarchy(seed=0)
        core = Core(hierarchy, make_defense("cleanupspec", hierarchy))
        core.run(_mispredict_program())
        assert core._noise_stream is None

    def test_ceaser_key_is_the_seeded_draw(self):
        for seed in (0, 1, 12345):
            expected = int(derive_rng(seed, "ceaser-key").integers(1 << 62))
            assert ceaser_key(seed) == expected
            assert CacheHierarchy(seed=seed).l2.randomizer.key == expected

    def test_deep_copy_with_unbuilt_streams_behaves_the_same(self):
        core = _noisy_core(9)
        clone = copy.deepcopy(core)
        assert core._noise_stream is None and clone._noise_stream is None
        # Enough conflicting lines to make the L1 replacement policy draw.
        addrs = [j * 4096 + 64 for j in range(48)]
        for machine in (core, clone):
            for cycle, addr in enumerate(addrs):
                machine.hierarchy.access(addr, cycle)
        program = _mispredict_program()
        for _ in range(5):
            a, b = core.run(program), clone.run(program)
            assert (a.cycles, a.noise_event_cycles) == (b.cycles, b.noise_event_cycles)
        assert machine_fingerprint(core) == machine_fingerprint(clone)
        assert core.hierarchy.l1.policy.inner._rng is not None


def _noisy_core(seed: int) -> Core:
    hierarchy = CacheHierarchy(seed=seed)
    defense = make_defense("cleanupspec", hierarchy)
    return Core(hierarchy, defense, noise=campaign_noise(), noise_seed=seed)


def _mispredict_program() -> Program:
    """A loop whose exit mispredicts (one squash per run) around loads that
    reach memory on the first run."""
    b = ProgramBuilder("lazy-streams")
    b.li("r1", 0)
    b.li("r2", 9)
    b.li("r5", 0x4000)
    b.label("top")
    b.load("r3", "r5", 0)
    b.branch("ge", "r1", "r2", "done")
    b.load("r4", "r5", 4096)
    b.addi("r1", "r1", 1)
    b.branch("lt", "r1", "r2", "top")
    b.label("done")
    b.halt()
    return b.build()
