"""Tests for the exception hierarchy — catchability contracts."""

import pytest

from repro.common.errors import (
    AssemblerError,
    AttackError,
    CalibrationError,
    ConfigError,
    EvictionSetError,
    ExperimentError,
    IsaError,
    MemoryError_,
    MshrFullError,
    ReproError,
    SimulationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigError,
            IsaError,
            AssemblerError,
            SimulationError,
            MemoryError_,
            MshrFullError,
            AttackError,
            EvictionSetError,
            CalibrationError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_assembler_is_isa_error(self):
        assert issubclass(AssemblerError, IsaError)

    def test_simulation_family(self):
        assert issubclass(MemoryError_, SimulationError)
        assert issubclass(MshrFullError, SimulationError)

    def test_attack_family(self):
        assert issubclass(EvictionSetError, AttackError)
        assert issubclass(CalibrationError, AttackError)

    def test_repro_error_not_builtin_collision(self):
        # Library failures are catchable without swallowing TypeErrors etc.
        assert not issubclass(ReproError, (TypeError, ValueError))


class TestErrorsSurfaceWhereExpected:
    def test_isa_error_from_bad_register(self):
        from repro.isa import validate_register

        with pytest.raises(IsaError):
            validate_register("r999")

    def test_config_error_from_bad_geometry(self):
        from repro.common.config import CacheGeometry

        with pytest.raises(ConfigError):
            CacheGeometry("bad", 1, ways=1, sets=2)

    def test_simulation_error_from_runaway(self):
        from repro.cache import CacheHierarchy
        from repro.cpu import Core
        from repro.defense import UnsafeBaseline
        from repro.isa import ProgramBuilder

        b = ProgramBuilder("spin")
        b.label("x")
        b.jump("x")
        b.halt()
        h = CacheHierarchy(seed=0)
        with pytest.raises(SimulationError) as info:
            Core(h, UnsafeBaseline(h)).run(b.build(), max_instructions=50)
        err = info.value
        assert (err.program, err.pc) == ("spin", 0)
        assert err.instruction == str(b.build()[0])
        assert str(err).startswith("spin:0: exceeded 50 instructions")

    def test_attack_error_from_bad_params(self):
        from repro.attack import GadgetParams

        with pytest.raises(AttackError):
            GadgetParams(n_loads=99)
