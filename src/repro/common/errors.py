"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is internally inconsistent.

    Raised eagerly at construction time (e.g. a cache whose size is not
    ``line_size * ways * sets``) rather than later during simulation.
    """


class LocatedError(ReproError):
    """An error that can point at one instruction of one program.

    Carries optional structured location info (``program`` name, ``pc``
    instruction index, ``instruction`` text) so tooling — the specct
    analyzer, the assembler, test output — can point at the offending
    instruction.  When location info is present the message is prefixed
    ``program:pc: ...``.
    """

    def __init__(
        self,
        message: str,
        *,
        program: "str | None" = None,
        pc: "int | None" = None,
        instruction: "str | None" = None,
    ) -> None:
        #: The message without its location prefix and instruction suffix.
        self.reason = message
        self.program = program
        self.pc = pc
        self.instruction = instruction
        location = ""
        if program is not None:
            location = program if pc is None else f"{program}:{pc}"
        elif pc is not None:
            location = f"pc {pc}"
        if location:
            message = f"{location}: {message}"
        if instruction:
            message = f"{message} [{instruction}]"
        super().__init__(message)


class IsaError(LocatedError):
    """An instruction or program is malformed."""


class AssemblerError(IsaError):
    """Textual assembly could not be parsed."""


class SimulationError(LocatedError):
    """The simulator reached an invalid state.

    This always indicates a bug in either the simulated program (e.g. a load
    from an unmapped address) or the simulator itself; it is never part of
    normal control flow. Faults of a running program (a pc out of range,
    an exhausted instruction budget) carry its location.
    """


class MemoryError_(SimulationError):
    """An access touched an address outside the simulated memory map."""


class MshrFullError(SimulationError):
    """An allocation was attempted on a full MSHR file.

    The core is expected to check :meth:`MshrFile.can_allocate` and stall
    instead of triggering this.
    """


class AttackError(ReproError):
    """An attack primitive could not be constructed or executed."""


class EvictionSetError(AttackError):
    """No eviction set could be constructed for the requested target."""


class CalibrationError(AttackError):
    """Threshold calibration failed (e.g. indistinguishable distributions)."""


class ExperimentError(ReproError):
    """An experiment was misconfigured or produced inconsistent output."""


class AnalysisError(ReproError):
    """A static or statistical analysis was misconfigured."""
