"""Architectural register file of the toy ISA.

The ISA has 32 general-purpose 64-bit integer registers, ``r0`` … ``r31``.
``r0`` is an ordinary register (not hard-wired to zero). Register names are
validated eagerly so that malformed programs fail at construction, not
mid-simulation.
"""

from __future__ import annotations

import re

from ..common.errors import IsaError

NUM_REGISTERS = 32

#: 64-bit wraparound mask applied to every architectural value.
WORD_MASK = (1 << 64) - 1


def reg(index: int) -> str:
    """Return the canonical name of register ``index`` (e.g. ``reg(3) == 'r3'``)."""
    if not 0 <= index < NUM_REGISTERS:
        raise IsaError(f"register index out of range: {index}")
    return f"r{index}"


#: The canonical register names: ``r`` and a decimal index in ASCII digits,
#: without sign, separators or leading zeros. The core keys its register
#: dict by the name, so an alias such as ``r03`` would be a register apart.
_REGISTER_NAMES = frozenset(f"r{i}" for i in range(NUM_REGISTERS))

#: A canonical-looking name whose index is too large.
_OUT_OF_RANGE_RE = re.compile(r"r[1-9][0-9]+")


def validate_register(name: str) -> str:
    """Check that ``name`` is a canonical register name and return it."""
    if isinstance(name, str):
        if name in _REGISTER_NAMES:
            return name
        if _OUT_OF_RANGE_RE.fullmatch(name):
            raise IsaError(f"register index out of range: {name!r}")
    raise IsaError(f"invalid register name: {name!r}")


class RegisterFile:
    """Mutable map from register name to 64-bit value.

    Reads of never-written registers return 0, matching the convention that
    simulated programs start from a zeroed context.
    """

    def __init__(self) -> None:
        self._values: dict = {}

    @property
    def raw(self) -> dict:
        """The underlying name→value dict, for pre-validated hot paths.

        The core's dispatch loop only ever reads/writes register names that
        were validated when the instruction was constructed, so it skips
        :func:`validate_register` and uses this dict directly (reads via
        ``raw.get(name, 0)``, writes must mask with :data:`WORD_MASK`).
        """
        return self._values

    def read(self, name: str) -> int:
        validate_register(name)
        return self._values.get(name, 0)

    def write(self, name: str, value: int) -> None:
        validate_register(name)
        self._values[name] = value & WORD_MASK

    def snapshot(self) -> dict:
        """Copy of the current architectural state (for speculation)."""
        return dict(self._values)

    def restore(self, snapshot: dict) -> None:
        """Replace the architectural state with ``snapshot``."""
        self._values = dict(snapshot)

    def copy(self) -> "RegisterFile":
        clone = RegisterFile()
        clone._values = dict(self._values)
        return clone
