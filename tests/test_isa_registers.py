"""Tests for repro.isa.registers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IsaError
from repro.isa.registers import NUM_REGISTERS, WORD_MASK, RegisterFile, reg, validate_register

CANONICAL = frozenset(f"r{i}" for i in range(NUM_REGISTERS))

#: Spellings of r3 / r10 that ``int(name[1:])`` accepts: a leading zero, a
#: sign, inner whitespace, a digit separator, non-ASCII digits.
NON_CANONICAL = ["r03", "r+3", "r 3", "r1_0", "r\u0663", "r\uff13", "r3 ", " r3", "r00"]


class TestRegNames:
    def test_reg_helper(self):
        assert reg(0) == "r0"
        assert reg(31) == "r31"

    def test_reg_out_of_range(self):
        with pytest.raises(IsaError):
            reg(32)
        with pytest.raises(IsaError):
            reg(-1)

    def test_validate_accepts_all(self):
        for i in range(NUM_REGISTERS):
            assert validate_register(f"r{i}") == f"r{i}"

    @pytest.mark.parametrize("bad", ["x1", "r", "r32", "r-1", "1r", "", "rr3"])
    def test_validate_rejects(self, bad):
        with pytest.raises(IsaError):
            validate_register(bad)

    @pytest.mark.parametrize("alias", NON_CANONICAL)
    def test_validate_rejects_aliases(self, alias):
        # int() reads each of these as a valid index; the core would key a
        # register apart from the canonical one.
        with pytest.raises(IsaError, match="invalid register name"):
            validate_register(alias)

    @given(st.text(max_size=6))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_only_canonical_names_validate(self, name):
        try:
            validate_register(name)
        except IsaError:
            assert name not in CANONICAL
        else:
            assert name in CANONICAL


class TestRegisterFile:
    def test_default_zero(self):
        rf = RegisterFile()
        assert rf.read("r5") == 0

    def test_write_read(self):
        rf = RegisterFile()
        rf.write("r3", 42)
        assert rf.read("r3") == 42

    def test_64bit_wraparound(self):
        rf = RegisterFile()
        rf.write("r1", (1 << 64) + 5)
        assert rf.read("r1") == 5
        rf.write("r2", -1)
        assert rf.read("r2") == WORD_MASK

    def test_snapshot_restore(self):
        rf = RegisterFile()
        rf.write("r1", 10)
        snap = rf.snapshot()
        rf.write("r1", 20)
        rf.restore(snap)
        assert rf.read("r1") == 10

    def test_copy_is_independent(self):
        rf = RegisterFile()
        rf.write("r1", 1)
        clone = rf.copy()
        clone.write("r1", 2)
        assert rf.read("r1") == 1

    def test_invalid_name_on_access(self):
        rf = RegisterFile()
        with pytest.raises(IsaError):
            rf.read("r99")
        with pytest.raises(IsaError):
            rf.write("bogus", 1)
