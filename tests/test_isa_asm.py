"""Tests for repro.isa.asm — assembler/disassembler, incl. round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AssemblerError, IsaError
from repro.isa.asm import assemble, disassemble
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Branch, Flush, IntOpImm, Load, LoadImm, Store
from repro.isa.program import Program

SAMPLE = """
# a small program
start:
  li    r1, 0x1000
  ld    r2, 8(r1)
  addi  r3, r2, 1
  add   r3, r3, r2
  blt   r2, r3, start
  st    r3, 0(r1)
  clflush 0(r1)
  mfence
  rdtscp r5
  j     end
end:
  halt
"""


#: Tokens the fuzz property strings together: mnemonics, good and bad
#: operands, labels, separators and line breaks.
FUZZ_TOKENS = [
    "li", "ld", "st", "add", "addi", "div", "blt", "bge", "j", "halt", "nop",
    "mfence", "rdtscp", "clflush", "r1", "r2", "r31", "r32", "rx", "x", ",",
    "8(r1)", "-8(r2)", "(r1)", "0x10", "12", "foo", "foo:", ":", "#", "\n",
    "r03", "r+3", "r1_0", "r\u0663", "8(r03)",
    "\n", "lbl:", "j lbl", "9" * 5000 + "(r1)",
]


CANONICAL_REGISTERS = frozenset(f"r{i}" for i in range(32))

#: Spellings of r3 / r10 that ``int(name[1:])`` reads as valid indices.
REGISTER_ALIASES = ["r03", "r+3", "r 3", "r1_0", "r\u0663"]

#: Instruction fields that hold register names.
_REGISTER_FIELDS = ("dst", "src", "src1", "src2", "base")


def _registers_of(program: Program) -> set:
    return {
        getattr(inst, field)
        for inst in program
        for field in _REGISTER_FIELDS
        if isinstance(getattr(inst, field, None), str)
    }


class TestAssemble:
    def test_sample_program(self):
        p = assemble(SAMPLE, name="sample")
        assert p.resolve("start") == 0
        assert isinstance(p[0], LoadImm)
        assert p[0].imm == 0x1000
        assert isinstance(p[1], Load)
        assert p[1].offset == 8
        assert isinstance(p[2], IntOpImm)
        assert isinstance(p[4], Branch)
        assert isinstance(p[5], Store)
        assert isinstance(p[6], Flush)

    def test_comments_and_blank_lines_ignored(self):
        p = assemble("# only comments\n\nhalt\n")
        assert len(p) == 1

    def test_negative_offset(self):
        p = assemble("li r1, 100\nld r2, -8(r1)\nhalt")
        assert p[1].offset == -8

    def test_hex_immediates(self):
        p = assemble("li r1, 0xFF\nhalt")
        assert p[0].imm == 255

    @pytest.mark.parametrize(
        "bad",
        [
            "frobnicate r1, r2\nhalt",
            "li r1\nhalt",
            "ld r1, r2\nhalt",
            "li r1, notanumber\nhalt",
            "1label: halt",
            "blt r1, r2\nhalt",
        ],
    )
    def test_bad_syntax_rejected(self, bad):
        with pytest.raises(AssemblerError):
            assemble(bad)

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("x:\nnop\nx:\nhalt")

    def test_missing_halt_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("nop")

    def test_undefined_target_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("j nowhere\nhalt")

    def test_label_on_same_line(self):
        p = assemble("start: nop\nhalt")
        assert p.resolve("start") == 0


class TestAssemblerErrors:
    """Every failure is an AssemblerError that says where it is."""

    def test_error_names_program_line_and_source(self):
        with pytest.raises(AssemblerError) as info:
            assemble("nop\n  frob r1  # bad\nhalt", name="demo")
        err = info.value
        assert err.program == "demo"
        assert err.instruction == "frob r1  # bad"
        assert str(err).startswith("demo: line 2: unknown mnemonic")

    def test_bad_register_is_an_assembler_error(self):
        with pytest.raises(AssemblerError) as info:
            assemble("li r1, 1\nadd r2, r1, r99\nhalt", name="demo")
        assert info.value.program == "demo"
        assert "line 2: register index out of range" in str(info.value)

    @pytest.mark.parametrize("alias", REGISTER_ALIASES)
    def test_non_canonical_register_is_an_assembler_error(self, alias):
        # Each once ran as a register apart from r3/r10: r4 read as 0.
        text = f"li r3, 7\nadd r4, {alias}, {alias}\nhalt"
        with pytest.raises(AssemblerError) as info:
            assemble(text, name="demo")
        err = info.value
        assert (err.program, err.instruction) == ("demo", f"add r4, {alias}, {alias}")
        assert f"line 2: invalid register name: {alias!r}" in str(err)

    @pytest.mark.parametrize("alias", REGISTER_ALIASES)
    def test_non_canonical_register_in_a_memory_operand(self, alias):
        with pytest.raises(AssemblerError, match="line 1: "):
            assemble(f"ld r1, 8({alias})\nhalt")

    @pytest.mark.parametrize("alias", REGISTER_ALIASES)
    def test_non_canonical_register_is_a_located_builder_error(self, alias):
        b = ProgramBuilder("demo").li("r3", 7)
        with pytest.raises(IsaError) as info:
            b.add("r4", alias, alias)
        assert (info.value.program, info.value.pc) == ("demo", 1)
        assert f"invalid register name: {alias!r}" in str(info.value)

    def test_oversized_offset_is_an_assembler_error(self):
        with pytest.raises(AssemblerError, match="line 1: invalid offset"):
            assemble("ld r1, " + "9" * 5000 + "(r2)\nhalt")

    def test_structural_error_keeps_its_pc(self):
        with pytest.raises(AssemblerError) as info:
            assemble("nop\n\nj nowhere\nhalt", name="demo")
        err = info.value
        assert (err.program, err.pc, err.instruction) == ("demo", 1, "j nowhere")
        assert "line 3: undefined target label 'nowhere'" in str(err)

    def test_error_without_a_pc_names_the_program(self):
        with pytest.raises(AssemblerError) as info:
            assemble("# nothing\n", name="demo")
        assert (info.value.program, info.value.pc) == ("demo", None)

    @given(
        st.one_of(
            st.lists(st.sampled_from(FUZZ_TOKENS), max_size=12).map(" ".join),
            st.text(max_size=40),
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_assemble_returns_a_program_or_raises_assembler_error(self, text):
        try:
            program = assemble(text, name="fuzz")
        except AssemblerError as exc:
            assert exc.program == "fuzz"
        else:
            assert isinstance(program, Program)
            # Every register an assembled program names is canonical.
            assert _registers_of(program) <= CANONICAL_REGISTERS


class TestRoundTrip:
    def test_disassemble_reassemble(self):
        p1 = assemble(SAMPLE)
        text = disassemble(p1)
        p2 = assemble(text)
        assert len(p1) == len(p2)
        assert [str(a) for a in p1] == [str(b) for b in p2]

    @given(st.lists(st.sampled_from(["nop", "mfence", "halt"]), max_size=10))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_simple_streams_roundtrip(self, mnemonics):
        text = "\n".join(mnemonics) + "\nhalt\n"
        p1 = assemble(text)
        p2 = assemble(disassemble(p1))
        assert [str(a) for a in p1] == [str(b) for b in p2]

    @given(
        regs=st.lists(st.integers(0, 31), min_size=1, max_size=8),
        imms=st.lists(st.integers(-1000, 1000), min_size=1, max_size=8),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_li_roundtrip(self, regs, imms):
        lines = [f"li r{r}, {i}" for r, i in zip(regs, imms)] + ["halt"]
        p1 = assemble("\n".join(lines))
        p2 = assemble(disassemble(p1))
        assert [str(a) for a in p1] == [str(b) for b in p2]

    def test_builder_program_roundtrips(self):
        b = ProgramBuilder("rt")
        b.li("r1", 7)
        b.label("top")
        b.shli("r2", "r1", 3)
        b.load("r3", "r2", 16)
        b.branch("ne", "r3", "r1", "top")
        b.halt()
        p1 = b.build()
        p2 = assemble(disassemble(p1))
        assert [str(a) for a in p1] == [str(b_) for b_ in p2]
        assert p2.resolve("top") == p1.resolve("top")
