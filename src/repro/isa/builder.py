"""Fluent builder for constructing :class:`~repro.isa.program.Program`.

The attack gadgets and synthetic workloads build programs through this DSL
rather than hand-assembling instruction lists:

    b = ProgramBuilder("demo")
    b.li("r1", 0x1000)
    b.load("r2", "r1", 8)
    b.branch("lt", "r2", "r3", "skip")
    b.load("r4", "r1", 64)
    b.label("skip")
    b.halt()
    program = b.build()
"""

from __future__ import annotations

from typing import Dict, List

from ..common.errors import IsaError
from .instructions import (
    Branch,
    Fence,
    Flush,
    Halt,
    Instruction,
    IntOp,
    IntOpImm,
    Jump,
    Load,
    LoadImm,
    Nop,
    ReadTimer,
    Store,
)
from .program import Program


class ProgramBuilder:
    """Accumulates instructions and labels, then builds a validated Program."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}

    # -- label management -----------------------------------------------------

    def label(self, name: str) -> "ProgramBuilder":
        """Attach label ``name`` to the next emitted instruction."""
        if name in self._labels:
            raise IsaError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    @property
    def here(self) -> int:
        """Index the next instruction will occupy."""
        return len(self._instructions)

    # -- raw emission -----------------------------------------------------------

    def emit(self, inst: Instruction) -> "ProgramBuilder":
        self._instructions.append(inst)
        return self

    def _new(self, kind: type, *operands) -> "ProgramBuilder":
        """Emit ``kind(*operands)``; a malformed operand raises an
        :class:`IsaError` located at this program and the next pc."""
        try:
            inst = kind(*operands)
        except IsaError as exc:
            raise IsaError(exc.reason, program=self.name, pc=self.here) from exc
        return self.emit(inst)

    # -- one helper per opcode ---------------------------------------------------

    def li(self, dst: str, imm: int) -> "ProgramBuilder":
        return self._new(LoadImm, dst, imm)

    def op(self, op: str, dst: str, src1: str, src2: str) -> "ProgramBuilder":
        return self._new(IntOp, op, dst, src1, src2)

    def opi(self, op: str, dst: str, src1: str, imm: int) -> "ProgramBuilder":
        return self._new(IntOpImm, op, dst, src1, imm)

    def add(self, dst: str, src1: str, src2: str) -> "ProgramBuilder":
        return self.op("add", dst, src1, src2)

    def addi(self, dst: str, src1: str, imm: int) -> "ProgramBuilder":
        return self.opi("add", dst, src1, imm)

    def mul(self, dst: str, src1: str, src2: str) -> "ProgramBuilder":
        return self.op("mul", dst, src1, src2)

    def div(self, dst: str, src1: str, src2: str) -> "ProgramBuilder":
        """Unsigned divide — issues to the non-pipelined divider."""
        return self.op("div", dst, src1, src2)

    def shli(self, dst: str, src1: str, imm: int) -> "ProgramBuilder":
        """Shift-left by an immediate via a scratch-free immediate op."""
        return self.opi("shl", dst, src1, imm)

    def load(self, dst: str, base: str, offset: int = 0) -> "ProgramBuilder":
        return self._new(Load, dst, base, offset)

    def store(self, src: str, base: str, offset: int = 0) -> "ProgramBuilder":
        return self._new(Store, src, base, offset)

    def flush(self, base: str, offset: int = 0) -> "ProgramBuilder":
        return self._new(Flush, base, offset)

    def fence(self) -> "ProgramBuilder":
        return self.emit(Fence())

    def rdtscp(self, dst: str) -> "ProgramBuilder":
        return self._new(ReadTimer, dst)

    def branch(self, cond: str, src1: str, src2: str, target: str) -> "ProgramBuilder":
        return self._new(Branch, cond, src1, src2, target)

    def jump(self, target: str) -> "ProgramBuilder":
        return self._new(Jump, target)

    def nop(self, count: int = 1) -> "ProgramBuilder":
        for _ in range(count):
            self.emit(Nop())
        return self

    def halt(self) -> "ProgramBuilder":
        return self.emit(Halt())

    # -- finalisation ----------------------------------------------------------

    def build(self) -> Program:
        """Validate and return the finished program."""
        return Program(self._instructions, self._labels, name=self.name)
