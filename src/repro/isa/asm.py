"""Tiny two-pass assembler / disassembler for the toy ISA.

The assembler exists so tests and examples can express small programs as
readable text, and so the disassembler (``Program.listing`` plus
:func:`assemble` round trips) can be property-tested.

Syntax, one instruction per line (``#`` starts a comment)::

    label:
      li    r1, 4096
      ld    r2, 8(r1)
      addi  r3, r2, 1
      add   r3, r3, r2
      blt   r2, r3, label
      st    r3, 0(r1)
      clflush 0(r1)
      mfence
      rdtscp r5
      j     end
    end:
      halt
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from ..common.errors import AssemblerError, IsaError
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

_MEM_RE = re.compile(r"^(-?\d+)\((r\d+)\)$")
_ALU_OPS = ("add", "sub", "mul", "div", "and", "or", "xor", "shl", "shr")
_BRANCH_CONDS = ("lt", "le", "gt", "ge", "eq", "ne")


def _parse_int(token: str) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AssemblerError(f"invalid integer {token!r}") from exc


def _parse_mem(token: str) -> tuple:
    """Parse ``offset(base)`` into ``(base, offset)``."""
    m = _MEM_RE.match(token)
    if not m:
        raise AssemblerError(f"expected offset(reg), got {token!r}")
    try:
        return m.group(2), int(m.group(1))
    except ValueError as exc:  # e.g. more digits than int() converts
        raise AssemblerError(f"invalid offset in {token!r}") from exc


def _split_operands(rest: str) -> List[str]:
    return [tok.strip() for tok in rest.split(",") if tok.strip()]


def assemble(text: str, name: str = "asm") -> Program:
    """Assemble ``text`` into a :class:`Program`.

    Every failure raises :class:`AssemblerError` with ``program=name``,
    the source line number in the message and the source text as
    ``instruction``; a structural error found by :class:`Program` keeps
    its ``pc``.
    """
    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}
    #: ``(line number, source text)`` of each instruction, by pc.
    sources: List[Tuple[int, str]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            line = _take_labels(line, labels, len(instructions))
            if line:
                mnemonic, _, rest = line.partition(" ")
                instructions.append(
                    _parse_instruction(mnemonic.lower(), _split_operands(rest))
                )
                sources.append((line_no, raw.strip()))
        except IsaError as exc:
            raise AssemblerError(
                f"line {line_no}: {exc.reason}", program=name, instruction=raw.strip()
            ) from exc

    try:
        return Program(instructions, labels, name=name)
    except IsaError as exc:
        if exc.pc is None:
            raise AssemblerError(exc.reason, program=name) from exc
        line_no, source = sources[exc.pc]
        raise AssemblerError(
            f"line {line_no}: {exc.reason}", program=name, pc=exc.pc, instruction=source
        ) from exc


def _take_labels(line: str, labels: Dict[str, int], pc: int) -> str:
    """Bind the labels heading ``line`` to ``pc``; return the rest of it."""
    while line.endswith(":") or ":" in line.split()[0]:
        label, _, remainder = line.partition(":")
        label = label.strip()
        if not label or not re.match(r"^[A-Za-z_][\w.]*$", label):
            raise AssemblerError(f"bad label {label!r}")
        if label in labels:
            raise AssemblerError(f"duplicate label {label!r}")
        labels[label] = pc
        line = remainder.strip()
        if not line:
            break
    return line


def _parse_instruction(mnemonic: str, ops: List[str]) -> Instruction:
    def need(n: int) -> None:
        if len(ops) != n:
            raise AssemblerError(f"{mnemonic} expects {n} operand(s), got {len(ops)}")

    if mnemonic == "li":
        need(2)
        return LoadImm(ops[0], _parse_int(ops[1]))
    if mnemonic in _ALU_OPS:
        need(3)
        return IntOp(mnemonic, ops[0], ops[1], ops[2])
    if mnemonic.endswith("i") and mnemonic[:-1] in _ALU_OPS:
        need(3)
        return IntOpImm(mnemonic[:-1], ops[0], ops[1], _parse_int(ops[2]))
    if mnemonic == "ld":
        need(2)
        base, offset = _parse_mem(ops[1])
        return Load(ops[0], base, offset)
    if mnemonic == "st":
        need(2)
        base, offset = _parse_mem(ops[1])
        return Store(ops[0], base, offset)
    if mnemonic == "clflush":
        need(1)
        base, offset = _parse_mem(ops[0])
        return Flush(base, offset)
    if mnemonic == "mfence":
        need(0)
        return Fence()
    if mnemonic == "rdtscp":
        need(1)
        return ReadTimer(ops[0])
    if mnemonic.startswith("b") and mnemonic[1:] in _BRANCH_CONDS:
        need(3)
        return Branch(mnemonic[1:], ops[0], ops[1], ops[2])
    if mnemonic == "j":
        need(1)
        return Jump(ops[0])
    if mnemonic == "nop":
        need(0)
        return Nop()
    if mnemonic == "halt":
        need(0)
        return Halt()
    raise AssemblerError(f"unknown mnemonic {mnemonic!r}")


def disassemble(program: Program) -> str:
    """Render ``program`` back to assemble()-compatible text."""
    by_index: Dict[int, List[str]] = {}
    for label, index in program.labels.items():
        by_index.setdefault(index, []).append(label)
    lines: List[str] = []
    for pc, inst in enumerate(program):
        for label in sorted(by_index.get(pc, ())):
            lines.append(f"{label}:")
        lines.append(f"  {inst}")
    for label in sorted(by_index.get(len(program), ())):
        lines.append(f"{label}:")
    return "\n".join(lines) + "\n"
