"""Regression tests for effective-address wrap semantics.

A Hypothesis run found ``opi sub r2, r1, 1; load r1, r2, 0`` with
``r1 = 0`` escaping the machine as ``MemoryError_: address
0xffffffffffffffc0`` — a computed negative effective address reached
DRAM unmasked.  The machine now wraps every effective address to the
DRAM address space (``Dram.size_bytes``, a power of two) at the
core/hierarchy boundary — committed and wrong paths — and the specct
static analyzer and dynamic interpreter fold constants through the same
mask.  ``MemoryError_`` remains for
host-level misuse (``poke``/``peek`` of an address that cannot exist).
"""

import pytest

from repro.analysis.specct import (
    TAINTED_LOAD_ADDR,
    AnalyzerConfig,
    DynamicTaintInterpreter,
    analyze_program,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import AnalysisError, MemoryError_
from repro.cpu import Core
from repro.defense.cleanupspec import CleanupSpec
from repro.isa import ProgramBuilder
from repro.memory.dram import Dram
from tests.differential.harness import (
    divergence_report,
    first_divergence,
    load_corpus,
    run_case,
)

#: The shrunk falsifying example, verbatim: r1 starts at 0, so the load's
#: effective address is -64 (r2 = -1, line-aligned) before masking.
PINNED_CASE = {
    "name": "pinned-wild-addr",
    "mode": "program",
    "rounds": 4,
    "seed": 0,
    "defense": "cleanup",
    "config": {
        "l1_sets": 4,
        "l1_ways": 2,
        "l2_sets": 32,
        "l2_ways": 2,
        "mshr_entries": 2,
    },
    "program": [
        ["opi", "sub", "r2", "r1", 1],
        ["load", "r1", "r2", 0],
    ],
    "pokes": [],
}


class TestCoreWrap:
    def test_pinned_falsifying_example_runs_reproducibly(self):
        first = run_case(PINNED_CASE)
        again = run_case(PINNED_CASE)
        assert len(first) == PINNED_CASE["rounds"]
        assert first_divergence(first, again) is None, (
            "pinned wild-addr case diverged:\n"
            + divergence_report(PINNED_CASE, first, again, labels=("first", "again"))
        )

    def test_wild_addr_corpus_case_is_checked_in(self):
        names = {case["name"] for case in load_corpus()}
        assert "program_wild_addr" in names

    def test_negative_address_wraps_to_top_of_memory(self):
        h = CacheHierarchy(seed=0)
        assert h.addr_mask == h.dram.size_bytes - 1
        wrapped = (-64) & h.addr_mask
        h.dram.poke(wrapped, 0xABCD)
        b = ProgramBuilder("wrap-committed")
        b.li("r1", 0)
        b.opi("sub", "r2", "r1", 64)
        b.load("r3", "r2", 0)
        b.halt()
        result = Core(h, CleanupSpec(h)).run(b.build())
        assert result.registers.read("r3") == 0xABCD

    def test_wrong_path_negative_address_does_not_crash(self):
        # Whichever way the branch predicts, one path computes a negative
        # address; neither may escape as a host-level MemoryError_.
        h = CacheHierarchy(seed=0)
        b = ProgramBuilder("wrap-wrong-path")
        b.li("r1", 0)
        b.li("r2", 1)
        b.branch("lt", "r1", "r2", "skip")
        b.opi("sub", "r4", "r1", 8)
        b.load("r3", "r4", 0)
        b.label("skip")
        b.opi("sub", "r5", "r1", 16)
        b.load("r6", "r5", 0)
        b.halt()
        result = Core(h, CleanupSpec(h)).run(b.build())
        assert result.registers.read("r6") == 0


class TestDramAddressSpace:
    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            Dram(size_bytes=3)
        with pytest.raises(ValueError):
            Dram(size_bytes=0)
        assert Dram(size_bytes=1 << 20).addr_mask == (1 << 20) - 1

    def test_host_level_out_of_bounds_still_raises(self):
        dram = CacheHierarchy(seed=0).dram
        with pytest.raises(MemoryError_):
            dram.poke(dram.size_bytes, 1)
        with pytest.raises(MemoryError_):
            dram.peek(-1)


def _negative_secret_program():
    b = ProgramBuilder("neg-addr-secret")
    b.li("r1", 0)
    b.opi("sub", "r2", "r1", 64)  # r2 = -64: wraps to the top of memory
    b.load("r3", "r2", 0)  # reads the secret word there
    b.load("r4", "r3", 0)  # secret-derived address -> the violation
    b.halt()
    return b.build()


class TestSpecctWrapCrossValidation:
    """Static, dynamic, and concrete machine agree on wrap semantics.

    Under the old semantics the constant-folded address escaped the
    secret-range check (a soundness hole: the machine *does* read the
    secret after wrapping) — both analyses and the core now apply the
    same power-of-two mask.
    """

    SECRET_WORD = (-64) & ((1 << 32) - 1)
    RANGES = [(SECRET_WORD, SECRET_WORD + 8)]

    def test_static_flags_wrapped_secret_load(self):
        report = analyze_program(_negative_secret_program(), self.RANGES)
        assert 3 in {f.pc for f in report.by_kind(TAINTED_LOAD_ADDR)}

    def test_dynamic_flags_wrapped_secret_load(self):
        events = DynamicTaintInterpreter(
            _negative_secret_program(), self.RANGES
        ).run()
        assert 3 in {e.pc for e in events if e.kind == TAINTED_LOAD_ADDR}

    def test_machine_reads_the_same_word_the_analyses_flag(self):
        h = CacheHierarchy(seed=0)
        h.dram.poke(self.SECRET_WORD, 0x40)  # benign in-bounds "secret"
        result = Core(h, CleanupSpec(h)).run(_negative_secret_program())
        assert result.registers.read("r3") == 0x40

    def test_address_space_must_be_power_of_two(self):
        with pytest.raises(AnalysisError):
            AnalyzerConfig(addr_space_bytes=3)
        with pytest.raises(AnalysisError):
            DynamicTaintInterpreter(
                _negative_secret_program(), addr_space_bytes=12
            )

    def test_smaller_address_space_moves_the_wrap(self):
        # The mask is a config knob, not a hard-coded constant: with a
        # 64 KiB space the same program wraps to 0xFFC0 instead.
        small = 1 << 16
        ranges = [((-64) & (small - 1), ((-64) & (small - 1)) + 8)]
        config = AnalyzerConfig(addr_space_bytes=small)
        report = analyze_program(_negative_secret_program(), ranges, config=config)
        assert 3 in {f.pc for f in report.by_kind(TAINTED_LOAD_ADDR)}
        events = DynamicTaintInterpreter(
            _negative_secret_program(), ranges, addr_space_bytes=small
        ).run()
        assert 3 in {e.pc for e in events if e.kind == TAINTED_LOAD_ADDR}
