"""Units for the speculative-taint static analyzer (repro.analysis.specct)."""

import json

import pytest

from repro.analysis.specct import (
    CACHE_DELTA,
    TAINTED_BRANCH_COND,
    TAINTED_LOAD_ADDR,
    TAINTED_STORE_ADDR,
    AbsState,
    AnalyzerConfig,
    Cfg,
    Value,
    analyze_program,
    normalize_ranges,
    overlaps_secret,
    value_alu,
    value_of,
)
from repro.analysis.specct.__main__ import main as specct_main
from repro.common.errors import AnalysisError
from repro.isa import ProgramBuilder
from repro.obs import observe

SECRET = (0x1000, 0x1008)


def leaky_straightline():
    """Architectural secret-indexed load: li; ld secret; shl; ld [secret<<6]."""
    b = ProgramBuilder("leaky-straight")
    b.li("r1", SECRET[0])
    b.load("r2", "r1")  # r2 := secret (const addr inside the range)
    b.shli("r3", "r2", 6)
    b.load("r4", "r3")  # address depends on the secret
    b.halt()
    return b.build()


def leaky_branch(with_fence: bool = False):
    """The unXpec shape: secret-indexed load only past a branch."""
    b = ProgramBuilder("leaky-branch")
    b.li("r1", SECRET[0])
    b.load("r2", "r1")
    b.li("r5", 0)
    b.li("r6", 1)
    b.branch("ge", "r5", "r6", "skip")  # pc 4
    if with_fence:
        b.fence()
    b.shli("r3", "r2", 6)
    b.load("r4", "r3", 0x100000)
    b.label("skip")
    b.halt()
    return b.build()


def safe_program():
    b = ProgramBuilder("safe")
    b.li("r1", 0x100000)
    b.load("r2", "r1")
    b.addi("r2", "r2", 1)
    b.store("r2", "r1", 8)
    b.li("r5", 0)
    b.li("r6", 1)
    b.branch("ge", "r5", "r6", "end")
    b.load("r3", "r1", 64)
    b.label("end")
    b.halt()
    return b.build()


class TestLattice:
    def test_join_same_const_keeps_it(self):
        assert value_of(5).join(value_of(5)) == value_of(5)

    def test_join_different_consts_widens(self):
        joined = value_of(5).join(value_of(6))
        assert joined.const is None

    def test_taint_is_sticky_under_join(self):
        tainted = Value(const=5, taint=True)
        assert value_of(5).join(tainted).taint
        assert tainted.join(value_of(5)).taint

    def test_alu_exact_on_constants(self):
        assert value_alu("add", value_of(2), value_of(3)).const == 5
        assert value_alu("mul", value_of(4), value_of(16)).const == 64

    def test_alu_taint_propagates(self):
        out = value_alu("add", Value(const=1, taint=True), value_of(2))
        assert out.taint

    def test_absstate_default_is_zero(self):
        assert AbsState().get("r1") == value_of(0)

    def test_memory_strong_update_clears_taint(self):
        s = AbsState()
        s.taint_store(value_of(0x2000), Value(const=None, taint=True))
        assert s.mem_tainted_at(value_of(0x2000))
        s.taint_store(value_of(0x2000), value_of(7))  # overwrite with clean
        assert not s.mem_tainted_at(value_of(0x2000))

    def test_memory_unknown_store_taints_everything(self):
        s = AbsState()
        s.taint_store(Value(const=None, taint=True), Value(const=None, taint=True))
        assert s.mem_tainted_at(value_of(0xDEAD))

    def test_overlaps_secret(self):
        ranges = normalize_ranges([SECRET])
        assert overlaps_secret(value_of(SECRET[0]), ranges, False)
        assert not overlaps_secret(value_of(0x100000), ranges, False)
        unknown = Value(const=None, taint=False)
        assert overlaps_secret(unknown, ranges, True)
        assert not overlaps_secret(unknown, ranges, False)

    def test_normalize_rejects_empty_range(self):
        with pytest.raises(AnalysisError):
            normalize_ranges([(8, 8)])


class TestCfg:
    def test_shapes(self):
        program = leaky_branch()
        cfg = Cfg(program)
        assert len(cfg) == len(program)
        branch_pc = cfg.branch_pcs()[0]
        assert set(cfg.successors(branch_pc)) == {
            branch_pc + 1,
            program.resolve("skip"),
        }
        halt_pc = len(program) - 1
        assert cfg.successors(halt_pc) == ()


class TestAnalyzer:
    def test_architectural_secret_indexed_load_flagged(self):
        report = analyze_program(leaky_straightline(), [SECRET])
        kinds = {f.kind for f in report.findings}
        assert TAINTED_LOAD_ADDR in kinds
        assert not report.clean

    def test_transient_finding_carries_branch(self):
        report = analyze_program(leaky_branch(), [SECRET])
        transient = [
            f for f in report.transient_findings() if f.kind == TAINTED_LOAD_ADDR
        ]
        assert transient, report.render_text()
        assert transient[0].branch_pc == 4
        assert report.cache_delta_bound >= 1
        assert report.by_kind(CACHE_DELTA)

    def test_fence_blocks_the_speculative_window(self):
        report = analyze_program(leaky_branch(with_fence=True), [SECRET])
        # The load is still an architectural finding, but no speculation
        # window reaches it, so the rollback-time channel is gone.
        assert report.by_kind(TAINTED_LOAD_ADDR)
        assert not report.transient_findings()
        assert report.cache_delta_bound == 0

    def test_fence_ignored_when_configured_off(self):
        report = analyze_program(
            leaky_branch(with_fence=True),
            [SECRET],
            config=AnalyzerConfig(fence_blocks_speculation=False),
        )
        assert report.cache_delta_bound >= 1

    def test_window_too_small_misses_the_load(self):
        report = analyze_program(
            leaky_branch(), [SECRET], config=AnalyzerConfig(window=1)
        )
        assert not report.transient_findings()
        assert report.cache_delta_bound == 0

    def test_taint_flows_through_memory(self):
        b = ProgramBuilder("mem-taint")
        b.li("r1", SECRET[0])
        b.load("r2", "r1")
        b.li("r7", 0x2000)
        b.store("r2", "r7")  # park the secret in clean memory
        b.load("r8", "r7")  # reload it
        b.shli("r9", "r8", 6)
        b.load("r10", "r9")  # and leak it
        b.halt()
        report = analyze_program(b.build(), [SECRET])
        assert any(
            f.kind == TAINTED_LOAD_ADDR and f.pc == 6 for f in report.findings
        ), report.render_text()

    def test_tainted_branch_condition_and_store(self):
        b = ProgramBuilder("cond-store")
        b.li("r1", SECRET[0])
        b.load("r2", "r1")
        b.li("r3", 0)
        b.branch("ge", "r2", "r3", "end")
        b.store("r3", "r2", 0)  # secret-derived store address
        b.label("end")
        b.halt()
        report = analyze_program(b.build(), [SECRET])
        kinds = {f.kind for f in report.findings}
        assert TAINTED_BRANCH_COND in kinds
        assert TAINTED_STORE_ADDR in kinds

    def test_safe_program_is_clean(self):
        report = analyze_program(safe_program(), [SECRET])
        assert report.clean
        assert report.cache_delta_bound == 0

    def test_window_must_be_positive(self):
        with pytest.raises(AnalysisError):
            AnalyzerConfig(window=0)

    def test_deterministic(self):
        a = analyze_program(leaky_branch(), [SECRET]).to_dict()
        b = analyze_program(leaky_branch(), [SECRET]).to_dict()
        assert a == b

    def test_obs_counters(self):
        with observe() as obs:
            analyze_program(leaky_branch(), [SECRET])
            analyze_program(safe_program(), [SECRET])
        reg = obs.registry
        assert reg["specct.programs"].value() == 2
        assert reg["specct.clean"].value() == 1
        assert reg[f"specct.findings.{TAINTED_LOAD_ADDR}"].value() >= 1

    def test_json_roundtrip(self):
        report = analyze_program(leaky_branch(), [SECRET])
        doc = json.loads(report.to_json())
        assert doc["program"] == "leaky-branch"
        assert doc["cache_delta_bound"] == report.cache_delta_bound
        assert len(doc["findings"]) == len(report.findings)


class TestCli:
    def test_gadget_round_flagged(self, capsys):
        assert specct_main(["gadget:round", "--n-loads", "2"]) == 1
        out = capsys.readouterr().out
        assert "cache-delta bound" in out or "finding" in out

    def test_gadget_setup_clean(self):
        assert specct_main(["gadget:setup"]) == 0

    def test_workload_clean(self):
        assert specct_main(["workload:mcf_r"]) == 0

    def test_spectre_flagged(self):
        assert specct_main(["spectre:round"]) == 1

    def test_json_output(self, capsys):
        assert specct_main(["gadget:round", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["cache_delta_bound"] >= 1

    def test_bad_target_is_usage_error(self):
        assert specct_main(["gadget:nonsense"]) == 2
        with pytest.raises(SystemExit) as exc:
            specct_main([])  # argparse usage error
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--window", "0"],
            ["--window", "-5"],
            ["--explore", "--max-paths", "0"],
            ["--explore", "--max-paths", "-3"],
            ["--explore", "--max-steps", "0"],
            ["--explore", "--max-steps", "-1"],
        ],
    )
    def test_non_positive_budget_is_usage_error(self, flags, capsys):
        # Exit 1 means "findings reported"; a bad budget must not look like one.
        with pytest.raises(SystemExit) as exc:
            specct_main(["gadget:round", *flags])
        assert exc.value.code == 2
        option = next(f for f in flags if f != "--explore")
        assert f"argument {option}: expected a positive integer" in capsys.readouterr().err

    def test_asm_file_target(self, tmp_path, capsys):
        source = """
        start:
          li r1, 0x1000
          ld r2, 0(r1)
          mul r3, r2, r2
          ld r4, 0(r3)
          halt
        """
        path = tmp_path / "victim.s"
        path.write_text(source)
        code = specct_main([str(path), "--secret", "0x1000:0x1008"])
        assert code == 1

    def test_lint_program_alias(self):
        from repro.experiments.__main__ import main as experiments_main

        assert experiments_main(["lint-program", "gadget:round"]) == 1
        assert experiments_main(["lint-program", "workload:mcf_r"]) == 0
