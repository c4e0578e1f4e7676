"""Core hot-path microbenchmark with a committed baseline gate.

Run via ``make bench-core`` (plain pytest, no pytest-benchmark): it times

* one fig3-style attack round (prepare once, then steady-state samples),
* one two-context interference round, and
* synthetic SPEC-profile workload execution (gcc_r, 20k instructions),

normalizes everything against a pure-Python calibration loop shared
session-wide (see ``benchmarks/conftest.py`` — one denominator, so the
rows are directly comparable), rewrites ``BENCH_core.json`` at the repo
root, and **fails** if a normalized metric regressed more than 25 %
against the committed baseline.

The ``seed_reference`` block in the JSON preserves what the
pre-optimization implementation measured (same procedure, same machine as
the committed ``measured`` block) so the speedup of the decoded-dispatch
overhaul stays visible: regenerating the file never touches it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import BenchCalibration

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: Allowed regression of normalized metrics vs the committed baseline.
REGRESSION_FACTOR = 1.25

#: Measured on the pre-optimization implementation (isinstance-dispatch
#: interpreter), same procedure and machine as the first committed baseline.
SEED_REFERENCE = {
    "calibration_s": 0.009060205999048776,
    "fig3_round_ms": 2.577384649976011,
    "fig3_round_normalized": 0.2844730738182563,
    "synthetic_ips": 156234.89887952662,
    "synthetic_ips_normalized": 1415.5203680890659,
}


def fig3_round_seconds(rounds: int = 50, repeats: int = 6) -> float:
    """Best-of-N seconds per steady-state fig3 attack round."""
    from repro.attack import GadgetParams, UnxpecAttack

    attack = UnxpecAttack(params=GadgetParams(n_loads=1), seed=0)
    attack.prepare()
    for bit in (0, 1, 0, 1):  # warmup: decode + fault in the working set
        attack.sample(bit)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(rounds):
            attack.sample(i & 1)
        best = min(best, (time.perf_counter() - t0) / rounds)
    return best


def interference_round_seconds(rounds: int = 20, repeats: int = 5) -> float:
    """Best-of-N seconds per two-context interference round (ext_interference).

    One round = victim mistraining + recorded victim run + attacker probe
    replay — the hot path of the shared-port channel.
    """
    from repro.attack import InterferenceHarness

    harness = InterferenceHarness(defense_key="safespec", seed=0)
    harness.prepare()
    for bit in (0, 1):  # warmup: decode + fault in the working set
        harness.sample(bit)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(rounds):
            harness.sample(i & 1)
        best = min(best, (time.perf_counter() - t0) / rounds)
    return best


def synthetic_ips(instructions: int = 20_000, repeats: int = 5):
    """Best-of-N committed instructions per second on a gcc_r workload."""
    from repro.cache import CacheHierarchy
    from repro.cpu import Core
    from repro.defense import CleanupSpec
    from repro.workloads import get_profile, synthesize

    workload = synthesize(get_profile("gcc_r"), instructions=instructions, seed=0)
    best = float("inf")
    committed = 0
    for _ in range(repeats):
        hierarchy = CacheHierarchy(seed=0)
        core = Core(hierarchy, CleanupSpec(hierarchy))
        t0 = time.perf_counter()
        result = core.run(workload.program)
        best = min(best, time.perf_counter() - t0)
        committed = result.instructions
    return committed / best, committed


def measure(cal: BenchCalibration) -> dict:
    round_s = fig3_round_seconds()
    cal.refresh()
    interference_s = interference_round_seconds()
    cal.refresh()
    ips, committed = synthetic_ips()
    seconds = cal.refresh()
    return {
        "calibration_s": seconds,
        "fig3_round_ms": round_s * 1e3,
        "fig3_round_normalized": round_s / seconds,
        "interference_round_ms": interference_s * 1e3,
        "interference_round_normalized": interference_s / seconds,
        "synthetic_ips": ips,
        "synthetic_instructions": committed,
        "synthetic_ips_normalized": ips * seconds,
    }


def test_bench_core_and_gate(bench_calibration):
    measured = measure(bench_calibration)

    baseline = None
    if BENCH_PATH.exists():
        baseline = json.loads(BENCH_PATH.read_text()).get("measured")

    document = {
        "schema": 2,
        "seed_reference": SEED_REFERENCE,
        "measured": measured,
        "speedup_vs_seed": {
            "fig3_round_normalized": SEED_REFERENCE["fig3_round_normalized"]
            / measured["fig3_round_normalized"],
            "synthetic_ips_normalized": measured["synthetic_ips_normalized"]
            / SEED_REFERENCE["synthetic_ips_normalized"],
        },
    }
    BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(document, indent=2))

    if baseline is not None:
        limit = baseline["fig3_round_normalized"] * REGRESSION_FACTOR
        assert measured["fig3_round_normalized"] <= limit, (
            "fig3 round hot path regressed >25% vs committed BENCH_core.json: "
            f"{measured['fig3_round_normalized']:.4f} > {limit:.4f} "
            f"(baseline {baseline['fig3_round_normalized']:.4f})"
        )
        floor = baseline["synthetic_ips_normalized"] / REGRESSION_FACTOR
        assert measured["synthetic_ips_normalized"] >= floor, (
            "synthetic-workload throughput regressed >25% vs committed "
            f"BENCH_core.json: {measured['synthetic_ips_normalized']:.1f} < "
            f"{floor:.1f} (baseline {baseline['synthetic_ips_normalized']:.1f})"
        )
        if "interference_round_normalized" in baseline:
            limit = baseline["interference_round_normalized"] * REGRESSION_FACTOR
            assert measured["interference_round_normalized"] <= limit, (
                "two-context interference round regressed >25% vs committed "
                f"BENCH_core.json: {measured['interference_round_normalized']:.4f}"
                f" > {limit:.4f} "
                f"(baseline {baseline['interference_round_normalized']:.4f})"
            )


if __name__ == "__main__":
    cal = BenchCalibration()
    cal.refresh()
    test_bench_core_and_gate(cal)
