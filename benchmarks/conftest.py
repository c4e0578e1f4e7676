"""Benchmark-suite fixtures.

Every benchmark regenerates one paper table/figure (at quick scale) inside
the timed region and asserts the experiment's paper-vs-measured checks
pass — so ``pytest benchmarks/ --benchmark-only`` both times the harness
and re-validates the reproduction.
"""

from __future__ import annotations

import time

import pytest


def calibration_loop(repeats: int = 5, iterations: int = 200_000) -> float:
    """Best-of-N seconds for a fixed pure-Python loop.

    Measures the host interpreter's current throughput; dividing simulator
    timings by this cancels host-speed differences, so gates compare
    implementations rather than machines.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


class BenchCalibration:
    """Session-shared calibration state.

    One instance serves every benchmark in a session, so rows measured for
    different configurations (e.g. the fig3 and interference rows in
    BENCH_core.json) are normalized by the *same* denominator and stay
    directly comparable. ``refresh()`` interleaves re-measurement with the
    workloads and keeps the minimum: on busy hosts the interpreter's
    effective speed drifts between phases, and a single-point calibration
    would make normalized metrics noisier than the raw ones.
    """

    def __init__(self) -> None:
        self.seconds = float("inf")

    def refresh(self) -> float:
        self.seconds = min(self.seconds, calibration_loop())
        return self.seconds


@pytest.fixture(scope="session")
def bench_calibration() -> BenchCalibration:
    cal = BenchCalibration()
    cal.refresh()
    return cal


@pytest.fixture
def run_experiment_once():
    """Run one experiment exactly once under the benchmark timer."""

    def _run(benchmark, experiment_id: str, quick: bool = True, seed: int = 0):
        from repro.experiments import get

        def runner():
            return get(experiment_id).run(quick=quick, seed=seed)

        result = benchmark.pedantic(runner, rounds=1, iterations=1)
        failures = [str(c) for c in result.checks if not c.passed]
        assert not failures, "\n".join(failures)
        return result

    return _run
