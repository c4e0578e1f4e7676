"""Corpus replay: every checked-in case must reproduce its ``expected`` goldens.

The corpus pins the golden-round configurations (plain, eviction-set,
noisy), one case per defense family, and raw-program cases exercising
out-of-band DRAM pokes and tiny cache/MSHR geometries. Each case carries
one ``expected`` entry per round, captured from the core: latency,
cycles and instructions verbatim, and a sha256 of every other round
field (registers, squashes, event-trace tail, registry snapshot, machine
and stats fingerprints). A deliberate timing-model change rewrites them
with :func:`~tests.differential.harness.rewrite_expected` and records the
cause, as for the other goldens.

On failure the first-divergence report, with the per-instruction
timeline of the divergent round, is written to ``DIVERGENCE_REPORT.txt``
at the repo root so CI can upload it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.differential.harness import ROUND_FIELDS, check_case, load_corpus

REPORT_PATH = Path(__file__).resolve().parents[2] / "DIVERGENCE_REPORT.txt"

_CASES = load_corpus()


def write_report(report: str) -> None:
    with open(REPORT_PATH, "a") as fh:
        fh.write(report)
        fh.write("\n\n")


@pytest.mark.parametrize("case", _CASES, ids=[c["name"] for c in _CASES])
def test_corpus_case_matches_expected(case):
    report = check_case(case)
    if report is not None:
        write_report(report)
        pytest.fail(
            f"corpus case {case['name']!r} diverged from its expected goldens "
            f"(report in {REPORT_PATH}):\n{report}"
        )


def test_corpus_is_not_empty():
    # Twelve seeded cases; shrunk Hypothesis counterexamples get added over
    # time and must never be deleted wholesale.
    assert len(_CASES) >= 12
    for case in _CASES:
        assert case["expected"], case["name"]
        assert all(set(row) == set(ROUND_FIELDS) for row in case["expected"])
