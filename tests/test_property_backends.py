"""Property: a case replays bit-identically within one process.

Random small programs (the specct generator's instruction vocabulary:
loads, stores, flushes, forward branches, fences) run for several rounds
on random cache/MSHR geometries. Each case runs twice, with a machine
built from a different seed in between; every round of the second run
must match the first: latencies, register files, squash traces,
event-trace tails, registry snapshots, and full machine/stats
fingerprints. This guards the state a process shares between machines —
the per-process CEASER set-index memo and the default observability
scope that holds the stats registry — across random geometries.

The checked-in corpus (tests/differential/corpus) is checked against its
``expected`` goldens first, so known regressions fail fast and
deterministically before Hypothesis spends time searching. A failing
example writes its shrunk first-divergence report to
``DIVERGENCE_REPORT.txt`` for CI upload.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from tests.differential.harness import (
    check_case,
    divergence_report,
    first_divergence,
    load_corpus,
    run_case,
)
from tests.differential.test_differential_golden import write_report

REGS = ("r1", "r2", "r3", "r4")
#: Base addresses spread over a few sets, including aliasing pairs.
ADDRS = (0x0, 0x38, 0x40, 0x48, 0x100, 0x1000, 0x1040)

_reg = st.sampled_from(REGS)
_alu = st.sampled_from(("add", "sub", "mul", "div", "xor", "shl"))
_cond = st.sampled_from(("lt", "ge", "eq", "ne"))

_instr = st.one_of(
    st.tuples(st.just("li"), _reg, st.sampled_from(ADDRS)),
    st.tuples(st.just("op"), _alu, _reg, _reg, _reg),
    st.tuples(st.just("opi"), _alu, _reg, _reg, st.integers(0, 64)),
    st.tuples(st.just("load"), _reg, _reg, st.sampled_from((0, 8, 64))),
    st.tuples(st.just("store"), _reg, _reg, st.sampled_from((0, 8))),
    st.tuples(st.just("flush"), _reg),
    st.tuples(st.just("branch"), _cond, _reg, _reg),
    st.tuples(st.just("fence")),
    st.tuples(st.just("nop")),
)

_programs = st.lists(_instr, min_size=1, max_size=14)

_configs = st.fixed_dictionaries(
    {
        "l1_sets": st.sampled_from((4, 16, 64)),
        # L1 ways must partition evenly over the NoMo threads (2).
        "l1_ways": st.sampled_from((2, 4, 8)),
        "l2_sets": st.sampled_from((32, 128, 1024)),
        "l2_ways": st.sampled_from((2, 4, 16)),
        "mshr_entries": st.sampled_from((1, 2, 16)),
    }
)

_pokes = st.lists(
    st.lists(
        st.tuples(st.sampled_from(ADDRS), st.integers(0, 3)), max_size=2
    ),
    max_size=6,
)


def test_corpus_replays_before_search():
    """The regression corpus is re-checked here too: a property-test run
    on a broken core must fail on the known cases first."""
    for case in load_corpus():
        report = check_case(case)
        assert report is None, f"corpus case {case['name']} diverged:\n{report}"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    specs=_programs,
    config=_configs,
    pokes=_pokes,
    seed=st.integers(0, 7),
    defense=st.sampled_from(
        ("cleanup", "unsafe", "delay", "constant", "safespec", "cachesquash")
    ),
)
def test_random_programs_replay_in_process(specs, config, pokes, seed, defense):
    case = {
        "name": "hypothesis-generated",
        "mode": "program",
        "rounds": 6,
        "seed": seed,
        "defense": defense,
        "config": config,
        "program": [list(s) for s in specs],
        "pokes": [list(p) for p in pokes],
    }
    first = run_case(case)
    # A machine from another seed in between: another CEASER key enters
    # the shared set-index memo, and the process-wide default
    # observability scope is set and restored once more.
    run_case({**case, "seed": seed + 8})
    again = run_case(case)
    where = first_divergence(first, again)
    if where is not None:
        report = divergence_report(case, first, again, labels=("first", "again"))
        write_report(report)
        raise AssertionError(
            f"replay diverged at round {where[0]} field {where[1]!r}; "
            f"add the shrunk case to tests/differential/corpus/:\n{report}"
        )
