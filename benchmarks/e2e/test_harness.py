"""Tests of the end-to-end benchmark harness (``pytest benchmarks/e2e -q``).

They are not part of the repository's tier-1 suite: the last ones run the
benchmark itself at a tiny ``--scale`` (about half a minute).
"""

from __future__ import annotations

import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from compare import main as compare_main
from compare import verdict
from run import tally
from tracing import OP_LAYER, SimCensus, Tracer, layer_totals
from workloads import ROOT, Check, PassOutput

sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_children_including_same_layer_nesting():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(seconds, then=None):
        def body():
            now[0] += seconds
            if then is not None:
                then()
                now[0] += 0.5

        return body

    leaf = tracer.wrap(advance(1.0), "cache")
    inner = tracer.wrap(advance(2.0, leaf), "cpu.core")
    outer = tracer.wrap(advance(3.0, inner), "cpu.core")
    tracer.op("op", outer)

    phase = tracer.take()
    totals = layer_totals(phase)
    # outer: 3 + 0.5 own, inner: 2 + 0.5 own, leaf: 1.
    assert totals["cpu.core"] == {"calls": 2, "self_s": 6.0}
    assert totals["cache"] == {"calls": 1, "self_s": 1.0}
    assert totals[OP_LAYER] == {"calls": 1, "self_s": 0.0}
    assert sum(t["self_s"] for t in totals.values()) == 7.0
    (span,) = phase["spans"]
    assert (span["name"], span["parent"], span["end"] - span["start"]) == ("op", None, 7.0)
    assert tracer.take()["aggregates"] == []


def _repro_attributes():
    """Every module- and class-level attribute of the loaded ``repro`` modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, raw in vars(value).items():
                    found[(name, attr, member)] = raw
    return found


def test_uninstall_restores_every_original_by_identity():
    census = SimCensus()
    tracer = Tracer()
    census.install()
    tracer.install()
    from repro.cpu.core import Core

    installed = _repro_attributes()
    tracer.uninstall()
    census.uninstall()
    restored = _repro_attributes()

    changed = [key for key in restored if installed.get(key) is not restored[key]]
    assert ("repro.cpu.core", "Core", "run") in changed
    assert ("repro.matrix.grid", "evaluate_cell") in changed
    assert ("repro.matrix", "evaluate_cell") in changed  # re-exported by name
    assert not hasattr(Core.run, "__wrapped__")
    # A second install/uninstall cycle yields the very same objects again.
    tracer.install()
    tracer.uninstall()
    again = _repro_attributes()
    assert all(again[key] is restored[key] for key in restored)


def _fake_pass(digest="d0"):
    """A pass record as ``run_pass`` makes it, with one failing check."""
    return {
        "out": PassOutput(digest, [Check("band", False, "forced"), Check("exact", True, "")]),
        "timer": SimpleNamespace(seconds=[0.001] * 5, failed=0),
        "sim": {"instructions": 100},
    }


def test_attempted_and_failed_do_not_depend_on_the_number_of_passes():
    counted = set()
    for passes in (1, 2, 3):
        checks, ops, failed_ops = tally([_fake_pass() for _ in range(passes)])
        counted.add((ops + len(checks), failed_ops + sum(not c.passed for c in checks)))
    assert counted == {(8, 1)}
    checks, _, _ = tally([_fake_pass(), _fake_pass("d1")])
    assert [c.name for c in checks if not c.passed] == ["band", "passes_repeat_first_pass"]


@pytest.mark.parametrize(
    "a, b, better, bound, expected",
    [
        ([10, 11, 10, 11] * 3, [8, 8.5, 8, 8.5] * 3, "lower", 0.1, "improved"),
        ([10, 11, 10, 11] * 3, [13, 13.5, 13, 13.5] * 3, "lower", 0.1, "REGRESSED"),
        ([10, 20, 10, 20] * 3, [11, 21, 10, 19] * 3, "lower", 0.1, "unresolved"),
        ([10, 10.2, 10.1] * 4, [10.1, 10.2, 10.0] * 4, "lower", 0.1, "within bound"),
        ([100, 101, 100] * 4, [120, 121, 120] * 4, "higher", None, "improved"),
    ],
)
def test_compare_verdicts(a, b, better, bound, expected):
    assert verdict(a, b, better, bound)["verdict"] == expected


def test_compare_run_stops_when_a_side_fails(tmp_path):
    # tmp_path has no benchmark, so side A's first run fails at once.
    with pytest.raises(SystemExit, match="pair 0, side A .* wrote no result"):
        compare_main(["--run", str(tmp_path), ROOT])


def _run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "e2e", "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced run of every workload at a tiny scale (one pass each)."""
    out = tmp_path_factory.mktemp("e2e")
    runs = {}
    for trace in ("0", "1"):
        path = str(out / f"trace{trace}.json")
        proc = _run("--scale", "0.01", "--trace", trace, "--out", path)
        assert proc.returncode == 0, proc.stderr
        with open(path) as fh:
            runs[trace] = {"stdout": proc.stdout, "doc": json.load(fh)}
    return runs


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_declared(tiny_runs, trace, section):
    declared = {m["name"] for m in BENCHMARK[section]}
    stdout = tiny_runs[trace]["stdout"].splitlines()
    lines = [json.loads(line) for line in stdout if line.startswith("{")]
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert all(METRIC_NAME.fullmatch(name) for name in line["metrics"])
        assert set(line["metrics"]) == declared


def test_tracing_does_not_change_the_simulation(tiny_runs):
    untraced = tiny_runs["0"]["doc"]["workloads"]
    traced = tiny_runs["1"]["doc"]["workloads"]
    assert set(untraced) == set(traced) == set(WORKLOADS)
    for workload in WORKLOADS:
        for field in ("sim_digest", "sim", "fidelity"):
            assert (
                traced[workload]["diagnostics"][field]
                == untraced[workload]["diagnostics"][field]
            )


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
        )
    proc = _run("--workload", WORKLOADS[0], root=str(tmp_path))
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]
