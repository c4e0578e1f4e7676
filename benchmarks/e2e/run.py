"""End-to-end benchmark of the unXpec reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W]... [--seed N] [--seconds S]
                                  [--trace [0|1]] [--scale X] [--out PATH]

Each workload (see ``workloads.py`` and README.md) runs in fresh child
interpreters, one at a time, each single-threaded. An untraced run
(``--trace 0``, the default) prints the end-to-end metrics declared in
``BENCHMARK.json``; ``setup_s`` is the median of three fresh set-ups. A
traced run (``--trace`` or ``--trace 1``) runs the workload once untraced
and once with every layer entry point wrapped (``tracing.py``) and prints
the per-layer metrics, writing the spans to
``.bench-out/bench-trace-<workload>.json``.

For every workload the last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when a workload crashed or an output check failed, and 2 when the
simulator sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

from hostclock import HostClock, resident_mb
from tracing import LAYERS, SimCensus, Tracer, layer_totals
from workloads import OUT_DIR, ROOT, WORKLOADS, Check, Workload

SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BASELINES_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines.json")

#: Fresh set-ups whose median is ``setup_s``.
SETUPS = 3
#: Wall-clock budget of one workload, children included.
WORKLOAD_BUDGET_S = 175.0
#: Failed checks listed in the printed summary.
MAX_LISTED_FAILURES = 10
#: Per-layer metrics of each layer, as ``<layer>.<kind>``.
LAYER_KINDS = ("self_s", "calls", "share", "setup_s")


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; one value is its own)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# child: one fresh interpreter measuring one workload
# ---------------------------------------------------------------------------


class OpTimer:
    """Times each op on the host clock; an op that raises is counted, not fatal."""

    def __init__(self, clock: HostClock, tracer: Optional[Tracer]) -> None:
        self.seconds: List[float] = []
        self.failed = 0
        self._clock = clock
        self._tracer = tracer

    def __call__(self, name: str, fn, *args):
        start = self._clock.now()
        try:
            if self._tracer is not None:
                return self._tracer.op(name, fn, *args)
            return fn(*args)
        except Exception:
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
            return None
        finally:
            self.seconds.append(self._clock.now() - start)


def run_pass(
    workload: Workload, clock: HostClock, census: SimCensus, tracer: Optional[Tracer]
) -> dict:
    """One timed pass: its corrected and raw wall time, output and op timings."""
    workload.begin_pass()
    gc.collect()
    timer = OpTimer(clock, tracer)
    begin, raw_begin = clock.now(), time.perf_counter()
    output = workload.run_pass(timer)
    wall, raw_wall = clock.now() - begin, time.perf_counter() - raw_begin
    samples = list(census.run_seconds if workload.TIMES_SIM_RUNS else timer.seconds)
    return {
        "wall": wall,
        "raw_wall": raw_wall,
        "out": output,
        "timer": timer,
        "samples": samples,
        "sim": census.take(),
    }


def tally(passes: List[dict]) -> Tuple[List[Check], int, int]:
    """A run's checks, ops and failed ops, counted from its first pass.

    Later passes only have to repeat the first, which one check records
    whatever the number of passes. So ``attempted`` and ``failed`` do not
    depend on how many passes the host had time for.
    """
    first = passes[0]
    out, timer = first["out"], first["timer"]
    ops = len(timer.seconds) if out.ops is None else out.ops
    failed_ops = timer.failed + out.failed_ops
    differing = [
        index
        for index, p in enumerate(passes[1:], 1)
        if (p["out"].digest, p["sim"], p["timer"].failed + p["out"].failed_ops)
        != (out.digest, first["sim"], failed_ops)
    ]
    repeat = Check(
        "passes_repeat_first_pass",
        not differing,
        f"{len(passes)} passes" + (f", pass {differing[0]} differs" if differing else ""),
    )
    return [*out.checks, repeat], ops, failed_ops


def stored_baseline(workload: str, seed: int) -> dict:
    with open(BASELINES_JSON) as fh:
        return json.load(fh)["seeds"].get(str(seed), {}).get(workload, {})


def child_main(args: argparse.Namespace) -> int:
    clock = HostClock()
    clock.start()
    try:
        return measure_in_child(args, clock)
    finally:
        clock.stop()


def measure_in_child(args: argparse.Namespace, clock: HostClock) -> int:
    started = clock.now()
    os.makedirs(OUT_DIR, exist_ok=True)
    name = args.workload[0]
    workload = WORKLOADS[name]()
    census = SimCensus(clock.now)
    census.install()
    tracer = Tracer(clock.now) if args.trace else None
    if tracer is not None:
        tracer.install()
    workload.setup(args.seed, args.scale)
    setup_s = clock.now() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_phase = tracer.take() if tracer is not None else None

    workload.warm_up()
    census.take()
    if tracer is not None:
        tracer.take()

    clock.rss_samples.clear()
    # Another pass starts only if, at the mean pass time so far, it ends
    # within --seconds of host time; so a slow host makes fewer passes.
    # There is always one, and only one below --scale 1.
    timed_from = time.perf_counter()
    passes = [run_pass(workload, clock, census, tracer)]
    while args.scale >= 1:
        elapsed = time.perf_counter() - timed_from
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        passes.append(run_pass(workload, clock, census, tracer))
    rss_samples = [*clock.rss_samples, resident_mb()]
    first = passes[0]
    checks, ops, failed_ops = tally(passes)
    samples = [s for p in passes for s in p["samples"]]
    fidelity = first["out"].fidelity
    stored = stored_baseline(name, args.seed) if args.scale == 1 else {}
    allowed = stored.get("fidelity", {}).get("paper_checks_failed")
    if allowed is not None:
        checks.append(
            Check(
                "paper_checks_within_stored",
                fidelity["paper_checks_failed"] <= allowed,
                f"{fidelity['paper_checks_failed']:g} failed, "
                f"stored for seed {args.seed}: {allowed:g}",
            )
        )
    failed_checks = [c for c in checks if not c.passed]
    walls = [p["wall"] for p in passes]
    instructions = first["sim"]["instructions"]
    result = {
        "setup_s": setup_s,
        "passes": len(passes),
        "pass_wall_s": walls,
        "raw_pass_wall_s": [p["raw_wall"] for p in passes],
        "sim_kips": statistics.median(instructions / w for w in walls) / 1000,
        "op_ms": {
            "p50": 1000 * statistics.median(samples),
            "p90": 1000 * percentile(samples, 90),
            "p99": 1000 * percentile(samples, 99),
            "samples": len(samples),
        },
        "sim": first["sim"],
        "sim_digest": first["out"].digest,
        "sim_digest_stored": stored.get("sim_digest"),
        "fidelity": fidelity,
        "notes": first["out"].notes,
        "attempted": ops + len(checks),
        "failed": failed_ops + len(failed_checks),
        "failures": [f"{c.name}: {c.detail}" for c in failed_checks[:MAX_LISTED_FAILURES]],
        "rss_mb": statistics.median(rss_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        timed_phase = tracer.take()
        tracer.uninstall()
        result["layers"] = {
            layer: {"calls": t["calls"] / len(passes), "self_s": t["self_s"] / len(passes)}
            for layer, t in layer_totals(timed_phase).items()
        }
        result["setup_layers"] = {
            layer: t["self_s"] for layer, t in layer_totals(setup_phase).items()
        }
        result["trace_file"] = os.path.join(OUT_DIR, f"bench-trace-{name}.json")
        with open(result["trace_file"], "w") as fh:
            json.dump(
                {
                    "workload": name,
                    "seed": args.seed,
                    "scale": args.scale,
                    "pass_wall_s": walls,
                    "setup": setup_phase,
                    "timed": timed_phase,
                },
                fh,
            )
    census.uninstall()
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent: children, metrics, report
# ---------------------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_FAULT_INJECT", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        REPRO_BACKEND="scalar",
        PYTHONPATH=os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p),
    )
    return env


def run_child(
    workload: str, args: argparse.Namespace, trace: bool, deadline: float, setup_only: bool = False
) -> dict:
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(int(trace)),
        "--scale", repr(args.scale),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: child exceeded {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def e2e_metrics(main: dict, setups: List[float]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(main["pass_wall_s"]),
        "op_ms.p50": main["op_ms"]["p50"],
        "sim_kips": main["sim_kips"],
        "setup_s": statistics.median(setups),
        "rss_mb": main["rss_mb"],
    }


def layer_metrics(untraced: dict, traced: dict) -> Dict[str, float]:
    layers = traced["layers"]
    wall = statistics.mean(traced["pass_wall_s"])
    sim = traced["sim"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        self_s = layers[layer]["self_s"]
        values = (self_s, layers[layer]["calls"], self_s / wall, traced["setup_layers"][layer])
        metrics.update((f"{layer}.{kind}", v) for kind, v in zip(LAYER_KINDS, values))
    for counter, value in sim.items():
        metrics[f"sim.{counter}"] = value
    committed = sim["instructions"]
    attempted = committed + sim["wrong_path_instructions"]
    metrics["sim.useful_ratio"] = committed / attempted if attempted else 0.0
    metrics["cpu.core.ns_per_instruction"] = (
        1e9 * layers["cpu.core"]["self_s"] / committed if committed else 0.0
    )
    metrics["host.op_ms.p90"] = untraced["op_ms"]["p90"]
    metrics["host.op_ms.p99"] = untraced["op_ms"]["p99"]
    metrics["host.samples"] = untraced["op_ms"]["samples"]
    metrics["host.peak_rss_mb"] = untraced["peak_rss_mb"]
    metrics["tracing.overhead"] = statistics.median(traced["pass_wall_s"]) / statistics.median(
        untraced["pass_wall_s"]
    )
    metrics["tracing.coverage"] = sum(layers[layer]["self_s"] for layer in LAYERS) / wall
    return metrics


def measure(workload: str, args: argparse.Namespace) -> dict:
    """Run the children for one workload; return its result record."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    if args.trace:
        untraced = run_child(workload, args, False, deadline)
        traced = run_child(workload, args, True, deadline)
        metrics = layer_metrics(untraced, traced)
        runs = [untraced, traced]
        if traced["sim_digest"] != untraced["sim_digest"]:
            traced["failed"] += 1
            traced["failures"].append("tracing changed the simulation: sim_digest differs")
    else:
        setups = [
            run_child(workload, args, False, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUPS - 1)
        ]
        main = run_child(workload, args, False, deadline)
        setups.append(main["setup_s"])
        metrics = e2e_metrics(main, setups)
        runs = [main]
    last = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "diagnostics": {
            "passes": last["passes"],
            "pass_wall_s": last["pass_wall_s"],
            "raw_pass_wall_s": last["raw_pass_wall_s"],
            "peak_rss_mb": runs[0]["peak_rss_mb"],
            "sim_digest": last["sim_digest"],
            "sim_digest_stored": last["sim_digest_stored"],
            "fidelity": last["fidelity"],
            "sim": last["sim"],
            "op_ms": runs[0]["op_ms"],
            "fail_ratio": failed / attempted,
            "failures": [f for r in runs for f in r["failures"]],
            "notes": last["notes"],
            "trace_file": last.get("trace_file"),
        },
    }


def report(workload: str, record: dict, benchmark: dict, args: argparse.Namespace) -> None:
    """Print the human-readable summary, then the one-line JSON result."""
    specs = {m["name"]: m for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    metrics = record["metrics"]
    if set(metrics) != set(specs):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: {sorted(set(metrics) ^ set(specs))}"
        )
    diag = record["diagnostics"]
    mode = "traced" if args.trace else "untraced"
    print(f"== {workload}: seed {args.seed}, {diag['passes']} passes, {mode} ==")
    if args.trace:
        print(f"  {'layer':16s} {'self_s':>10s} {'calls':>12s} {'share':>7s} {'setup_s':>9s}")
        for layer in LAYERS:
            self_s, calls, share, setup_s = (metrics[f"{layer}.{k}"] for k in LAYER_KINDS)
            print(f"  {layer:16s} {self_s:10.4f} {calls:12.0f} {share:7.1%} {setup_s:9.4f}")
        per_layer = {f"{layer}.{kind}" for layer in LAYERS for kind in LAYER_KINDS}
        rest = [f"{name}={metrics[name]:.6g}" for name in specs if name not in per_layer]
        for start in range(0, len(rest), 4):
            print("  " + "  ".join(rest[start : start + 4]))
    else:
        for name, spec in specs.items():
            print(
                f"  {name:12s} {metrics[name]:12.6g} {spec['unit']:8s}"
                f" ({spec['better']} is better, bound {spec['bound']:.0%})"
            )
    fidelity = " ".join(f"{k}={v:.4g}" for k, v in diag["fidelity"].items())
    print(f"  fidelity: {fidelity}")
    raw = sum(diag["raw_pass_wall_s"])
    print(
        f"  host: {raw:.3f} s raw over {diag['passes']} passes, "
        f"{sum(diag['pass_wall_s']) / raw:.3f} corrected/raw; peak RSS {diag['peak_rss_mb']:.1f} MB"
    )
    op_ms = diag["op_ms"]
    print(
        f"  host op_ms (untraced): p50={op_ms['p50']:.4g} p90={op_ms['p90']:.4g} "
        f"p99={op_ms['p99']:.4g} over {op_ms['samples']} ops (p90/p99 not gated)"
    )
    stored = diag["sim_digest_stored"]
    match = "no stored digest for this seed" if stored is None else (
        "matches stored" if stored == diag["sim_digest"] else f"DIFFERS from stored {stored}"
    )
    print(f"  sim_digest: {diag['sim_digest']} ({match})")
    for note in diag["notes"] + diag["failures"]:
        print(f"  {note}")
    print(
        f"  correct={record['correct']} attempted={record['attempted']} "
        f"failed={record['failed']} fail_ratio={diag['fail_ratio']:.4g}"
    )
    line = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": spec["unit"]} for name, spec in specs.items()
        },
    }
    print(json.dumps(line), flush=True)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (default: 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="timed host seconds per run: passes repeat while the next one fits, "
        "at least one; one pass below --scale 1 (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1 (or the bare flag): traced run printing per-layer metrics",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="fraction of each pass's ops to run (for harness tests); "
        "statistical checks and stored baselines apply only at 1",
    )
    parser.add_argument("--out", metavar="PATH", help="also write every result as JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("compiling the simulator sources failed", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as fh:
        benchmark = json.load(fh)
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    workloads = args.workload or list(WORKLOADS)
    results = {}
    code = 0
    for workload in workloads:
        try:
            record = measure(workload, args)
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            code = 1
            continue
        results[workload] = record
        report(workload, record, benchmark, args)
        if not record["correct"]:
            code = 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "seed": args.seed,
                    "trace": args.trace,
                    "scale": args.scale,
                    "seconds": args.seconds,
                    "workloads": results,
                },
                fh,
                indent=2,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
