"""Compare two sides of the end-to-end benchmark (parent vs change).

Compare result files written by ``run.py --out``, pairing them in order::

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

or run the pairs first, alternating which side goes first, then compare::

    python3 benchmarks/e2e/compare.py --run PARENT_DIR CHANGE_DIR [--workload W]... [--trace]

``PARENT_DIR`` and ``CHANGE_DIR`` are checkouts that both have this
benchmark; pair ``i`` of the ten runs both at seed ``i``, and the results
go to a fresh directory under ``.bench-out/`` of this file's checkout. A
run that exits non-zero stops the comparison. For each workload and metric
the report gives each side's
median and quartiles and how many pairs each side won. A metric is
*improved* only when one side wins at least 9 of 10 pairs and the medians
differ by more than the first side's interquartile range; *unresolved*
when either side's spread (IQR / median) is wider than the metric's bound,
unless every run of the second side beats every run of the first; *regressed*
when the second side's median is worse than the first's by more than the
bound. Simulated results (``sim_digest``, fidelity values, ``sim.*``
counts, ``fail_ratio``) must be identical for equal seeds, on both sides
and in every run. The exit code is 1 when a metric regressed or a
simulated result differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

from run import BENCHMARK_JSON
from workloads import OUT_DIR

#: Share of pairs one side must win for a gain to count.
WIN_SHARE = 0.9
#: Pairs ``--run`` makes; pair ``i`` runs both sides at seed ``i``.
PAIRS = 10

#: Diagnostics that must repeat exactly for the same seed.
EXACT_FIELDS = ("sim_digest", "fidelity", "sim", "fail_ratio")


def verdict(a: List[float], b: List[float], better: str, bound: Optional[float]) -> dict:
    """Judge side B against side A for one metric (pairs are ``zip(a, b)``)."""
    sign = 1 if better == "higher" else -1
    b_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    a_wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    iqr_a = qa[2] - qa[0]
    row = {"a": qa, "b": qb, "a_wins": a_wins, "b_wins": b_wins}
    diff = qb[1] - qa[1]
    b_significant = b_wins >= WIN_SHARE * len(a) and abs(diff) > iqr_a
    a_significant = a_wins >= WIN_SHARE * len(a) and abs(diff) > iqr_a
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    b_always_better = min(sign * y for y in b) > max(sign * x for x in a)
    if b_significant:
        row["verdict"] = "improved"
    elif bound is None:
        row["verdict"] = "worse" if a_significant else "-"
    elif qa[1] and -sign * diff / abs(qa[1]) > bound:
        row["verdict"] = "REGRESSED"
    elif spread > bound and not b_always_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "worse, within bound" if a_significant else "within bound"
    return row


def load(paths: Sequence[str]) -> List[dict]:
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def exact_mismatches(docs: Sequence[dict]) -> List[str]:
    """Simulated results that differ between runs of the same seed."""
    seen: Dict[tuple, tuple] = {}
    problems = []
    for doc in docs:
        for workload, record in doc["workloads"].items():
            key = (workload, doc["seed"], doc.get("scale", 1.0))
            diag = record["diagnostics"]
            values = {field: diag.get(field) for field in EXACT_FIELDS}
            if key not in seen:
                seen[key] = values
                continue
            for field in EXACT_FIELDS:
                if values[field] != seen[key][field]:
                    problems.append(f"{workload} seed {doc['seed']}: {field} differs")
    return problems


def compare(a_docs: Sequence[dict], b_docs: Sequence[dict]) -> int:
    if len(a_docs) != len(b_docs) or len(a_docs) < 2:
        raise SystemExit("need the same number (at least 2) of result files on each side")
    with open(BENCHMARK_JSON) as fh:
        benchmark = json.load(fh)
    trace = a_docs[0]["trace"]
    specs = benchmark["per_layer" if trace else "end_to_end"]
    code = 0
    docs = (*a_docs, *b_docs)
    workloads = [w for w in a_docs[0]["workloads"] if all(w in d["workloads"] for d in docs)]
    for workload in workloads:
        print(f"== {workload} ({len(a_docs)} pairs) ==")
        print(
            f"  {'metric':32s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s}"
            "  wins A/B  verdict"
        )
        for spec in specs:
            name = spec["name"]
            a = [d["workloads"][workload]["metrics"][name] for d in a_docs]
            b = [d["workloads"][workload]["metrics"][name] for d in b_docs]
            row = verdict(a, b, spec["better"], spec.get("bound"))
            a_text, b_text = (f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (row["a"], row["b"]))
            print(
                f"  {name:32s} {a_text:>30s} {b_text:>30s}"
                f"  {row['a_wins']:4d}/{row['b_wins']:<4d} {row['verdict']}"
            )
            if row["verdict"] == "REGRESSED":
                code = 1
    problems = exact_mismatches(docs)
    for problem in problems:
        print(f"SIMULATION CHANGED: {problem}")
    if not problems:
        print("simulated results identical across all runs of each seed")
    return 1 if problems else code


def run_pairs(args: argparse.Namespace) -> tuple:
    """Run :data:`PAIRS` alternating pairs; return the two sides' result paths.

    Results go to a fresh directory, so no file of an earlier comparison
    is ever read; a run that fails stops the comparison.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="compare-", dir=OUT_DIR)
    sides = {"A": args.run[0], "B": args.run[1]}
    paths: Dict[str, List[str]] = {"A": [], "B": []}
    for i in range(PAIRS):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            out = os.path.join(out_dir, f"{side}-{i}.json")
            cmd = [sys.executable, "benchmarks/e2e/run.py", "--seed", str(i),
                   "--trace", str(args.trace), "--out", out]
            for workload in args.workload or ():
                cmd += ["--workload", workload]
            print(f"pair {i}: side {side} ({sides[side]})", file=sys.stderr)
            proc = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.DEVNULL, check=False)
            if proc.returncode != 0 or not os.path.isfile(out):
                raise SystemExit(
                    f"pair {i}, side {side} ({sides[side]}): run.py exited with code "
                    f"{proc.returncode}" + ("" if os.path.isfile(out) else " and wrote no result")
                )
            paths[side].append(out)
    print(f"results in {out_dir}", file=sys.stderr)
    return paths["A"], paths["B"]


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--run" not in argv:
        if "--" not in argv:
            print(__doc__, file=sys.stderr)
            return 2
        cut = argv.index("--")
        return compare(load(argv[:cut]), load(argv[cut + 1:]))
    parser = argparse.ArgumentParser(description="run and compare alternating pairs")
    parser.add_argument("--run", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"), required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    a_paths, b_paths = run_pairs(args)
    return compare(load(a_paths), load(b_paths))


if __name__ == "__main__":
    sys.exit(main())
