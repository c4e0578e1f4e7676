"""Command-line experiment runner (parallel, cached).

Usage::

    python -m repro.experiments                      # full cached report
    python -m repro.experiments --jobs 8             # ... on 8 workers
    python -m repro.experiments list
    python -m repro.experiments fig3
    python -m repro.experiments all --quick --no-cache
    python -m repro.experiments fig7 --json out.json --seed 7
    python -m repro.experiments fig3 --quick --stats-out stats.json
    python -m repro.experiments lint-program gadget:round   # static analyzer

``lint-program`` forwards to :mod:`repro.analysis.specct` — the
speculative-taint static analyzer (also installed as ``unxpec
lint-program``); see ``docs/static-analysis.md``.

Every run goes through :mod:`repro.campaign`: shardable experiments split
across ``--jobs`` worker processes (default: all cores), and merged
results land in a content-addressed cache keyed by experiment id, config,
and a hash of the ``repro`` sources — so re-running a campaign only
recomputes figures whose code or config actually changed.  ``--jobs 1``
and ``--jobs N`` produce bit-identical tables/metrics/checks (see
docs/campaign.md for the determinism contract).

``--stats-out`` writes the hierarchical stats dump merged across every
worker (plus the parent's per-experiment wall-clock profile and the
campaign span tree) as JSON.  Pretty-print it with ``python -m repro.obs
stats.json``; re-render it with ``--format openmetrics`` / ``folded``.
``--metrics-out`` writes the same merged stats directly as an
OpenMetrics/Prometheus textfile (plus ``PATH.folded`` flamegraph input),
and ``--events-out`` streams live campaign lifecycle events as JSONL for
``python -m repro.tools.campaign_top``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from ..common.argtypes import non_negative_int, positive_int, positive_seconds
from . import registry

#: Default cache location (overridable with --cache-dir / REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = ".campaign-cache"


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint-program":
        # `unxpec lint-program <target>` — the specct static analyzer.
        from ..analysis.specct.__main__ import main as specct_main

        return specct_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the unXpec paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="report",
        help="experiment id (see 'list'), or 'all', 'list', 'report' (the "
        "default), or 'lint-program <target>' for the static analyzer",
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer samples, faster run"
    )
    parser.add_argument(
        "--seed", type=non_negative_int, default=0, help="master seed (>= 0)"
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        metavar="N",
        help="worker processes for shard execution (default: all cores); "
        "results are bit-identical for any value",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR),
        help="result cache directory (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--cache-clear",
        action="store_true",
        help="delete every cache entry before running",
    )
    parser.add_argument(
        "--retries",
        type=non_negative_int,
        default=1,
        metavar="N",
        help="retry a task up to N times on transient faults (OSError, "
        "timeouts, broken pools); deterministic failures never retry "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--task-timeout",
        type=positive_seconds,
        default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget for one shard/run task; an "
        "attempt over budget is killed and counts as a transient fault "
        "(default: no timeout)",
    )
    parser.add_argument("--json", metavar="PATH", help="also dump result JSON")
    parser.add_argument(
        "--csv", metavar="DIR", help="also dump every result table as CSV"
    )
    parser.add_argument(
        "--out", metavar="PATH", default="REPORT.md", help="report output path"
    )
    parser.add_argument(
        "--stats-out",
        metavar="PATH",
        help="dump merged hierarchical stats + phase profile + span-tree "
        "JSON after the run",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="dump the merged stats as an OpenMetrics/Prometheus textfile "
        "(plus PATH.folded, a flamegraph-compatible folded-stack profile)",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        help="stream campaign lifecycle events (task.submit/start/retry/"
        "cache_hit/done/failed) as JSONL; tail it live with "
        "python -m repro.tools.campaign_top PATH --follow",
    )
    parser.add_argument(
        "--no-spans",
        action="store_true",
        help="disable campaign span recording (spans are task-granularity "
        "and near-free; this exists for overhead A/B measurement)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for exp_id in registry.all_ids():
            exp = registry.get(exp_id)
            print(f"{exp_id:14s} {exp.title}")
        return 0

    from ..campaign import CampaignEventLog, CampaignRunner, ResultCache
    from ..obs import Profiler

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
        if args.cache_clear:
            removed = cache.clear()
            print(f"cleared {removed} cache entries from {args.cache_dir}",
                  file=sys.stderr)
    event_log = CampaignEventLog(path=args.events_out) if args.events_out else None
    runner = CampaignRunner(
        jobs=args.jobs,
        cache=cache,
        progress=lambda msg: print(f"[campaign] {msg}", file=sys.stderr),
        retries=args.retries,
        task_timeout=args.task_timeout,
        spans=not args.no_spans,
        event_log=event_log,
    )
    profiler = Profiler()

    try:
        code = _dispatch(args, runner, profiler)
    finally:
        if event_log is not None:
            event_log.close()
    if args.stats_out:
        print(f"wrote {args.stats_out}")
    if args.metrics_out:
        _write_metrics(args.metrics_out, runner, profiler)
        print(f"wrote {args.metrics_out}")
    if args.events_out:
        print(f"wrote {args.events_out}")
    failed = [o for o in runner.last_outcomes if o.failed]
    if failed:
        for outcome in failed:
            print(
                f"FAILED {outcome.experiment_id}: {outcome.error}", file=sys.stderr
            )
        code = code or 1
    return code


def _dispatch(args: argparse.Namespace, runner, profiler) -> int:
    if args.experiment == "report":
        from .report import write_report

        started = time.perf_counter()
        results = write_report(
            args.out,
            quick=args.quick,
            seed=args.seed,
            profiler=profiler,
            runner=runner,
        )
        if args.stats_out:
            _write_stats(args.stats_out, runner, profiler)
        ok = sum(1 for r in results for c in r.checks if c.passed)
        total = sum(len(r.checks) for r in results)
        hits = runner.cache.hits if runner.cache is not None else 0
        print(
            f"wrote {args.out}: {ok}/{total} checks passed "
            f"({time.perf_counter() - started:.0f}s, {hits} cache hits)"
        )
        return 0 if ok == total else 1

    ids = registry.all_ids() if args.experiment == "all" else [args.experiment]
    outcomes = runner.run(ids=ids, quick=args.quick, seed=args.seed, profiler=profiler)
    if args.stats_out:
        _write_stats(args.stats_out, runner, profiler)
    failed = 0
    for outcome in outcomes:
        result = outcome.result
        print(result.render())
        source = "cache" if outcome.cached else f"{outcome.n_shards} shards"
        print(f"({outcome.wall_seconds:.1f}s, {source})")
        print()
        if args.json:
            result.dump_json(_json_path(args.json, outcome.experiment_id, len(ids) > 1))
        if args.csv:
            result.dump_csv(args.csv)
        if not result.all_passed:
            failed += 1
    return 1 if failed else 0


def _json_path(json_arg: str, experiment_id: str, multiple: bool) -> str:
    """The per-experiment ``--json`` output path.

    With several experiments the id prefixes the *basename* only —
    ``out/res.json`` becomes ``out/fig3_res.json``, never the mangled
    ``fig3_out/res.json``.
    """
    if not multiple:
        return json_arg
    directory, base = os.path.split(json_arg)
    return os.path.join(directory, f"{experiment_id}_{base}")


def _write_stats(path: str, runner, profiler) -> None:
    """The ``--stats-out`` document: worker stats merged across all tasks."""
    from ..campaign import merge_snapshots, merge_trace_meta, snapshot_values
    from ..obs import nest_dotted

    outcomes = runner.last_outcomes
    merged = merge_snapshots([o.stats for o in outcomes])
    doc = {
        "stats": nest_dotted(snapshot_values(merged)),
        "profile": profiler.to_dict(),
        "trace": merge_trace_meta([o.trace_meta for o in outcomes]),
        "spans": runner.span_tree(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_metrics(path: str, runner, profiler) -> None:
    """The ``--metrics-out`` pair: OpenMetrics textfile + folded stacks.

    ``PATH`` gets the merged campaign stats in Prometheus-textfile form;
    ``PATH.folded`` gets the parent's phase profile as flamegraph input.
    """
    from ..campaign import merge_snapshots
    from ..obs import profiler_to_folded, to_openmetrics

    merged = merge_snapshots([o.stats for o in runner.last_outcomes])
    snapshot = {name: entry for name, (_, entry) in merged.items()}
    kinds = {name: kind for name, (kind, _) in merged.items()}
    with open(path, "w") as fh:
        fh.write(to_openmetrics(snapshot, kinds))
    with open(path + ".folded", "w") as fh:
        fh.write(profiler_to_folded(profiler.to_dict()))


if __name__ == "__main__":
    sys.exit(main())
