"""Parallel cached campaign execution engine.

``CampaignRunner`` turns the experiment registry into a task list — one
task per shard for :class:`~repro.experiments.base.ShardableExperiment`
subclasses, one whole-run task otherwise — executes it either in-process
(``jobs=1``) or across a ``multiprocessing`` pool, and folds per-shard
partials, stat snapshots, and timings back into per-experiment
:class:`ExperimentOutcome` records.

Determinism contract (tested in tests/test_campaign_determinism.py):
tables, metrics, and checks are bit-identical for every ``jobs`` value,
because shard plans depend only on ``(quick, seed)``, shard bodies derive
their own RNG substreams, and merges happen in shard-index order
regardless of completion order.

Fault tolerance (tested in tests/test_campaign_faults.py): a worker
exception never aborts the campaign.  ``_execute_task`` retries transient
faults with capped exponential backoff, enforces a per-attempt wall-clock
timeout, and on exhaustion returns a picklable :class:`TaskFailure`
instead of raising; the parent degrades the affected experiment to a
``failed`` :class:`ExperimentOutcome` (error + traceback preserved) while
every other experiment completes untouched.  If the pool itself breaks,
the unfinished tasks re-run in-process.  See docs/campaign.md.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback as traceback_mod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..experiments import registry
from ..experiments.base import ExperimentResult, Shard, ShardableExperiment
from ..obs.spans import SpanRecorder, merge_span_trees
from .cache import ResultCache
from .events import CampaignEventLog
from .faults import FaultPlan, TaskTimeout, failure_kind, is_transient
from .merge import (
    StatSnapshot,
    merge_snapshots,
    merge_trace_meta,
    snapshot_with_kinds,
)

#: Stat names the runner itself records (parent side); stripped from
#: cache entries so warm hits do not replay stale failure/retry counts.
FAILED_TASKS_STAT = "campaign.tasks.failed"
RETRIES_STAT = "campaign.retries"


@dataclass(frozen=True)
class TaskSpec:
    """One unit of worker work plus its fault policy (fully picklable)."""

    experiment_id: str
    shard: Optional[Shard]
    quick: bool
    seed: int
    retries: int = 0
    task_timeout: Optional[float] = None
    backoff: float = 0.1
    backoff_cap: float = 2.0
    faults: Optional[FaultPlan] = None
    record_spans: bool = True

    @property
    def shard_index(self) -> int:
        return -1 if self.shard is None else self.shard.index

    @property
    def span_name(self) -> str:
        return "run" if self.shard is None else f"shard[{self.shard.index}]"


@dataclass
class _TaskResult:
    experiment_id: str
    shard_index: int
    payload: object  # shard partial, or a whole ExperimentResult
    seconds: float
    stats: StatSnapshot
    trace_meta: dict
    attempts: int = 1
    #: Serialized span tree of this task (deterministic — no wall-clock).
    spans: list = field(default_factory=list)
    #: (attempt, error repr) per transient failure that was retried, in
    #: attempt order — lets the parent emit task.retry events post-hoc.
    retry_errors: list = field(default_factory=list)


@dataclass
class TaskFailure:
    """A task that exhausted its attempts; picklable, carries the evidence."""

    experiment_id: str
    shard_index: int
    error: str  # repr() of the final exception
    exc_type: str
    traceback: str
    attempts: int = 1
    seconds: float = 0.0
    spans: list = field(default_factory=list)
    retry_errors: list = field(default_factory=list)


@dataclass
class ExperimentOutcome:
    """One experiment's merged result plus campaign metadata."""

    experiment_id: str
    result: ExperimentResult
    wall_seconds: float = 0.0
    worker_seconds: float = 0.0
    n_shards: int = 1
    cached: bool = False
    stats: StatSnapshot = field(default_factory=dict)
    trace_meta: dict = field(default_factory=dict)
    failed: bool = False
    error: str = ""
    error_traceback: str = ""
    retries: int = 0
    #: Serialized experiment-level span tree (deterministic; see
    #: repro.obs.spans — wall-clock never enters this form).
    spans: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Worker-time / parent-wall-time ratio (>1 means shards overlapped).

        Cached outcomes report 1.0: their ``wall_seconds`` is the cache
        *load* time, so the raw ratio would be meaninglessly huge.
        """
        if self.cached or self.wall_seconds <= 0:
            return 1.0
        return self.worker_seconds / self.wall_seconds


@contextmanager
def _attempt_deadline(seconds: Optional[float]):
    """Raise :class:`TaskTimeout` in the body after ``seconds`` wall-clock.

    Uses ``SIGALRM``, so it is active only on POSIX main threads — which
    is exactly where campaign tasks run (pool workers execute tasks on
    their main thread, and ``jobs=1`` runs in the parent's).  Elsewhere
    the timeout is quietly best-effort-disabled.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskTimeout(f"task exceeded --task-timeout={seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_attempt(task: TaskSpec, attempt: int, faults: FaultPlan) -> _TaskResult:
    """Run one task attempt under its own observability scope (worker side)."""
    from ..obs import Observability, observe

    started = time.perf_counter()
    # "squash" keeps only security-relevant events buffered, so campaign
    # runs don't pay for per-commit tracing (same policy as --stats-out).
    with observe(Observability(trace_level="squash")) as obs:
        with _attempt_deadline(task.task_timeout):
            faults.trigger(task.experiment_id, task.shard_index, attempt)
            exp = registry.get(task.experiment_id)
            if task.shard is None:
                payload: object = exp.run(quick=task.quick, seed=task.seed)
            else:
                payload = exp.run_shard(task.shard, quick=task.quick, seed=task.seed)
    seconds = time.perf_counter() - started
    return _TaskResult(
        experiment_id=task.experiment_id,
        shard_index=task.shard_index,
        payload=payload,
        seconds=seconds,
        stats=snapshot_with_kinds(obs.registry),
        trace_meta={
            "level": obs.trace.level,
            "capacity": obs.trace.capacity,
            "emitted": obs.trace.emitted,
            "buffered": len(obs.trace),
            "dropped": obs.trace.dropped,
        },
        attempts=attempt,
    )


def _execute_task(task: TaskSpec) -> Union[_TaskResult, TaskFailure]:
    """Run one task to completion or exhaustion; never raises.

    Transient exceptions (see :func:`repro.campaign.faults.is_transient`)
    are retried up to ``task.retries`` times with capped exponential
    backoff; deterministic failures return immediately.  The return value
    is always picklable, so nothing can propagate out of the worker pool.

    Each attempt is recorded as a span under this task's shard span
    (``attempt[n]``, status ok/error/timeout; a ``timeout`` child marks
    the budget that fired, a ``retry[n]`` sibling the backoff taken), so
    the parent can reconstruct exactly what every worker did.
    """
    faults = task.faults if task.faults is not None else FaultPlan.from_env()
    recorder = SpanRecorder(enabled=task.record_spans)
    shard_span = recorder.start(
        task.span_name,
        "shard",
        experiment=task.experiment_id,
        shard=task.shard_index,
    )
    retry_errors: list = []
    started = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        attempt_span = shard_span.child(f"attempt[{attempt}]", "attempt", attempt=attempt)
        try:
            result = _run_attempt(task, attempt, faults)
            attempt_span.finish("ok")
            shard_span.finish("ok")
            result.spans = recorder.to_dicts()
            result.retry_errors = retry_errors
            return result
        except Exception as exc:
            kind = failure_kind(exc)
            if kind == "timeout":
                attempt_span.child(
                    "timeout", "timeout", budget=task.task_timeout
                ).finish("timeout")
            attempt_span.attrs["error"] = repr(exc)
            attempt_span.finish("timeout" if kind == "timeout" else "error")
            failure = TaskFailure(
                experiment_id=task.experiment_id,
                shard_index=task.shard_index,
                error=repr(exc),
                exc_type=type(exc).__name__,
                traceback=traceback_mod.format_exc(),
                attempts=attempt,
                seconds=time.perf_counter() - started,
                retry_errors=retry_errors,
            )
            if attempt > task.retries or not is_transient(exc):
                shard_span.finish("error")
                failure.spans = recorder.to_dicts()
                return failure
            retry_errors.append((attempt, repr(exc)))
            delay = min(task.backoff_cap, task.backoff * (2 ** (attempt - 1)))
            shard_span.child(
                f"retry[{attempt + 1}]", "retry", attempt=attempt + 1, backoff=delay
            ).finish("ok")
            if delay > 0:
                time.sleep(delay)


def _pool_context():
    """Prefer fork (fast, inherits sys.path); fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class CampaignRunner:
    """Shard, schedule, cache, and merge a set of experiments.

    ``retries`` bounds in-worker re-attempts of *transient* faults
    (deterministic failures never retry); ``task_timeout`` caps one
    attempt's wall-clock; ``fault_plan`` injects deterministic failures
    for testing (default: whatever ``$REPRO_FAULT_INJECT`` describes).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[str], None]] = None,
        retries: int = 1,
        task_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry_backoff: float = 0.1,
        retry_backoff_cap: float = 2.0,
        spans: bool = True,
        event_log: Optional[CampaignEventLog] = None,
    ) -> None:
        self.jobs = max(1, int(jobs)) if jobs else (os.cpu_count() or 1)
        self.cache = cache
        self._progress = progress
        self.retries = max(0, int(retries))
        self.task_timeout = task_timeout
        self.fault_plan = fault_plan
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        #: Span recording (task granularity; ``False`` takes the no-op path).
        self.spans = spans
        #: Lifecycle event sink; a fresh in-memory log is created per run
        #: when none is supplied, so ``last_events`` always works.
        self.event_log = event_log
        #: Outcomes of the most recent :meth:`run` (for stats dumps).
        self.last_outcomes: List[ExperimentOutcome] = []
        #: Lifecycle events of the most recent :meth:`run` (arrival order).
        self.last_events: List[dict] = []

    def _say(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    # -- cache entry (de)hydration -------------------------------------------

    def _outcome_from_entry(
        self, exp_id: str, entry: dict, load_seconds: float
    ) -> ExperimentOutcome:
        stats = {
            name: (kind, value)
            for name, (kind, value) in (
                (n, tuple(kv)) for n, kv in entry.get("stats", {}).items()
            )
        }
        return ExperimentOutcome(
            experiment_id=exp_id,
            result=ExperimentResult.from_json(entry["result"]),
            wall_seconds=load_seconds,
            worker_seconds=float(entry.get("worker_seconds", 0.0)),
            n_shards=int(entry.get("n_shards", 1)),
            cached=True,
            stats=stats,
            trace_meta=entry.get("trace", {}),
            spans=self._experiment_span(
                exp_id, entry.get("spans", []), status="cached", lookup="hit"
            ),
        )

    @staticmethod
    def _entry_from_outcome(outcome: ExperimentOutcome) -> dict:
        # Like the campaign.* stat strip below: the cache_lookup span
        # describes *this* run's cache luck, so only the shard subtrees
        # are stored; hydration re-attaches a fresh lookup span.  The
        # stored spans carry no wall-clock by construction (Span.to_dict).
        shard_spans = [
            s
            for s in outcome.spans.get("children", ())
            if s.get("kind") != "cache_lookup"
        ]
        return {
            "experiment_id": outcome.experiment_id,
            "result": outcome.result.to_json(),
            # campaign.* counters describe *this* run's scheduling luck,
            # not the experiment's content — a warm hit must not replay them.
            "stats": {
                n: list(kv)
                for n, kv in outcome.stats.items()
                if not n.startswith("campaign.")
            },
            "trace": outcome.trace_meta,
            "spans": shard_spans,
            "worker_seconds": outcome.worker_seconds,
            "n_shards": outcome.n_shards,
        }

    # -- span plumbing ---------------------------------------------------------

    def _experiment_span(
        self,
        exp_id: str,
        shard_spans: Sequence[dict],
        status: str,
        lookup: Optional[str] = None,
    ) -> dict:
        """The experiment-level span node (empty dict when spans are off)."""
        if not self.spans:
            return {}
        children: List[dict] = []
        if lookup is not None:
            children.append(
                {"name": "cache.lookup", "kind": "cache_lookup", "status": lookup}
            )
        children.extend(s for s in shard_spans if s)
        return merge_span_trees(exp_id, "experiment", children, status=status)

    def span_tree(self) -> dict:
        """The merged campaign span tree of the most recent :meth:`run`.

        Deterministic by construction: children are in requested-id order
        (experiments) and shard-index order (tasks), and the serialized
        spans carry no wall-clock fields — ``--jobs 1`` and ``--jobs N``
        return bit-identical trees.
        """
        if not self.spans:
            return {}
        status = "error" if any(o.failed for o in self.last_outcomes) else "ok"
        return merge_span_trees(
            "campaign",
            "campaign",
            [o.spans for o in self.last_outcomes if o.spans],
            status=status,
        )

    # -- failure plumbing ------------------------------------------------------

    @staticmethod
    def _record_campaign_counters(n_failed: int, n_retries: int) -> None:
        """Bump the process-default stats registry, when one is installed."""
        from ..obs import get_default_obs

        obs = get_default_obs()
        if obs is None:
            return
        if n_failed:
            obs.registry.counter(
                FAILED_TASKS_STAT, "campaign tasks that exhausted their attempts"
            ).inc(n_failed)
        if n_retries:
            obs.registry.counter(
                RETRIES_STAT, "transient-fault task re-attempts"
            ).inc(n_retries)

    @staticmethod
    def _failed_result(exp_id: str, detail: str) -> ExperimentResult:
        exp = registry.get(exp_id)
        result = ExperimentResult(
            experiment_id=exp_id, title=exp.title, paper_claim=exp.paper_claim
        )
        result.check("campaign.execution", False, detail)
        return result

    # -- execution ------------------------------------------------------------

    def run(
        self,
        ids: Optional[Sequence[str]] = None,
        quick: bool = False,
        seed: int = 0,
        profiler=None,
    ) -> List[ExperimentOutcome]:
        """Run ``ids`` (default: every registered experiment).

        ``profiler`` (a :class:`repro.obs.Profiler`) receives the
        *parent-observed* per-experiment wall-clock under
        ``experiment.<id>`` — correct even when shards ran in workers,
        where process-local profilers cannot see the time.

        Never raises on worker failure: a failed experiment surfaces as
        an outcome with ``failed=True`` (error + traceback attached) and
        the remaining experiments complete normally.
        """
        ids = list(ids) if ids else registry.all_ids()
        outcomes: Dict[str, ExperimentOutcome] = {}
        events = self.event_log if self.event_log is not None else CampaignEventLog()
        self.last_events = events.events

        # Cache probe pass.
        keys: Dict[str, str] = {}
        cache_hits = 0
        for exp_id in ids:
            if self.cache is None:
                continue
            started = time.perf_counter()
            key = self.cache.key(exp_id, quick, seed)
            keys[exp_id] = key
            entry = self.cache.get(exp_id, key)
            if entry is not None:
                outcome = self._outcome_from_entry(
                    exp_id, entry, time.perf_counter() - started
                )
                outcomes[exp_id] = outcome
                cache_hits += 1
                events.emit(
                    "task.cache_hit", experiment=exp_id, shards=outcome.n_shards
                )
                events.emit(
                    "experiment.done",
                    experiment=exp_id,
                    status="cached",
                    checks_passed=sum(1 for c in outcome.result.checks if c.passed),
                    checks_total=len(outcome.result.checks),
                )
                self._say(f"{exp_id}: cache hit ({outcome.n_shards} shards)")

        # Task list for the misses, grouped by experiment in id order.
        plans: Dict[str, List[Optional[Shard]]] = {}
        tasks: List[TaskSpec] = []
        for exp_id in ids:
            if exp_id in outcomes:
                continue
            exp = registry.get(exp_id)
            if isinstance(exp, ShardableExperiment):
                shards: List[Optional[Shard]] = list(
                    exp.shard_plan(quick=quick, seed=seed)
                )
            else:
                shards = [None]
            plans[exp_id] = shards
            tasks.extend(
                TaskSpec(
                    experiment_id=exp_id,
                    shard=shard,
                    quick=quick,
                    seed=seed,
                    retries=self.retries,
                    task_timeout=self.task_timeout,
                    backoff=self.retry_backoff,
                    backoff_cap=self.retry_backoff_cap,
                    faults=self.fault_plan,
                    record_spans=self.spans,
                )
                for shard in shards
            )

        events.emit(
            "campaign.start",
            experiments=len(ids),
            tasks=len(tasks),
            cached=len(outcomes),
            jobs=self.jobs,
            quick=bool(quick),
            seed=int(seed),
        )
        for task in tasks:
            events.emit(
                "task.submit", experiment=task.experiment_id, shard=task.shard_index
            )
        if tasks:
            self._say(
                f"running {len(plans)} experiments / {len(tasks)} shards "
                f"on {min(self.jobs, len(tasks))} worker(s)"
            )

        done: Dict[str, List[Union[_TaskResult, TaskFailure]]] = {
            exp_id: [] for exp_id in plans
        }
        starts: Dict[str, float] = {}

        lookup_status = "miss" if self.cache is not None else None

        def finish(exp_id: str) -> None:
            results = done[exp_id]
            failures = [t for t in results if isinstance(t, TaskFailure)]
            successes = sorted(
                (t for t in results if isinstance(t, _TaskResult)),
                key=lambda t: t.shard_index,
            )
            n_retries = sum(max(0, t.attempts - 1) for t in results)
            wall = time.perf_counter() - starts[exp_id]
            worker = sum(t.seconds for t in results)
            all_spans = [
                span
                for t in sorted(results, key=lambda t: t.shard_index)
                for span in t.spans
            ]
            if failures:
                first = failures[0]
                detail = (
                    f"{len(failures)}/{len(results)} task(s) failed after "
                    f"{first.attempts} attempt(s); first: {first.error}"
                )
                stats: StatSnapshot = {
                    FAILED_TASKS_STAT: ("counter", len(failures))
                }
                if n_retries:
                    stats[RETRIES_STAT] = ("counter", n_retries)
                outcome = ExperimentOutcome(
                    experiment_id=exp_id,
                    result=self._failed_result(exp_id, detail),
                    wall_seconds=wall,
                    worker_seconds=worker,
                    n_shards=len(results),
                    cached=False,
                    stats=stats,
                    trace_meta={},
                    failed=True,
                    error=first.error,
                    error_traceback=first.traceback,
                    retries=n_retries,
                    spans=self._experiment_span(
                        exp_id, all_spans, status="error", lookup=lookup_status
                    ),
                )
                outcomes[exp_id] = outcome
                self._record_campaign_counters(len(failures), n_retries)
                events.emit(
                    "experiment.done",
                    experiment=exp_id,
                    status="failed",
                    checks_passed=0,
                    checks_total=len(outcome.result.checks),
                )
                self._say(f"{exp_id}: FAILED — {detail}")
                return
            exp = registry.get(exp_id)
            if isinstance(exp, ShardableExperiment):
                result = exp.merge_shards(
                    [t.payload for t in successes], quick=quick, seed=seed
                )
            else:
                result = successes[0].payload
            stats = merge_snapshots([t.stats for t in successes])
            if n_retries:
                stats = dict(stats)
                stats[RETRIES_STAT] = ("counter", n_retries)
            outcome = ExperimentOutcome(
                experiment_id=exp_id,
                result=result,
                wall_seconds=wall,
                worker_seconds=worker,
                n_shards=len(successes),
                cached=False,
                stats=stats,
                trace_meta=merge_trace_meta([t.trace_meta for t in successes]),
                retries=n_retries,
                spans=self._experiment_span(
                    exp_id, all_spans, status="ok", lookup=lookup_status
                ),
            )
            outcomes[exp_id] = outcome
            self._record_campaign_counters(0, n_retries)
            if self.cache is not None and exp_id in keys:
                self.cache.put(exp_id, keys[exp_id], self._entry_from_outcome(outcome))
            checks = result.checks
            ok = sum(1 for c in checks if c.passed)
            events.emit(
                "experiment.done",
                experiment=exp_id,
                status="ok",
                checks_passed=ok,
                checks_total=len(checks),
            )
            self._say(
                f"{exp_id}: {ok}/{len(checks)} checks in {outcome.wall_seconds:.1f}s "
                f"({outcome.n_shards} shard{'s' if outcome.n_shards != 1 else ''})"
            )

        def absorb(task_result: Union[_TaskResult, TaskFailure]) -> None:
            exp_id = task_result.experiment_id
            for attempt, error in task_result.retry_errors:
                events.emit(
                    "task.retry",
                    experiment=exp_id,
                    shard=task_result.shard_index,
                    attempt=attempt,
                    error=error,
                )
            if isinstance(task_result, TaskFailure):
                events.emit(
                    "task.failed",
                    experiment=exp_id,
                    shard=task_result.shard_index,
                    attempts=task_result.attempts,
                    error=task_result.error,
                    seconds=task_result.seconds,
                )
            else:
                events.emit(
                    "task.done",
                    experiment=exp_id,
                    shard=task_result.shard_index,
                    attempts=task_result.attempts,
                    seconds=task_result.seconds,
                )
            done[exp_id].append(task_result)
            if len(done[exp_id]) == len(plans[exp_id]):
                finish(exp_id)

        if self.jobs == 1 or len(tasks) <= 1:
            for task in tasks:
                starts.setdefault(task.experiment_id, time.perf_counter())
                events.emit(
                    "task.start",
                    experiment=task.experiment_id,
                    shard=task.shard_index,
                )
                absorb(_execute_task(task))
        else:
            submit = time.perf_counter()
            for exp_id in plans:
                starts[exp_id] = submit
            remaining = {
                (task.experiment_id, task.shard_index): task for task in tasks
            }
            ctx = _pool_context()
            try:
                with ctx.Pool(processes=min(self.jobs, len(tasks))) as pool:
                    for task_result in pool.imap_unordered(_execute_task, tasks):
                        remaining.pop(
                            (task_result.experiment_id, task_result.shard_index),
                            None,
                        )
                        # The parent cannot observe a remote worker start;
                        # the start event lands when the result arrives.
                        events.emit(
                            "task.start",
                            experiment=task_result.experiment_id,
                            shard=task_result.shard_index,
                        )
                        absorb(task_result)
            except Exception as exc:  # pool-level breakage (BrokenProcessPool &c.)
                self._say(
                    f"worker pool failed ({exc!r}); "
                    f"re-running {len(remaining)} task(s) in-process"
                )
                for task in remaining.values():
                    events.emit(
                        "task.start",
                        experiment=task.experiment_id,
                        shard=task.shard_index,
                    )
                    absorb(_execute_task(task))

        # Belt-and-braces: no experiment may end without an outcome, even
        # if a scheduling bug ever drops a task result on the floor.
        for exp_id, shards in plans.items():
            if exp_id in outcomes:
                continue
            seen = {t.shard_index for t in done[exp_id]}
            for shard in shards:
                index = -1 if shard is None else shard.index
                if index not in seen:
                    failure = TaskFailure(
                        experiment_id=exp_id,
                        shard_index=index,
                        error="task result never arrived",
                        exc_type="LostTask",
                        traceback="(no traceback: the task result was lost)",
                    )
                    done[exp_id].append(failure)
                    events.emit(
                        "task.failed",
                        experiment=exp_id,
                        shard=index,
                        attempts=failure.attempts,
                        error=failure.error,
                        seconds=0.0,
                    )
            finish(exp_id)

        if profiler is not None:
            for exp_id in ids:
                outcome = outcomes.get(exp_id)
                if outcome is None:
                    continue
                profiler.record(f"experiment.{exp_id}", outcome.wall_seconds)
        self.last_outcomes = [outcomes[exp_id] for exp_id in ids if exp_id in outcomes]
        events.emit(
            "campaign.done",
            experiments=len(self.last_outcomes),
            failed=sum(1 for o in self.last_outcomes if o.failed),
            retries=sum(o.retries for o in self.last_outcomes),
            cache_hits=cache_hits,
        )
        return self.last_outcomes
