"""Per-layer host-time attribution for the end-to-end benchmark.

The benchmark observes the simulator from the outside. :class:`Patches`
replaces the public entry points of each ``repro`` layer (:data:`LAYERS`)
with timing wrappers at run time and puts the original objects back
afterwards, so nothing under ``src/`` knows it is being measured.

Two observers use it:

* :class:`SimCensus` wraps only ``Core.run`` and sums the simulated
  counters of every :class:`~repro.cpu.timing.RunResult`. It costs one
  Python call per simulated program run, so untraced runs keep it on.
* :class:`Tracer` wraps every entry point. Open spans sit on an
  in-memory stack. Each op, and each call into a coarse layer
  (:data:`RECORDED_LAYERS`), gets a full span record; hot calls are only
  aggregated as they return: count, total time and time spent in child
  spans per ``(layer, parent layer)``. A layer's self time is its total
  minus its child time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer -> entry points as ``module:Owner.name`` (or ``module:function``).
#: A trailing ``*`` also wraps every loaded subclass that defines the
#: method itself. Module functions are replaced in every module that
#: imported them by name.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "isa": (
        "repro.isa.program:Program.decoded",
        "repro.isa.decoded:decode_program",
    ),
    "workloads": ("repro.workloads.synth:synthesize",),
    "cpu.core": ("repro.cpu.core:Core.run",),
    "cpu.wrong_path": ("repro.cpu.core:Core._run_wrong_path",),
    "cpu.noise": (
        "repro.cpu.noise:NoiseModel.system_event",
        "repro.cpu.noise:NoiseModel.mem_jitter",
    ),
    "cpu.fu": (
        "repro.cpu.fu:FuPool.acquire_div",
        "repro.cpu.fu:FuPool.try_acquire_div",
        "repro.cpu.fu:OccupancyTimeline.record",
        "repro.cpu.fu:OccupancyTimeline.next_free",
    ),
    "cpu.predictor": (
        "repro.cpu.predictor:BimodalPredictor.predict",
        "repro.cpu.predictor:BimodalPredictor.update",
        "repro.cpu.predictor:BimodalPredictor.counter",
    ),
    "cache": tuple(
        f"repro.cache.hierarchy:CacheHierarchy.{name}"
        for name in (
            "access",
            "predict_latency",
            "probe_latency",
            "flush_line",
            "open_epoch",
            "squash_epoch_delta",
            "in_l1",
            "in_l2",
        )
    ),
    "memory": (
        "repro.memory.dram:Dram.peek",
        "repro.memory.dram:Dram.poke",
        "repro.memory.mshr:MshrFile.allocate",
        "repro.memory.mshr:MshrFile.retire_completed",
        "repro.memory.mshr:MshrFile.can_allocate_at",
    ),
    "defense": ("repro.defense.base:Defense.on_squash*",),
    "attack": (
        "repro.attack.unxpec:UnxpecAttack.prepare",
        "repro.attack.unxpec:UnxpecAttack.sample",
        "repro.attack.eviction_sets:build_prime_addresses",
        "repro.attack.calibration:calibrate",
        "repro.attack.campaign:LeakageCampaign.run",
        "repro.matrix.scenarios:AttackScenario.run_trials*",
    ),
    # make_scenario builds the scenario's machine; without it that
    # construction would be time no layer owns.
    "matrix": (
        "repro.matrix.grid:evaluate_cell",
        "repro.matrix.scenarios:make_scenario",
    ),
    "analysis": (
        "repro.analysis.specct.analyzer:SpecCTAnalyzer.analyze",
        "repro.analysis.specct.explorer:SpecExplorer.explore",
    ),
    "campaign": ("repro.campaign.runner:CampaignRunner.run",),
    "experiments": (
        "repro.experiments.report:write_report",
        "repro.experiments.base:Experiment.run*",
        "repro.experiments.base:ShardableExperiment.run_shard*",
        "repro.experiments.base:ShardableExperiment.merge_shards*",
    ),
}

#: Layers whose every call gets a full span record (they are called a few
#: hundred times per campaign, not per simulated instruction).
RECORDED_LAYERS = frozenset({"campaign", "experiments"})

#: Layer of the benchmark's own op spans (not a ``repro`` layer).
OP_LAYER = "bench"

#: Simulated counters :class:`SimCensus` sums over ``RunResult`` objects.
SIM_COUNTS = (
    "instructions",
    "cycles",
    "squashes",
    "wrong_path_instructions",
    "rollback_stall_cycles",
    "noise_event_cycles",
)


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _with_subclasses(sub) if c not in found)
    return found


class Patches:
    """Attributes replaced by wrappers; :meth:`restore` puts back the originals."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, spec: str, make: Callable[[Callable], Callable]) -> None:
        """Replace the entry point ``spec`` (see :data:`LAYERS`) with ``make(original)``."""
        module_name, _, qualname = spec.partition(":")
        deep = qualname.endswith("*")
        owner_name, _, attr = qualname.rstrip("*").rpartition(".")
        module = importlib.import_module(module_name)
        if not owner_name:
            self._wrap_function(module, attr, make)
            return
        base = getattr(module, owner_name)
        for cls in _with_subclasses(base) if deep else [base]:
            if attr in vars(cls):
                original = vars(cls)[attr]
                setattr(cls, attr, make(original))
                self._saved.append((cls, attr, original))

    def _wrap_function(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    self._saved.append((mod, name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SimCensus:
    """The benchmark's hook on ``Core.run``, installed in every run.

    It times each simulated program run on ``clock`` and sums the
    simulated counters of its ``RunResult``.
    """

    ENTRY = "repro.cpu.core:Core.run"

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.counts: Dict[str, int] = dict.fromkeys(SIM_COUNTS, 0)
        #: Host seconds of each run since the last :meth:`take`.
        self.run_seconds: List[float] = []
        self._patches = Patches()

    def install(self) -> None:
        self._patches.wrap(self.ENTRY, self._counting)

    def uninstall(self) -> None:
        self._patches.restore()

    def take(self) -> Dict[str, int]:
        """The counts so far; resets them and :attr:`run_seconds`."""
        taken = dict(self.counts)
        for name in self.counts:
            self.counts[name] = 0
        self.run_seconds.clear()
        return taken

    def _counting(self, run: Callable) -> Callable:
        counts = self.counts
        run_seconds = self.run_seconds
        clock = self.clock

        @functools.wraps(run)
        def counted(*args, **kwargs):
            start = clock()
            result = run(*args, **kwargs)
            run_seconds.append(clock() - start)
            counts["instructions"] += result.instructions
            counts["cycles"] += result.cycles
            counts["noise_event_cycles"] += result.noise_event_cycles
            for event in result.squashes:
                counts["squashes"] += 1
                counts["wrong_path_instructions"] += event.wrong_path_executed
                counts["rollback_stall_cycles"] += event.outcome.stall_cycles
            return result

        return counted


class Tracer:
    """Span stack plus per-(layer, parent layer) aggregates.

    ``clock`` is injectable so tests can check the self-time arithmetic
    with exact numbers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # A frame is [layer, seconds spent in child spans, enclosing span id].
        self._stack: List[list] = [[None, 0.0, None]]
        self._ids = itertools.count()
        self.aggregates: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.spans: List[dict] = []
        self._patches = Patches()

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`."""
        # Load the defense and experiment modules so their subclasses exist
        # before the ``*`` entries are expanded.
        importlib.import_module("repro.defense")
        importlib.import_module("repro.experiments.registry").all_ids()
        for layer, entries in LAYERS.items():
            make = functools.partial(self.wrap, layer=layer, record=layer in RECORDED_LAYERS)
            for spec in entries:
                self._patches.wrap(spec, make)

    def uninstall(self) -> None:
        self._patches.restore()

    def op(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` as one benchmark op with a full span record."""
        return self.wrap(fn, OP_LAYER, record=True, name=name)(*args)

    def wrap(
        self, fn: Callable, layer: str, record: bool = False, name: Optional[str] = None
    ) -> Callable:
        """``fn`` timed as a span of ``layer``."""
        stack = self._stack
        aggregates = self.aggregates
        clock = self.clock
        spans = self.spans
        ids = self._ids
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0, next(ids) if record else parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (layer, parent[0])
                slot = aggregates.get(key)
                if slot is None:
                    aggregates[key] = [1, elapsed, frame[1]]
                else:
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += frame[1]
                if record:
                    spans.append(
                        {
                            "id": frame[2],
                            "name": span_name,
                            "layer": layer,
                            "start": start,
                            "end": start + elapsed,
                            "parent": parent[2],
                        }
                    )

        return traced

    def take(self) -> dict:
        """Spans and aggregates recorded so far; starts a fresh phase."""
        phase = {
            "spans": self.spans[:],
            "aggregates": [
                {
                    "layer": layer,
                    "parent": parent,
                    "calls": calls,
                    "seconds": seconds,
                    "child_seconds": child,
                }
                for (layer, parent), (calls, seconds, child) in sorted(
                    self.aggregates.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
        }
        self.spans.clear()
        self.aggregates.clear()
        return phase


def layer_totals(phase: dict) -> Dict[str, Dict[str, float]]:
    """``{layer: {"calls", "self_s"}}`` from one :meth:`Tracer.take` phase."""
    totals = {layer: {"calls": 0, "self_s": 0.0} for layer in (*LAYERS, OP_LAYER)}
    for row in phase["aggregates"]:
        entry = totals[row["layer"]]
        entry["calls"] += row["calls"]
        entry["self_s"] += row["seconds"] - row["child_seconds"]
    return totals
