"""Trace-driven out-of-order core with speculative (wrong-path) execution.

The core executes a :class:`~repro.isa.program.Program` functionally while
computing per-instruction *timestamps* with dataflow scheduling:

* instructions dispatch in order, ``dispatch_width`` per cycle, subject to
  ROB-occupancy back-pressure (a bounded deque of commit times: an
  instruction cannot dispatch before the one ``rob_entries`` older has
  committed);
* an instruction starts once its source registers are ready (plus the fence
  barrier for memory ops) and completes after its unit latency — loads get
  their latency from the cache hierarchy, *mutating* it;
* a conditional branch resolves when its operands are ready. On a
  misprediction the core executes the **wrong path**: instructions from the
  predicted target issue (and loads really install cache lines, marked
  speculative) until the squash point, exactly the transient-execution
  behaviour Undo defenses must roll back. The attached
  :class:`~repro.defense.base.Defense` then observes the speculative delta
  and returns a stall; fetch resumes after
  ``squash_point + mispredict_penalty + stall``.

Both paths issue loads through one step, :meth:`Core._issue_load`, which
applies the defense's :attr:`~repro.defense.base.Defense.speculative_miss`
policy, and divisions through :meth:`~repro.cpu.fu.FuPool.acquire_div`: the
committed path passes no deadline (:data:`NEVER`), the wrong path its
squash point.

This reproduces the properties the attack rests on (paper §IV): branch
resolution time is set by the condition's dependence chain, independent of
the in-branch loads that execute concurrently; and the post-resolve stall is
set by the defense's rollback work.

The model is deliberately not cycle-stepped: timestamps are computed in one
pass, which keeps thousand-round attack campaigns and 10⁵-instruction
synthetic SPEC runs fast while preserving the timing relations that matter.
The inner loop dispatches over the program's *decoded* form
(:meth:`~repro.isa.program.Program.decoded`): small-integer opcodes, label
targets pre-resolved, ALU/branch callables pre-looked-up — decoded once per
program and cached, since attack campaigns run the same program thousands
of times.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

import numpy as np

from ..cache.hierarchy import CacheHierarchy
from ..common.config import CoreConfig
from ..common.errors import SimulationError
from ..common.rng import derive_rng
from ..defense.base import Defense, SquashContext
from ..isa.decoded import (
    OP_BRANCH,
    OP_FENCE,
    OP_FLUSH,
    OP_HALT,
    OP_INT_OP,
    OP_INT_OP_IMM,
    OP_JUMP,
    OP_LOAD,
    OP_LOAD_IMM,
    OP_NOP,
    OP_READ_TIMER,
    OP_STORE,
)
from ..isa.program import Program
from ..isa.registers import WORD_MASK, RegisterFile
from ..obs import Observability, get_default_obs
from .fu import FU_DIV, FuPool
from .noise import NoiseModel, NoiseStream
from .predictor import BimodalPredictor, WEAK_TAKEN
from .timing import InstructionTiming, RunResult, SquashEvent

#: Sentinel completion time for wrong-path results that never arrive, and
#: the deadline of committed work (nothing squashes it).
NEVER = 1 << 60

#: Cycles between branch resolution and the squash taking effect (walking
#: the ROB, broadcasting the squash). Transient loads completing within this
#: window still install and are then rolled back.
DEFAULT_SQUASH_DELAY = 12

#: What :meth:`Core._issue_load` reports as a load's server when a shadow
#: structure (not the real hierarchy) serviced its miss.
SHADOW_FILL = "shadow"


@dataclass
class _WrongPathResult:
    executed: int = 0
    loads_issued: int = 0
    inflight: int = 0
    #: Wrong-path misses serviced into shadow structures (SafeSpec-style
    #: shadow fills / CacheSquash-style cancellable requests) — they never
    #: touch the real hierarchy.
    shadow_fills: int = 0
    #: Of those, fills still in flight at the squash point (the requests a
    #: cancellation-based defense must squash).
    shadow_inflight: int = 0


class Core:
    """One out-of-order core bound to a hierarchy and a defense.

    The predictor and hierarchy persist across :meth:`run` calls — an attack
    campaign runs one program per round against the same core, exactly like
    repeated invocations of sender/receiver code on real hardware.
    """

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        defense: Defense,
        config: Optional[CoreConfig] = None,
        predictor: Optional[BimodalPredictor] = None,
        noise: Optional[NoiseModel] = None,
        squash_delay: int = DEFAULT_SQUASH_DELAY,
        noise_seed: int = 0,
        record_timeline: bool = False,
        obs: Optional[Observability] = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.defense = defense
        self.config = config or CoreConfig()
        self.predictor = predictor or BimodalPredictor()
        self.noise = noise or NoiseModel()
        if squash_delay < 0:
            raise SimulationError("squash_delay must be non-negative")
        self.squash_delay = squash_delay
        #: The ``core-noise`` stream: built by the first run whose noise
        #: model is enabled (a noise-free machine never draws from it).
        self._noise_rng_factory = partial(derive_rng, noise_seed, "core-noise")
        self._noise_stream: Optional[NoiseStream] = None
        self.record_timeline = record_timeline
        #: Two-context interference hooks (repro.cpu.fu.OccupancyTimeline).
        #: ``port_timeline`` — this core *records* the busy intervals its
        #: beyond-L1 traffic (committed loads, wrong-path fills, shadow
        #: fills) puts on the shared L2/memory port. ``contended_timeline``
        #: — this core's committed beyond-L1 loads wait out another
        #: context's recorded intervals before being serviced. Both default
        #: to None (no-op; timing is bit-identical to a hook-free core) and
        #: are assigned by the interference harness between runs.
        self.port_timeline = None
        self.contended_timeline = None
        #: Divider occupancy of the most recent run (repro.cpu.fu.FuPool);
        #: fresh per run, shared between committed and wrong path within it.
        self.fu_pool: Optional[FuPool] = None
        #: Observability: explicit > hierarchy's > process default > None.
        self.obs = obs or hierarchy.obs or get_default_obs()
        if self.obs is not None:
            hierarchy.attach_obs(self.obs)
            if hasattr(defense, "attach_obs"):
                defense.attach_obs(self.obs)
            self._register_stats(self.obs.registry)

    def _register_stats(self, reg) -> None:
        """Create (or share) the ``core.*`` stats this core bumps."""
        self._st_runs = reg.counter("core.runs", "programs executed to Halt")
        self._st_instructions = reg.counter("core.instructions", "committed instructions")
        self._st_cycles = reg.counter("core.cycles", "total run cycles")
        self._st_squashes = reg.counter("core.squashes", "branch mispredict squashes")
        self._st_wp_executed = reg.counter(
            "core.wrong_path.executed", "wrong-path instructions issued"
        )
        self._st_wp_loads = reg.counter(
            "core.wrong_path.loads", "wrong-path loads issued"
        )
        self._st_wp_inflight = reg.counter(
            "core.wrong_path.inflight", "wrong-path loads still in flight at squash"
        )
        self._st_noise = reg.counter("core.noise_cycles", "system-noise event cycles")
        self._st_defense_stall = reg.counter(
            "core.defense_stall_cycles", "cycles stalled for the defense after squashes"
        )
        self._st_squash_stall = reg.distribution(
            "core.squash.stall", "per-squash defense stall seen by the core"
        )
        self._st_run_cycles = reg.distribution("core.run.cycles", "cycles per run")
        reg.formula(
            "core.ipc",
            lambda i=self._st_instructions, c=self._st_cycles: i.value()
            / max(1, c.value()),
            desc="committed instructions per cycle",
        )

    def noise_generator(self) -> np.random.Generator:
        """A copy of the ``core-noise`` generator at the position of the next
        draw (a stream never built sits at its start).

        Read-ahead leaves the stream's generator past that position, so
        the copy is taken from a copy of the stream. Drawing from it never
        moves the core's noise.
        """
        stream = self._noise_stream
        if stream is None:
            return self._noise_rng_factory()
        return copy.deepcopy(stream).generator()

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------

    def run(
        self,
        program: Program,
        registers: Optional[RegisterFile] = None,
        max_instructions: int = 1_000_000,
    ) -> RunResult:
        """Execute ``program`` to its ``Halt``; return timing and state."""
        cfg = self.config
        regs = registers or RegisterFile()
        ready: Dict[str, int] = {}
        result = RunResult(program_name=program.name, cycles=0, instructions=0, registers=regs)

        obs = self.obs
        trace = obs.trace if obs is not None else None
        emit_commit = trace is not None and trace.commit_events
        emit_full = trace is not None and trace.full_events
        record_timeline = self.record_timeline

        code = program.decoded()
        n_code = len(code)

        # Local aliases: every name below is read on (almost) every executed
        # instruction — keeping them in locals avoids repeated attribute and
        # global lookups in the hottest Python loop of the repository.
        raw = regs.raw
        raw_get = raw.get
        ready_get = ready.get
        hierarchy = self.hierarchy
        dram_peek = hierarchy.dram.peek
        # Effective addresses wrap to the DRAM address space (a power of
        # two), so negative/overflowed computed addresses execute
        # deterministically; register values keep full 64-bit semantics.
        addr_mask = hierarchy.addr_mask
        noise = self.noise
        noise_stream = self._noise_stream
        if noise.enabled and noise_stream is None:
            noise_stream = self._noise_stream = NoiseStream(noise, self._noise_rng_factory)
        # The stream reads the per-instruction event uniforms ahead: the loop
        # counts down the quiet instructions it was told of, and hands the
        # count back to the stream around anything that may draw a jitter.
        noise_ticks = noise.event_prob > 0
        noise_sync = noise_ticks and noise.mem_jitter_std > 0
        noise_left = noise_stream.left if noise_ticks else 0
        noise_tick = noise_stream.tick if noise_ticks else None
        predictor = self.predictor
        alu_latency = cfg.alu_latency
        mul_latency = cfg.mul_latency
        div_latency = cfg.div_latency
        branch_latency = cfg.branch_latency
        flush_latency = cfg.flush_latency
        timer_latency = cfg.timer_latency
        dispatch_width = cfg.dispatch_width
        # Divider occupancy is per-run (the machine quiesces between runs,
        # like the MSHR drain below).
        fu_pool = FuPool()
        self.fu_pool = fu_pool
        acquire_div = fu_pool.acquire_div
        # The defense's speculative-miss policy, read by _issue_load.
        self._speculative_miss = self.defense.speculative_miss
        issue_load = self._issue_load

        # ROB back-pressure state: the commit times of the last
        # ``rob_entries`` instructions (commit is in order).
        rob_entries = cfg.rob_entries
        commit_times: deque = deque(maxlen=rob_entries)
        commit_times_append = commit_times.append
        last_dispatch_cycle = -1
        dispatched_this_cycle = 0
        last_commit = 0

        # In-flight memory summary: max completion time of issued memory
        # ops, and the fence barrier.
        mem_max_complete = 0
        fence_barrier = 0

        fetch_available = 0
        last_complete_all = 0
        pc = 0
        committed = 0
        # Latest branch-resolution time seen so far: a load starting before
        # this is speculative w.r.t. an older branch (delay-on-miss uses it).
        max_branch_resolve = 0

        while True:
            if not 0 <= pc < n_code:
                if noise_ticks:
                    noise_stream.left = noise_left
                raise SimulationError("pc out of range", program=program.name, pc=pc)
            if committed >= max_instructions:
                if noise_ticks:
                    noise_stream.left = noise_left
                raise SimulationError(
                    f"exceeded {max_instructions} instructions",
                    program=program.name,
                    pc=pc,
                    instruction=str(program[pc]),
                )
            ins = code[pc]
            op = ins[0]

            # -- dispatch (in order, width-limited, ROB back-pressure) ----
            cycle = fetch_available if fetch_available > last_dispatch_cycle else last_dispatch_cycle
            if cycle == last_dispatch_cycle and dispatched_this_cycle >= dispatch_width:
                cycle += 1
            if len(commit_times) == rob_entries and commit_times[0] > cycle:
                cycle = commit_times[0]
            if cycle != last_dispatch_cycle:
                last_dispatch_cycle = cycle
                dispatched_this_cycle = 1
            else:
                dispatched_this_cycle += 1
            dispatch = cycle

            if noise_ticks:
                if noise_left:
                    noise_left -= 1
                else:
                    event, noise_left = noise_tick()
                    if event:
                        result.noise_event_cycles += event
                        dispatch += event
                        if dispatch > fetch_available:
                            fetch_available = dispatch

            start = dispatch
            complete = dispatch
            level: Optional[str] = None
            next_pc = pc + 1

            if op == OP_INT_OP_IMM:
                # (dst, src1, imm, fn, fu)
                src1 = ins[2]
                start = ready_get(src1, 0)
                if dispatch > start:
                    start = dispatch
                fu = ins[5]
                if fu == FU_DIV:
                    # Non-pipelined: queue behind any in-flight division —
                    # including a *transient* one (the SpectreRewind leak).
                    start = acquire_div(start, div_latency, NEVER)
                    complete = start + div_latency
                else:
                    complete = start + (mul_latency if fu else alu_latency)
                dst = ins[1]
                raw[dst] = ins[4](raw_get(src1, 0), ins[3]) & WORD_MASK
                ready[dst] = complete

            elif op == OP_INT_OP:
                # (dst, src1, src2, fn, fu)
                src1 = ins[2]
                src2 = ins[3]
                start = ready_get(src1, 0)
                r2 = ready_get(src2, 0)
                if r2 > start:
                    start = r2
                if dispatch > start:
                    start = dispatch
                fu = ins[5]
                if fu == FU_DIV:
                    start = acquire_div(start, div_latency, NEVER)
                    complete = start + div_latency
                else:
                    complete = start + (mul_latency if fu else alu_latency)
                dst = ins[1]
                raw[dst] = ins[4](raw_get(src1, 0), raw_get(src2, 0)) & WORD_MASK
                ready[dst] = complete

            elif op == OP_LOAD:
                # (dst, base, offset)
                base = ins[2]
                start = ready_get(base, 0)
                if dispatch > start:
                    start = dispatch
                if fence_barrier > start:
                    start = fence_barrier
                addr = (raw_get(base, 0) + ins[3]) & addr_mask
                if noise_sync:
                    noise_stream.left = noise_left
                start, complete, level = issue_load(
                    addr, start, NEVER, None, max_branch_resolve
                )
                if noise_sync:
                    noise_left = noise_stream.left
                dst = ins[1]
                raw[dst] = dram_peek(addr) & WORD_MASK
                ready[dst] = complete
                if complete > mem_max_complete:
                    mem_max_complete = complete

            elif op == OP_LOAD_IMM:
                # (dst, imm)
                complete = dispatch + alu_latency
                dst = ins[1]
                raw[dst] = ins[2] & WORD_MASK
                ready[dst] = complete

            elif op == OP_BRANCH:
                # (src1, src2, cond_fn, taken_pc)
                src1 = ins[1]
                src2 = ins[2]
                a = raw_get(src1, 0)
                b = raw_get(src2, 0)
                predicted = predictor.predict(pc)
                actual = bool(ins[3](a, b))
                resolve = ready_get(src1, 0)
                r2 = ready_get(src2, 0)
                if r2 > resolve:
                    resolve = r2
                if dispatch > resolve:
                    resolve = dispatch
                resolve += branch_latency
                complete = resolve
                if resolve > max_branch_resolve:
                    max_branch_resolve = resolve
                taken_pc = ins[4]
                if predicted != actual:
                    if noise_sync:
                        noise_stream.left = noise_left
                    fetch_resume = self._squash(
                        program,
                        pc,
                        taken_pc if predicted else pc + 1,
                        regs,
                        ready,
                        dispatch,
                        resolve,
                        fence_barrier,
                        mem_max_complete,
                        result,
                    )
                    if noise_sync:
                        noise_left = noise_stream.left
                    if fetch_resume > fetch_available:
                        fetch_available = fetch_resume
                # Train the predictor only *after* wrong-path simulation: the
                # transient path peeks the counter via ``predictor.counter``,
                # and real hardware updates the BPU at resolution/commit — a
                # wrong-path re-fetch of the same branch pc (a loop) must see
                # the pre-resolution counter, not this update.
                predictor.update(pc, actual, mispredicted=predicted != actual)
                next_pc = taken_pc if actual else pc + 1

            elif op == OP_STORE:
                # (src, base, offset)
                src = ins[1]
                base = ins[2]
                start = ready_get(src, 0)
                rb = ready_get(base, 0)
                if rb > start:
                    start = rb
                if dispatch > start:
                    start = dispatch
                if fence_barrier > start:
                    start = fence_barrier
                addr = (raw_get(base, 0) + ins[3]) & addr_mask
                latency, level = hierarchy.access(addr, cycle=start, is_write=True)
                hierarchy.dram.poke(addr, raw_get(src, 0))
                complete = start + latency
                if complete > mem_max_complete:
                    mem_max_complete = complete

            elif op == OP_FLUSH:
                # (base, offset)
                base = ins[1]
                start = ready_get(base, 0)
                if dispatch > start:
                    start = dispatch
                if fence_barrier > start:
                    start = fence_barrier
                addr = (raw_get(base, 0) + ins[2]) & addr_mask
                hierarchy.flush_line(addr)
                complete = start + flush_latency
                if complete > mem_max_complete:
                    mem_max_complete = complete

            elif op == OP_FENCE:
                complete = mem_max_complete if mem_max_complete > dispatch else dispatch
                if complete > fence_barrier:
                    fence_barrier = complete

            elif op == OP_READ_TIMER:
                # Serialising: waits for every older instruction.
                start = last_complete_all if last_complete_all > dispatch else dispatch
                complete = start + timer_latency
                dst = ins[1]
                raw[dst] = complete & WORD_MASK
                ready[dst] = complete

            elif op == OP_JUMP:
                next_pc = ins[1]

            elif op == OP_NOP:
                pass

            elif op == OP_HALT:
                commit = dispatch if dispatch > last_commit else last_commit
                last_commit = commit
                commit_times_append(commit)
                committed += 1
                if dispatch > last_complete_all:
                    last_complete_all = dispatch
                break

            else:  # pragma: no cover - exhaustive over the ISA
                raise SimulationError(f"unhandled opcode: {op!r}")

            # -- in-order commit --------------------------------------------
            commit = complete if complete > last_commit else last_commit
            last_commit = commit
            commit_times_append(commit)
            if complete > last_complete_all:
                last_complete_all = complete
            committed += 1
            if emit_commit:
                trace.emit(
                    complete,
                    "inst.commit",
                    (committed - 1, pc, dispatch, start, complete, level),
                )
                if emit_full:
                    trace.emit(dispatch, "inst.dispatch", (committed - 1, pc))
                    trace.emit(start, "inst.issue", (committed - 1, pc))
                    trace.emit(complete, "inst.complete", (committed - 1, pc, level))
            if record_timeline:
                result.timeline.append(
                    InstructionTiming(
                        index=committed - 1,
                        pc=pc,
                        text=str(program[pc]),
                        dispatch=dispatch,
                        start=start,
                        complete=complete,
                        level=level,
                    )
                )
            pc = next_pc

        if noise_ticks:
            noise_stream.left = noise_left
        result.cycles = max(last_complete_all, fetch_available)
        result.instructions = committed
        # Drain in-flight fills: the machine quiesces between runs, and the
        # cycle clock restarts at 0 next run — an entry carried across would
        # sit in the previous run's cycle domain, merging every later miss
        # to its line into a phantom far-future completion. (Defenses whose
        # wrong path never touches the hierarchy otherwise leak the final
        # committed miss's entry into every subsequent round.)
        hierarchy.mshr.retire_completed(NEVER)
        if obs is not None:
            self._st_runs.inc()
            self._st_instructions.inc(committed)
            self._st_cycles.inc(result.cycles)
            self._st_noise.inc(result.noise_event_cycles)
            self._st_run_cycles.add(result.cycles)
            # Lazy snapshot: serializing the whole registry per run is far
            # too expensive for thousand-round campaigns that never read it.
            result.attach_stats_source(obs.registry.to_dict)
        return result

    def _issue_load(
        self, addr: int, start: int, deadline: int, epoch: Optional[int], resolved: int
    ) -> "tuple[int, int, Optional[str]]":
        """Issue one load of ``addr`` whose operands are ready at ``start``.

        ``resolved`` is the cycle every older branch has resolved by: the
        latest resolution for a committed load, NEVER on the wrong path.
        Returns ``(start, complete, served)``: the issue cycle (a delayed
        miss issues late), the arrival cycle (NEVER if not before
        ``deadline``), and what serviced the load — "L1", "L2", "MEM",
        :data:`SHADOW_FILL`, or None if it never issued.
        """
        if start >= deadline:
            # Still in the reservation station at the squash: no side effect.
            return start, NEVER, None
        hierarchy = self.hierarchy
        policy = self._speculative_miss
        if epoch is None:
            # Nothing can squash it: pay the real access up front. Under
            # delay-on-miss an L1 miss first waits for older branches.
            if policy == "delay" and start < resolved and hierarchy.probe_latency(addr)[1] != "L1":
                start = resolved
            latency, level = hierarchy.access(addr, cycle=start)
        elif policy == "install":
            # MSHR-pressure-aware and side-effect-free, so the landed-vs-
            # in-flight decision below agrees with what access() charges.
            latency, level = hierarchy.predict_latency(addr, start)
        else:
            latency, level = hierarchy.probe_latency(addr)
        jitter = 0
        if level == "MEM":
            # One draw per memory-level load under every policy (a delayed
            # miss that dies below burns it too): the noise stream stays in
            # step across defenses. A noise-free machine has no stream.
            stream = self._noise_stream
            if stream is not None:
                jitter = self.noise.mem_jitter(stream)
            latency = max(1, latency + jitter)
        if level != "L1":
            if policy == "delay" and start < resolved:
                # Its branch resolves against it: never issued downstream.
                return start, NEVER, None
            if epoch is None and self.contended_timeline is not None:
                # Wait out the other context's recorded port traffic.
                latency += self.contended_timeline.next_free(start) - start
            if self.port_timeline is not None:
                # In flight, any fill occupies the shared port: landed,
                # cleaned out of the MSHR, or shadow.
                self.port_timeline.record(start, latency)
        complete = start + latency
        if epoch is None or (level == "L1" and policy != "install"):
            return start, complete, level
        if policy != "install":
            # Shadow fill; one still in flight at the squash is cancelled.
            return start, complete if complete <= deadline else NEVER, SHADOW_FILL
        if complete > deadline and level != "L1":
            # In flight at the squash: cleaned out of the MSHR (CleanupSpec's
            # T3), never installed.
            return start, NEVER, level
        # Lands before the squash: installs under ``epoch`` for rollback.
        # The completion is re-derived from the actual access cost.
        latency, served = hierarchy.access(addr, cycle=start, speculative=True, epoch=epoch)
        if served == "MEM":
            latency = max(1, latency + jitter)
        return start, start + latency, level

    def _squash(
        self,
        program: Program,
        pc: int,
        wrong_pc: int,
        regs: RegisterFile,
        ready: Dict[str, int],
        dispatch: int,
        resolve: int,
        fence_barrier: int,
        older_mem_complete: int,
        result: RunResult,
    ) -> int:
        """Run the branch at ``pc``'s wrong path from ``wrong_pc`` in a fresh
        epoch, let the defense squash it and record the :class:`SquashEvent`;
        return the cycle fetch resumes on the correct path."""
        squash_point = resolve + self.squash_delay
        epoch = self.hierarchy.open_epoch()
        wp = self._run_wrong_path(
            program,
            wrong_pc,
            regs,
            ready,
            branch_dispatch=dispatch,
            squash_point=squash_point,
            epoch=epoch,
            fence_barrier=fence_barrier,
        )
        delta = self.hierarchy.squash_epoch_delta(epoch)
        # Observability guard: one predicate for the whole squash (begin +
        # delta + end + counters). ``obs`` carries the trace.
        obs = self.obs
        if obs is not None:
            trace = obs.trace
            trace.emit(
                squash_point,
                "squash.begin",
                (pc, resolve, wp.executed, wp.loads_issued, wp.inflight),
            )
            trace.emit(
                squash_point,
                "spec.delta",
                (
                    epoch,
                    len(delta.installs_at("L1")),
                    len(delta.installs_at("L2")),
                    len(delta.evictions_at("L1")),
                    len(delta.evictions_at("L2")),
                    wp.inflight,
                ),
            )
        ctx = SquashContext(
            resolve_cycle=squash_point,
            delta=delta,
            inflight_transient=wp.inflight,
            older_mem_complete=older_mem_complete,
            shadow_fills=wp.shadow_fills,
            shadow_inflight=wp.shadow_inflight,
        )
        outcome = self.defense.on_squash(ctx)
        fetch_resume = squash_point + self.config.mispredict_penalty + outcome.stall_cycles
        if obs is not None:
            trace.emit(
                fetch_resume,
                "squash.end",
                (
                    pc,
                    fetch_resume,
                    outcome.stall_cycles,
                    outcome.stage("t3_mshr_clean"),
                    outcome.stage("t4_inflight_wait"),
                    outcome.stage("t5_rollback"),
                    outcome.stage("dummy"),
                    outcome.stage("padding"),
                    outcome.invalidated_l1,
                    outcome.invalidated_l2,
                    outcome.restored_l1,
                ),
            )
            self._st_squashes.inc()
            self._st_wp_executed.inc(wp.executed)
            self._st_wp_loads.inc(wp.loads_issued)
            self._st_wp_inflight.inc(wp.inflight)
            self._st_defense_stall.inc(outcome.stall_cycles)
            self._st_squash_stall.add(outcome.stall_cycles)
        result.squashes.append(
            SquashEvent(
                branch_pc=pc,
                resolve_cycle=resolve,
                squash_cycle=squash_point,
                fetch_resume=fetch_resume,
                wrong_path_executed=wp.executed,
                transient_loads=wp.loads_issued,
                inflight_transient=wp.inflight,
                outcome=outcome,
            )
        )
        return fetch_resume

    # ------------------------------------------------------------------
    # wrong-path (transient) execution
    # ------------------------------------------------------------------

    def _run_wrong_path(
        self,
        program: Program,
        pc: int,
        regs: RegisterFile,
        ready: Dict[str, int],
        branch_dispatch: int,
        squash_point: int,
        epoch: int,
        fence_barrier: int,
    ) -> _WrongPathResult:
        """Execute the mispredicted path until the squash point.

        Uses a speculative copy of register values/ready-times. Loads go
        through :meth:`_issue_load` against the squash point and ``epoch``:
        under the defense's policy they install lines (recorded under
        ``epoch`` for the defense to roll back), fill shadow structures, or
        die. Stores, flushes and timer reads have no speculative side
        effects (they only perform at retirement on the modelled machine).
        Nested branches follow their predicted direction without opening
        nested epochs: the outer squash discards everything at once.
        """
        cfg = self.config
        code = program.decoded()
        n_code = len(code)
        spec_values: Dict[str, int] = {}
        spec_ready = dict(ready)
        spec_values_get = spec_values.get
        spec_ready_get = spec_ready.get
        raw_get = regs.raw.get
        barrier = fence_barrier
        out = _WrongPathResult()

        addr_mask = self.hierarchy.addr_mask
        dram_peek = self.hierarchy.dram.peek
        issue_load = self._issue_load
        predictor_counter = self.predictor.counter
        alu_latency = cfg.alu_latency
        mul_latency = cfg.mul_latency
        div_latency = cfg.div_latency
        # Shared with the committed path: a transient division occupies the
        # same physical divider, and the squash does not release it.
        acquire_div = self.fu_pool.acquire_div
        dispatch_width = cfg.dispatch_width
        # Bounded by the ROB: an instruction issues speculatively only if
        # it fits behind the branch.
        max_wrong_path = cfg.rob_entries

        count = 0
        while 0 <= pc < n_code and count < max_wrong_path:
            ins = code[pc]
            op = ins[0]
            dispatch = branch_dispatch + 1 + count // dispatch_width
            if dispatch >= squash_point:
                break
            count += 1
            next_pc = pc + 1

            if op == OP_INT_OP_IMM:
                src1 = ins[2]
                start = spec_ready_get(src1, 0)
                if dispatch > start:
                    start = dispatch
                v1 = spec_values_get(src1)
                if v1 is None:
                    v1 = raw_get(src1, 0)
                spec_values[ins[1]] = ins[4](v1, ins[3]) & WORD_MASK
                fu = ins[5]
                if fu == FU_DIV:
                    # Gated at the squash point on its *issue slot*: one that
                    # reaches the divider in time occupies it past the squash.
                    issued = acquire_div(start, div_latency, squash_point)
                    spec_ready[ins[1]] = NEVER if issued is None else issued + div_latency
                else:
                    spec_ready[ins[1]] = start + (mul_latency if fu else alu_latency)

            elif op == OP_INT_OP:
                src1 = ins[2]
                src2 = ins[3]
                start = spec_ready_get(src1, 0)
                r2 = spec_ready_get(src2, 0)
                if r2 > start:
                    start = r2
                if dispatch > start:
                    start = dispatch
                v1 = spec_values_get(src1)
                if v1 is None:
                    v1 = raw_get(src1, 0)
                v2 = spec_values_get(src2)
                if v2 is None:
                    v2 = raw_get(src2, 0)
                spec_values[ins[1]] = ins[4](v1, v2) & WORD_MASK
                fu = ins[5]
                if fu == FU_DIV:
                    issued = acquire_div(start, div_latency, squash_point)
                    spec_ready[ins[1]] = NEVER if issued is None else issued + div_latency
                else:
                    spec_ready[ins[1]] = start + (mul_latency if fu else alu_latency)

            elif op == OP_LOAD:
                base = ins[2]
                start = spec_ready_get(base, 0)
                if dispatch > start:
                    start = dispatch
                if barrier > start:
                    start = barrier
                vb = spec_values_get(base)
                if vb is None:
                    vb = raw_get(base, 0)
                addr = (vb + ins[3]) & addr_mask
                _, complete, served = issue_load(addr, start, squash_point, epoch, NEVER)
                if served is not None:
                    out.loads_issued += 1
                    if served == SHADOW_FILL:
                        out.shadow_fills += 1
                        if complete == NEVER:
                            out.shadow_inflight += 1
                    elif complete == NEVER:
                        out.inflight += 1
                dst = ins[1]
                if complete != NEVER:
                    spec_values[dst] = dram_peek(addr)
                spec_ready[dst] = complete

            elif op == OP_LOAD_IMM:
                spec_values[ins[1]] = ins[2]
                spec_ready[ins[1]] = dispatch + alu_latency

            elif op == OP_BRANCH:
                # Peek the counter without polluting prediction statistics.
                predicted = predictor_counter(pc) >= WEAK_TAKEN
                next_pc = ins[4] if predicted else pc + 1

            elif op == OP_FENCE:
                fence_at = dispatch
                for t in spec_ready.values():
                    if fence_at < t < NEVER:
                        fence_at = t
                if fence_at > barrier:
                    barrier = fence_at

            elif op == OP_READ_TIMER:
                # Serialising: younger wrong-path work would not execute
                # before the squash anyway; the destination never readies.
                spec_ready[ins[1]] = NEVER

            elif op == OP_JUMP:
                next_pc = ins[1]

            elif op == OP_HALT:
                break

            # Stores (they sit in the store queue), flushes (clflush is
            # ordered) and nops have no speculative effect.
            out.executed += 1
            pc = next_pc

        return out
