"""Batched execution backend: memoized whole-round transition replay.

Attack campaigns run the *same* short program thousands of times against a
machine whose state cycles through a small number of configurations (the
golden-round latencies in ``tests/test_golden_rounds.py`` are literally
periodic). The scalar :class:`~repro.cpu.core.Core` re-simulates every
round; this backend instead treats one ``run()`` as a **state transition**

    (machine state, program, out-of-band DRAM writes)  ->
        (next machine state, RunResult, stats/trace outputs)

records the transition once via the scalar path, and *replays* it — a
sparse structure-of-arrays restore plus output reconstruction — whenever
the same left-hand side recurs. Replay is bit-identical by construction:
everything the scalar round changed (cache sets/ways, MSHR entries,
predictor counters, replacement-RNG state, DRAM words, stats bags,
registry counters, distribution reservoirs, trace events, squash records)
is captured in the transition and re-applied.

State is compared by **interned canonical tokens**, never by replaying
history: each cache set's residency is encoded into a dense ``int64``
row-per-way array (numpy, structure-of-arrays) and interned to a small
signature; per-cache signature vectors plus canonical MSHR-occupancy,
predictor-table, RNG-state and DRAM-content encodings intern to one
integer token per machine state. Between rounds, cheap *guard* counters
(cache versions + hit/miss counts, MSHR/predictor versions, RNG draw
counts, pending coherence downgrades) prove the token still describes the
live machine; any out-of-band mutation triggers a full recapture.

The backend falls back to the always-correct scalar path whenever a round
needs it (reusing the trace-level flags hoisted in the perf PR):

* a commit/full-level trace is attached (per-instruction event volume),
* ``record_timeline`` or an explicit ``registers`` argument is used,
* the noise model is enabled (every instruction draws from the noise RNG),
* the defense is not :attr:`~repro.defense.base.Defense.batch_replay_safe`
  (e.g. FuzzyCleanup draws dummy cycles from its own RNG),
* the machine state is not canonicalizable (open speculation epochs,
  live speculative lines, pending coherence downgrades), or
* the program keeps producing fresh states (eviction-set rounds advance
  the replacement RNG every round) — after a streak of memo misses with
  no hits the program is demoted to pure scalar execution.

Rounds that fall back still mutate the same machine; the next memoizable
round simply recaptures the canonical state first.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cache.hierarchy import CacheHierarchy
from ..cache.line import CacheLine, CoherenceState
from ..cache.setassoc import CacheStats, SetAssociativeCache, snapshot_set
from ..isa.program import Program
from ..isa.registers import RegisterFile
from ..memory.dram import DramStats
from ..memory.mshr import MshrEntry, MshrStats
from ..obs.registry import Counter, Distribution
from .core import Core
from .predictor import PredictorStats
from .timing import RunResult

#: Per-way encoding of an empty way (line_addr of -1 cannot occur).
_EMPTY_ROW = (-1, -1, -1, -1, -1, -1, -1)

#: Stable small-int encoding of the MESI-lite states.
_STATE_CODE = {
    CoherenceState.MODIFIED: 0,
    CoherenceState.EXCLUSIVE: 1,
    CoherenceState.SHARED: 2,
    CoherenceState.INVALID: 3,
}

#: Field-name tuples of the stats bags a round mutates, in the order the
#: record/replay code zips them with the live bag objects.
_BAG_FIELDS = tuple(
    tuple(f.name for f in dataclass_fields(cls))
    for cls in (CacheStats, CacheStats, DramStats, MshrStats, PredictorStats)
)

#: Signature id of an all-empty cache set (reserved; interning starts at 1).
_EMPTY_SIG = 0


def _encode_set(snap: tuple) -> bytes:
    """Dense int64 row-per-way encoding of one set snapshot (SoA row)."""
    flat: List[int] = []
    for entry in snap:
        if entry is None:
            flat.extend(_EMPTY_ROW)
        else:
            flat.append(entry[0])
            flat.append(_STATE_CODE[entry[1]])
            flat.append(1 if entry[2] else 0)
            flat.append(1 if entry[3] else 0)
            flat.append(-1 if entry[4] is None else entry[4])
            flat.append(entry[5])
            flat.append(entry[6])
    return np.asarray(flat, dtype=np.int64).tobytes()


def _rng_state_key(rng) -> tuple:
    """Hashable canonical form of a numpy Generator's state."""
    state = rng.bit_generator.state
    inner = state["state"]
    return (
        state["bit_generator"],
        tuple(sorted(inner.items())) if isinstance(inner, dict) else inner,
        state.get("has_uint32", 0),
        state.get("uinteger", 0),
    )


class _CacheCanon:
    """Incrementally maintained canonical view of one cache level.

    ``sigs[set_index]`` is the interned signature of that set's residency
    (0 = empty). The vector doubles as the per-cache component of the
    machine-state token (``sigs.tobytes()``) and is patched in place from
    each recorded transition's touched-set exit signatures.
    """

    __slots__ = ("cache", "sigs", "valid")

    def __init__(self, cache: SetAssociativeCache) -> None:
        self.cache = cache
        self.sigs = np.zeros(cache.geometry.sets, dtype=np.int64)
        self.valid = False


class _Transition:
    """One recorded round: sparse state diff + replayable outputs."""

    __slots__ = (
        "exit_token",
        "program_name",
        "cycles",
        "instructions",
        "registers_raw",
        "squashes",
        "l1_changes",
        "l2_changes",
        "l1_sigs",
        "l2_sigs",
        "mshr_entries",
        "mshr_min_complete",
        "pred_counters",
        "bag_deltas",
        "defense_deltas",
        "counter_incs",
        "dist_adds",
        "trace_events",
        "rebase_spots",
        "base_epoch",
        "epochs_opened",
        "rng_updates",
        "dram_writes",
    )


class BatchedCore(Core):
    """Drop-in :class:`Core` that memoizes and replays repeated rounds."""

    #: A program whose first N memo lookups all miss (state never repeats,
    #: e.g. eviction-set rounds advancing the replacement RNG) is demoted to
    #: pure scalar execution — recording is then wasted work.
    DISABLE_AFTER_MISSES = 16

    #: Hard caps keeping pathological workloads bounded: transitions
    #: touching more sets than this, or memo tables beyond this many
    #: entries, stop being recorded (replay of existing entries continues).
    MAX_TOUCHED_SETS = 512
    MAX_MEMO_ENTRIES = 4096

    def __init__(self, hierarchy: CacheHierarchy, defense, **kwargs) -> None:
        super().__init__(hierarchy, defense, **kwargs)
        self._canon_l1 = _CacheCanon(hierarchy.l1)
        self._canon_l2 = _CacheCanon(hierarchy.l2)
        self._sig_intern: Dict[bytes, int] = {}
        self._token_intern: Dict[tuple, int] = {}
        self._memo: Dict[tuple, _Transition] = {}
        #: id(program) -> [hits, misses, program] (ref pinned so ids stay
        #: unique for the core's lifetime).
        self._program_stats: Dict[int, list] = {}
        self._token: Optional[int] = None
        self._guard: Optional[tuple] = None
        self._noise_on = self.noise.enabled
        self._defense_chain = self._build_defense_chain(defense)
        self._defense_safe = all(
            getattr(d, "batch_replay_safe", False) for d in self._defense_chain
        )
        self._rngs = self._find_rng_policies(hierarchy)
        self._rngs_guarded = all(hasattr(p, "draws") for p in self._rngs)
        self._bags = (
            hierarchy.l1.stats,
            hierarchy.l2.stats,
            hierarchy.dram.stats,
            hierarchy.mshr.stats,
            self.predictor.stats,
        )
        if hierarchy.dram.journal is None:
            hierarchy.dram.journal = []
        #: Diagnostics for the differential harness's divergence bisector:
        #: how the most recent ``run()`` executed.
        self.last_round_info: dict = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _build_defense_chain(defense) -> tuple:
        """The defense plus wrapped inner defenses (ConstantTime -> Cleanup)."""
        from ..defense.base import Defense

        chain = []
        node = defense
        while isinstance(node, Defense) and node not in chain:
            chain.append(node)
            node = getattr(node, "inner", None)
        return tuple(chain)

    @staticmethod
    def _find_rng_policies(hierarchy: CacheHierarchy) -> tuple:
        """Replacement policies that hold an RNG (walking NoMo wrappers)."""
        out = []
        for cache in (hierarchy.l1, hierarchy.l2):
            policy = cache.policy
            inner = getattr(policy, "inner", None)
            if inner is not None and hasattr(inner, "_rng"):
                policy = inner
            if hasattr(policy, "_rng"):
                out.append(policy)
        return tuple(out)

    # ------------------------------------------------------------------
    # guards and canonical state
    # ------------------------------------------------------------------

    def _read_guard(self) -> tuple:
        """Cheap counters proving no out-of-band mutation since capture."""
        h = self.hierarchy
        l1, l2, guard = h.l1, h.l2, h.l1_guard
        gs = guard.stats
        return (
            l1.version,
            l1.stats.hits,
            l1.stats.misses,
            l2.version,
            l2.stats.hits,
            l2.stats.misses,
            h.mshr.version,
            self.predictor.version,
            h.tracker._next_epoch,
            len(guard._pending),
            gs.delayed_downgrades,
            gs.served_downgrades,
            tuple(p.draws for p in self._rngs),
        )

    def _intern_set(self, snap: tuple) -> int:
        encoded = _encode_set(snap)
        sig = self._sig_intern.get(encoded)
        if sig is None:
            sig = len(self._sig_intern) + 1
            self._sig_intern[encoded] = sig
        return sig

    def _rebuild_canon(self, canon: _CacheCanon) -> bool:
        """Full canonical rebuild; False if speculative lines are live."""
        sigs = canon.sigs
        for set_index, ways in enumerate(canon.cache._sets):
            if ways is None or not any(ways):
                sigs[set_index] = _EMPTY_SIG
                continue
            for line in ways:
                if line is not None and line.speculative:
                    canon.valid = False
                    return False
            sigs[set_index] = self._intern_set(snapshot_set(ways))
        canon.valid = True
        return True

    def _capture_token(self) -> Optional[int]:
        """Intern the current machine state; None if not canonicalizable."""
        h = self.hierarchy
        if h.tracker._open or h.l1_guard._pending:
            return None
        if not self._canon_l1.valid and not self._rebuild_canon(self._canon_l1):
            return None
        if not self._canon_l2.valid and not self._rebuild_canon(self._canon_l2):
            return None
        mshr_key = tuple(
            sorted(
                (
                    e.line_addr,
                    e.issue_cycle,
                    e.complete_cycle,
                    e.speculative,
                    -1 if e.victim_line is None else e.victim_line,
                    e.victim_dirty,
                    e.merged,
                )
                for e in h.mshr._entries.values()
            )
        )
        key = (
            self._canon_l1.sigs.tobytes(),
            self._canon_l2.sigs.tobytes(),
            mshr_key,
            tuple(sorted(self.predictor._counters.items())),
            tuple(_rng_state_key(p._rng) for p in self._rngs),
            tuple(sorted(h.dram._words.items())),
        )
        token = self._token_intern.get(key)
        if token is None:
            token = len(self._token_intern) + 1
            self._token_intern[key] = token
        return token

    def _ensure_token(self) -> Optional[int]:
        guard = self._read_guard()
        if self._token is not None and guard == self._guard:
            return self._token
        # First round, or something mutated the machine out of band:
        # recapture from scratch.
        self._canon_l1.valid = False
        self._canon_l2.valid = False
        self._token = self._capture_token()
        self._guard = self._read_guard() if self._token is not None else None
        return self._token

    def _invalidate_token(self) -> None:
        self._token = None
        self._guard = None
        self._canon_l1.valid = False
        self._canon_l2.valid = False

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------

    def run(
        self,
        program: Program,
        registers: Optional[RegisterFile] = None,
        max_instructions: int = 1_000_000,
    ) -> RunResult:
        dram = self.hierarchy.dram
        journal = dram.journal
        if journal is None:
            journal = dram.journal = []
        # Writes performed since the previous run (e.g. the gadget poking
        # the next secret bit) are part of the transition's left-hand side.
        out_of_band = tuple(journal)
        del journal[:]

        obs = self.obs
        trace = obs.trace if obs is not None else None
        if (
            registers is not None
            or self.record_timeline
            or self._noise_on
            or not self._defense_safe
            or not self._rngs_guarded
            or (trace is not None and trace.commit_events)
            # Interference timelines couple separate runs (victim records,
            # attacker replays) — memoized replay cannot see the coupling,
            # so such cores always execute scalar. (Per-run FuPool divider
            # state needs no demotion: replaying a round replays it.)
            or self.port_timeline is not None
            or self.contended_timeline is not None
        ):
            return self._run_scalar(program, registers, max_instructions)

        prog_id = id(program)
        pstat = self._program_stats.get(prog_id)
        if pstat is None:
            pstat = self._program_stats[prog_id] = [0, 0, program]
        elif pstat[0] == 0 and pstat[1] >= self.DISABLE_AFTER_MISSES:
            # This program never revisits a state — stop paying for capture.
            return self._run_scalar(program, None, max_instructions)

        token = self._ensure_token()
        if token is None:
            return self._run_scalar(program, None, max_instructions)

        key = (token, program, out_of_band, obs, max_instructions)
        transition = self._memo.get(key)
        if transition is not None:
            pstat[0] += 1
            return self._replay(transition, obs)
        pstat[1] += 1
        return self._record(key, program, max_instructions)

    def run_batch(
        self,
        program: Program,
        rounds: int,
        max_instructions: int = 1_000_000,
    ) -> List[RunResult]:
        """Run ``program`` ``rounds`` times (the campaign round loop)."""
        return [
            self.run(program, max_instructions=max_instructions)
            for _ in range(rounds)
        ]

    # ------------------------------------------------------------------
    # scalar fallback
    # ------------------------------------------------------------------

    def _run_scalar(self, program, registers, max_instructions) -> RunResult:
        self._invalidate_token()
        self.last_round_info = {"mode": "scalar", "program": program.name}
        try:
            return Core.run(self, program, registers, max_instructions)
        finally:
            journal = self.hierarchy.dram.journal
            if journal:
                del journal[:]

    # ------------------------------------------------------------------
    # record
    # ------------------------------------------------------------------

    def _record(self, key, program, max_instructions) -> RunResult:
        h = self.hierarchy
        l1, l2, mshr, dram = h.l1, h.l2, h.mshr, h.dram
        predictor = self.predictor
        obs = self.obs
        trace = obs.trace if obs is not None else None

        rec_l1: dict = {}
        rec_l2: dict = {}
        l1._recording = rec_l1
        l2._recording = rec_l2
        l1._record_spill = False
        l2._record_spill = False
        counter_journal: list = []
        dist_journal: list = []
        Counter._journal = counter_journal
        Distribution._journal = dist_journal

        bags_before = tuple(
            tuple(getattr(bag, name) for name in names)
            for bag, names in zip(self._bags, _BAG_FIELDS)
        )
        defense_before = tuple(
            tuple(getattr(d, attr) for attr in d.replay_counter_attrs)
            for d in self._defense_chain
        )
        draws_before = tuple(p.draws for p in self._rngs)
        base_epoch = h.tracker._next_epoch
        mshr_version_before = mshr.version
        pred_version_before = predictor.version
        emitted_before = trace.emitted if trace is not None else 0

        try:
            result = Core.run(self, program, None, max_instructions)
        except BaseException:
            self._invalidate_token()
            journal = dram.journal
            if journal:
                del journal[:]
            raise
        finally:
            l1._recording = None
            l2._recording = None
            Counter._journal = None
            Distribution._journal = None

        writes = tuple(dram.journal)
        del dram.journal[:]

        storable = (
            not l1._record_spill
            and not l2._record_spill
            and len(rec_l1) + len(rec_l2) <= self.MAX_TOUCHED_SETS
            and not h.tracker._open
            and not h.l1_guard._pending
            and len(self._memo) < self.MAX_MEMO_ENTRIES
        )

        trace_events: tuple = ()
        rebase_spots: tuple = ()
        if trace is not None:
            emitted = trace.emitted - emitted_before
            if emitted:
                if emitted > len(trace._buf):
                    storable = False  # ring wrapped mid-round
                else:
                    trace_events = tuple(list(trace._buf)[-emitted:])
                    spots = []
                    for index, (_cycle, kind, data) in enumerate(trace_events):
                        if kind == "spec.delta":
                            spots.append((index, 0))
                        elif kind == "cache.install" and data[3] is not None:
                            spots.append((index, 3))
                    rebase_spots = tuple(spots)

        l1_changes, l1_sigs, clean1 = self._diff_cache(l1, rec_l1)
        l2_changes, l2_sigs, clean2 = self._diff_cache(l2, rec_l2)
        storable = storable and clean1 and clean2

        exit_token: Optional[int] = None
        if storable:
            # Patch the canonical view with the touched sets' exit state,
            # then intern the new machine token incrementally.
            for set_index, sig in l1_sigs:
                self._canon_l1.sigs[set_index] = sig
            for set_index, sig in l2_sigs:
                self._canon_l2.sigs[set_index] = sig
            exit_token = self._capture_token()

        if exit_token is None:
            self._invalidate_token()
            self.last_round_info = {
                "mode": "record-unreplayable",
                "program": program.name,
            }
            return result

        transition = _Transition()
        transition.exit_token = exit_token
        transition.program_name = result.program_name
        transition.cycles = result.cycles
        transition.instructions = result.instructions
        transition.registers_raw = dict(result.registers.raw)
        transition.squashes = tuple(result.squashes)
        transition.l1_changes = l1_changes
        transition.l2_changes = l2_changes
        transition.l1_sigs = l1_sigs
        transition.l2_sigs = l2_sigs
        if mshr.version != mshr_version_before:
            transition.mshr_entries = tuple(
                (
                    e.line_addr,
                    e.issue_cycle,
                    e.complete_cycle,
                    e.speculative,
                    e.victim_line,
                    e.victim_dirty,
                    e.merged,
                )
                for e in mshr._entries.values()
            )
            transition.mshr_min_complete = mshr._min_complete
        else:
            transition.mshr_entries = None
            transition.mshr_min_complete = mshr._min_complete
        transition.pred_counters = (
            dict(predictor._counters)
            if predictor.version != pred_version_before
            else None
        )
        transition.bag_deltas = tuple(
            tuple(
                getattr(bag, name) - before
                for name, before in zip(names, befores)
            )
            for bag, names, befores in zip(self._bags, _BAG_FIELDS, bags_before)
        )
        transition.defense_deltas = tuple(
            tuple(
                getattr(d, attr) - before
                for attr, before in zip(d.replay_counter_attrs, befores)
            )
            for d, befores in zip(self._defense_chain, defense_before)
        )
        # Compact the counter journal: order is irrelevant for +=, so sum
        # per stat (dict preserves first-seen order for determinism).
        summed: dict = {}
        for stat, n in counter_journal:
            summed[stat] = summed.get(stat, 0) + n
        transition.counter_incs = tuple(summed.items())
        transition.dist_adds = tuple(dist_journal)
        transition.trace_events = trace_events
        transition.rebase_spots = rebase_spots
        transition.base_epoch = base_epoch
        transition.epochs_opened = h.tracker._next_epoch - base_epoch
        transition.rng_updates = tuple(
            (p, p.draws - before, p._rng.bit_generator.state)
            for p, before in zip(self._rngs, draws_before)
            if p.draws != before
        )
        transition.dram_writes = writes

        self._memo[key] = transition
        self._token = exit_token
        self._guard = self._read_guard()
        self.last_round_info = {"mode": "record", "program": program.name}
        return result

    def _diff_cache(self, cache, recording: dict):
        """Per-way diff of touched sets vs. their copy-on-first-touch
        snapshots, plus exit signatures. ``clean`` is False when a touched
        set leaves speculative lines behind (epoch numbers would leak into
        the canonical state)."""
        changes: List[tuple] = []
        sigs: List[tuple] = []
        sets = cache._sets
        for set_index, before in recording.items():
            ways = sets[set_index]
            if ways is None:  # cleared since the snapshot
                ways = [None] * len(before)
            after = snapshot_set(ways)
            for line in ways:
                if line is not None and line.speculative:
                    return (), (), False
            for way, (old, new) in enumerate(zip(before, after)):
                if old != new:
                    changes.append((set_index, way, new))
            sigs.append(
                (
                    set_index,
                    _EMPTY_SIG if not any(ways) else self._intern_set(after),
                )
            )
        return tuple(changes), tuple(sigs), True

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------

    def _replay(self, transition: _Transition, obs) -> RunResult:
        h = self.hierarchy
        l1, l2, mshr, dram = h.l1, h.l2, h.mshr, h.dram

        for cache, canon, changes, sigs in (
            (l1, self._canon_l1, transition.l1_changes, transition.l1_sigs),
            (l2, self._canon_l2, transition.l2_changes, transition.l2_sigs),
        ):
            sets = cache._sets
            where = cache._where
            n_ways = cache.geometry.ways
            for set_index, way, entry in changes:
                ways = sets[set_index]
                if ways is None:
                    ways = sets[set_index] = [None] * n_ways
                if entry is None:
                    ways[way] = None
                else:
                    # Fresh line objects: recorded tuples must never alias
                    # live lines a later round would mutate.
                    line = CacheLine(
                        entry[0], entry[1], entry[2], entry[3],
                        entry[4], entry[5], entry[6],
                    )
                    ways[way] = line
                    where[entry[0]] = (set_index, way)
            canon_sigs = canon.sigs
            for set_index, sig in sigs:
                canon_sigs[set_index] = sig

        words = dram._words
        for word, value in transition.dram_writes:
            words[word] = value

        if transition.mshr_entries is not None:
            entries = mshr._entries
            entries.clear()
            for t in transition.mshr_entries:
                entries[t[0]] = MshrEntry(t[0], t[1], t[2], t[3], t[4], t[5], t[6])
            mshr._min_complete = transition.mshr_min_complete

        if transition.pred_counters is not None:
            self.predictor._counters = dict(transition.pred_counters)

        for bag, names, deltas in zip(self._bags, _BAG_FIELDS, transition.bag_deltas):
            for name, delta in zip(names, deltas):
                if delta:
                    setattr(bag, name, getattr(bag, name) + delta)
        for defense, deltas in zip(self._defense_chain, transition.defense_deltas):
            for attr, delta in zip(defense.replay_counter_attrs, deltas):
                if delta:
                    setattr(defense, attr, getattr(defense, attr) + delta)
        for policy, draws_delta, state in transition.rng_updates:
            policy.draws += draws_delta
            policy._rng.bit_generator.state = state
        for stat, n in transition.counter_incs:
            stat._count += n
        for dist, value in transition.dist_adds:
            dist.add(value)

        if obs is not None and transition.trace_events:
            offset = h.tracker._next_epoch - transition.base_epoch
            emit = obs.trace.emit
            if offset == 0:
                for cycle, kind, data in transition.trace_events:
                    emit(cycle, kind, data)
            else:
                events = list(transition.trace_events)
                for index, pos in transition.rebase_spots:
                    cycle, kind, data = events[index]
                    events[index] = (
                        cycle,
                        kind,
                        data[:pos] + (data[pos] + offset,) + data[pos + 1:],
                    )
                for cycle, kind, data in events:
                    emit(cycle, kind, data)
        h.tracker._next_epoch += transition.epochs_opened

        registers = RegisterFile()
        registers.restore(transition.registers_raw)
        result = RunResult(
            program_name=transition.program_name,
            cycles=transition.cycles,
            instructions=transition.instructions,
            registers=registers,
        )
        result.squashes = list(transition.squashes)
        if obs is not None:
            result.attach_stats_source(obs.registry.to_dict)

        self._token = transition.exit_token
        self._guard = self._read_guard()
        self.last_round_info = {
            "mode": "replay",
            "program": transition.program_name,
        }
        return result


# ----------------------------------------------------------------------
# differential-harness helpers
# ----------------------------------------------------------------------

def machine_fingerprint(core: Core) -> tuple:
    """Full comparable snapshot of a core's machine state.

    Built from the same canonical encodings the batched backend interns, so
    two machines (one per backend) that diverge in *any* replay-relevant
    component produce different fingerprints. Used by ``tests/differential``
    to pin state equality after every round.
    """
    h = core.hierarchy

    def cache_state(cache: SetAssociativeCache) -> tuple:
        out = []
        for set_index, ways in enumerate(cache._sets):
            if ways is not None and any(ways):
                out.append((set_index, snapshot_set(ways)))
        return tuple(out)

    mshr_state = tuple(
        sorted(
            (
                e.line_addr,
                e.issue_cycle,
                e.complete_cycle,
                e.speculative,
                -1 if e.victim_line is None else e.victim_line,
                e.victim_dirty,
                e.merged,
            )
            for e in h.mshr._entries.values()
        )
    )
    rng_states = tuple(
        _rng_state_key(p._rng)
        for p in BatchedCore._find_rng_policies(h)
    )
    return (
        cache_state(h.l1),
        cache_state(h.l2),
        mshr_state,
        tuple(sorted(core.predictor._counters.items())),
        rng_states,
        tuple(sorted(h.dram._words.items())),
        h.tracker._next_epoch,
        tuple(h.tracker.open_epochs()),
        len(h.l1_guard._pending),
    )


def stats_fingerprint(core: Core) -> Tuple[tuple, ...]:
    """Comparable snapshot of every stats bag a round can mutate."""
    h = core.hierarchy
    bags = (h.l1.stats, h.l2.stats, h.dram.stats, h.mshr.stats, core.predictor.stats)
    out = [
        tuple(getattr(bag, name) for name in names)
        for bag, names in zip(bags, _BAG_FIELDS)
    ]
    chain = BatchedCore._build_defense_chain(core.defense)
    for defense in chain:
        out.append(tuple(getattr(defense, a) for a in defense.replay_counter_attrs))
    return tuple(out)
