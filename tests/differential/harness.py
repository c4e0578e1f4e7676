"""Run one workload on the core, record every round, and diff the records.

A *case* is a small JSON-serializable dict describing a deterministic
multi-round workload. Two modes:

* ``"attack"`` — a full :class:`~repro.attack.unxpec.UnxpecAttack` driven
  through a secret-bit sequence (what the campaign engine actually runs);
* ``"program"`` — a raw instruction list executed round after round on a
  bare core with a configurable cache/MSHR geometry, optionally with
  per-round out-of-band DRAM pokes (what the Hypothesis property
  generates).

:func:`run_case` executes a case and captures a *round record* per
round: latency/cycles/instructions, final registers, the squash trace, the
squash-level event-trace tail, the registry snapshot, and full machine +
stats fingerprints (:func:`machine_fingerprint`, :func:`stats_fingerprint`).
:func:`golden_rows` condenses records into the form checked into each
corpus case's ``expected`` list: the three counts as integers, every other
field as the sha256 of its ``repr``. :func:`first_divergence` diffs two
record lists (full or condensed) down to the first (round, field)
mismatch, and :func:`divergence_report` shrinks a mismatch to that single
round, re-running it with a per-instruction timeline — the artifact CI
uploads when a differential test fails.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.attack import GadgetParams, UnxpecAttack
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.setassoc import SetAssociativeCache
from repro.common.config import CacheGeometry, CoreConfig, SystemConfig
from repro.cpu.core import Core
from repro.cpu.noise import campaign_noise
from repro.defense.base import Defense
from repro.defense.cachesquash import CacheSquash
from repro.defense.cleanupspec import CleanupSpec
from repro.defense.constant_time import ConstantTimeRollback
from repro.defense.delay_on_miss import DelayOnMiss
from repro.defense.safespec import SafeSpec
from repro.defense.unsafe import UnsafeBaseline
from repro.isa import ProgramBuilder
from repro.obs import Observability, set_default_obs

#: Directory of checked-in regression cases (every past divergence and the
#: golden-round configurations live here).
CORPUS_DIR = Path(__file__).parent / "corpus"

#: Fields of a round record, in the order they are compared.
ROUND_FIELDS = (
    "latency",
    "cycles",
    "instructions",
    "registers",
    "squashes",
    "trace",
    "registry",
    "machine",
    "stats",
)

#: Fields a golden row stores verbatim; the rest are stored as digests.
COUNT_FIELDS = ("latency", "cycles", "instructions")

_DEFENSES = {
    "cleanup": lambda h: CleanupSpec(h),
    "unsafe": lambda h: UnsafeBaseline(h),
    "delay": lambda h: DelayOnMiss(h),
    "constant": lambda h: ConstantTimeRollback(h, constant_cycles=40),
    "safespec": lambda h: SafeSpec(h),
    "cachesquash": lambda h: CacheSquash(h),
}


def build_program(specs) -> object:
    """Assemble instruction specs (forward branches only, so programs
    always terminate); shares the encoding of the specct property tests."""
    b = ProgramBuilder("diff-prop")
    for spec in specs:
        op = spec[0]
        if op == "li":
            b.li(spec[1], spec[2])
        elif op == "op":
            b.op(spec[1], spec[2], spec[3], spec[4])
        elif op == "opi":
            b.opi(spec[1], spec[2], spec[3], spec[4])
        elif op == "load":
            b.load(spec[1], spec[2], spec[3])
        elif op == "store":
            b.store(spec[1], spec[2], spec[3])
        elif op == "flush":
            b.flush(spec[1])
        elif op == "branch":
            b.branch(spec[1], spec[2], spec[3], "end")
        elif op == "fence":
            b.fence()
        else:
            b.nop()
    b.label("end")
    b.halt()
    return b.build()


def snapshot_set(ways) -> tuple:
    """Immutable per-way snapshot of one set's lines (``None`` when empty)."""
    return tuple(
        None
        if line is None
        else (
            line.line_addr,
            line.state,
            line.dirty,
            line.speculative,
            line.epoch,
            line.installed_at,
            line.last_access,
        )
        for line in ways
    )


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


def _policy_rng(policy):
    """The policy's generator; a fresh one at the stream's start if the
    policy has not drawn yet (it builds its generator on first use)."""
    rng = policy._rng
    return policy._rng_factory() if rng is None else rng


def _rng_policies(hierarchy: CacheHierarchy) -> tuple:
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


def _defense_chain(defense) -> tuple:
    """The defense plus wrapped inner defenses (ConstantTime -> Cleanup)."""
    chain = []
    node = defense
    while isinstance(node, Defense) and node not in chain:
        chain.append(node)
        node = getattr(node, "inner", None)
    return tuple(chain)


def machine_fingerprint(core: Core) -> tuple:
    """Full comparable snapshot of a core's machine state.

    Two machines that differ in any cache line, MSHR entry, predictor
    counter, replacement-RNG state, DRAM word or open speculation epoch
    produce different fingerprints.
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
    return (
        cache_state(h.l1),
        cache_state(h.l2),
        mshr_state,
        tuple(sorted(core.predictor._counters.items())),
        tuple(_rng_state_key(_policy_rng(p)) for p in _rng_policies(h)),
        tuple(sorted(h.dram._words.items())),
        h.tracker._next_epoch,
        tuple(h.tracker.open_epochs()),
        len(h.l1_guard._pending),
    )


def stats_fingerprint(core: Core) -> Tuple[tuple, ...]:
    """Comparable snapshot of every stats bag a round can mutate.

    The cache, DRAM, MSHR and predictor stats dataclasses, then the
    :class:`~repro.defense.base.DefenseCounters` of the defense and of any
    defense it wraps.
    """
    h = core.hierarchy
    bags = (h.l1.stats, h.l2.stats, h.dram.stats, h.mshr.stats, core.predictor.stats)
    out = [astuple(bag) for bag in bags]
    for defense in _defense_chain(core.defense):
        out.append(tuple(sorted(vars(defense.counters).items())))
    return tuple(out)


def _squash_key(event) -> tuple:
    outcome = event.outcome
    return (
        event.branch_pc,
        event.resolve_cycle,
        event.squash_cycle,
        event.fetch_resume,
        event.wrong_path_executed,
        event.transient_loads,
        event.inflight_transient,
        outcome.defense,
        outcome.stall_cycles,
        tuple(sorted(outcome.breakdown.items())),
        outcome.invalidated_l1,
        outcome.invalidated_l2,
        outcome.restored_l1,
    )


def _trace_tail(trace, emitted_before: int) -> tuple:
    emitted = trace.emitted - emitted_before
    if emitted <= 0:
        return ()
    buffered = list(trace._buf)
    return tuple(buffered[-emitted:]) if emitted <= len(buffered) else tuple(buffered)


def _round_record(core, obs, result, latency, emitted_before) -> dict:
    return {
        "latency": latency,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "registers": tuple(sorted(result.registers.raw.items())),
        "squashes": tuple(_squash_key(e) for e in result.squashes),
        "trace": _trace_tail(obs.trace, emitted_before),
        "registry": json.dumps(obs.registry.to_dict(), sort_keys=True, default=str),
        "machine": machine_fingerprint(core),
        "stats": stats_fingerprint(core),
    }


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def golden_rows(rows: Sequence[dict]) -> List[dict]:
    """Condense round records to the corpus ``expected`` form."""
    return [
        {
            name: row[name] if name in COUNT_FIELDS else _digest(row[name])
            for name in ROUND_FIELDS
        }
        for row in rows
    ]


def _system_config(config: Optional[dict]) -> SystemConfig:
    config = config or {}
    line = 64

    def geo(name: str, sets: int, ways: int) -> CacheGeometry:
        return CacheGeometry(
            name=name, size_bytes=sets * ways * line, ways=ways, sets=sets,
            line_size=line,
        )

    return SystemConfig(
        core=CoreConfig(mshr_entries=config.get("mshr_entries", 16)),
        l1d=geo("L1D", config.get("l1_sets", 64), config.get("l1_ways", 8)),
        l2=geo("L2", config.get("l2_sets", 1024), config.get("l2_ways", 16)),
    )


def run_case(case: dict, stop_after: Optional[int] = None,
             timeline_round: Optional[int] = None) -> List[dict]:
    """Execute ``case``; one record per round.

    ``timeline_round`` additionally records a per-instruction timeline for
    that round (stored under ``"timeline"``); only the divergence report
    asks for it.
    """
    obs = Observability(trace_level="squash")
    previous = set_default_obs(obs)
    try:
        if case.get("mode", "attack") == "attack":
            rows = _run_attack_case(case, obs, stop_after, timeline_round)
        else:
            rows = _run_program_case(case, obs, stop_after, timeline_round)
    finally:
        set_default_obs(previous)
    return rows


def _capture(core, obs, runner, index, stop_after, timeline_round, rows):
    emitted_before = obs.trace.emitted
    if timeline_round is not None and index == timeline_round:
        core.record_timeline = True
        try:
            latency, result = runner()
        finally:
            core.record_timeline = False
        row = _round_record(core, obs, result, latency, emitted_before)
        row["timeline"] = tuple(str(t) for t in result.timeline)
    else:
        latency, result = runner()
        row = _round_record(core, obs, result, latency, emitted_before)
    rows.append(row)
    return stop_after is not None and len(rows) > stop_after


def _run_attack_case(case, obs, stop_after, timeline_round) -> List[dict]:
    attack = UnxpecAttack(
        params=GadgetParams(n_loads=case.get("n_loads", 1)),
        use_eviction_sets=case.get("use_eviction_sets", False),
        seed=case.get("seed", 0),
        noise=campaign_noise() if case.get("noise") else None,
        defense_factory=_DEFENSES[case.get("defense", "cleanup")],
    )
    attack.prepare()
    rows: List[dict] = []
    for index, bit in enumerate(case["bits"]):
        # UnxpecAttack.sample discards the RunResult; take the same steps
        # it takes so both the sample latency and the raw result are
        # visible to the differ.
        def runner(bit=bit):
            attack.gadget.set_secret(attack.hierarchy.dram, bit)
            result = attack.core.run(attack._round_program)
            sample = attack._extract(bit, result)
            return sample.latency, result

        if _capture(attack.core, obs, runner, index, stop_after,
                    timeline_round, rows):
            break
    return rows


def _run_program_case(case, obs, stop_after, timeline_round) -> List[dict]:
    program = build_program(case["program"])
    hierarchy = CacheHierarchy(
        config=_system_config(case.get("config")), seed=case.get("seed", 0)
    )
    defense = _DEFENSES[case.get("defense", "cleanup")](hierarchy)
    core = Core(hierarchy, defense, config=hierarchy.config.core)
    pokes = case.get("pokes", ())
    rows: List[dict] = []
    for index in range(case.get("rounds", 4)):
        if index < len(pokes):
            for addr, value in pokes[index]:
                hierarchy.dram.poke(addr, value)

        def runner():
            result = core.run(program, max_instructions=10_000)
            return result.cycles, result

        if _capture(core, obs, runner, index, stop_after, timeline_round, rows):
            break
    return rows


def first_divergence(expected_rows, actual_rows) -> Optional[Tuple[int, str]]:
    """First (round, field) where two record lists disagree, else None."""
    for index, (a, b) in enumerate(zip(expected_rows, actual_rows)):
        for name in ROUND_FIELDS:
            if a[name] != b[name]:
                return index, name
    if len(expected_rows) != len(actual_rows):
        return min(len(expected_rows), len(actual_rows)), "rounds"
    return None


def divergence_report(case: dict, expected_rows, actual_rows,
                      labels: Tuple[str, str] = ("expected", "actual")) -> str:
    """Shrink a mismatch to its first divergent round, with each side's
    fields and squash-level events and a per-instruction timeline of
    exactly that round."""
    where = first_divergence(expected_rows, actual_rows)
    if where is None:
        return "no divergence"
    index, field = where
    lines = [
        f"case {case.get('name', '<anonymous>')!r}: first divergence at "
        f"round {index}, field {field!r}",
        "",
    ]
    a = expected_rows[index] if index < len(expected_rows) else None
    b = actual_rows[index] if index < len(actual_rows) else None
    for label, row in zip(labels, (a, b)):
        if row is None:
            lines.append(f"--- {label}: no round {index} (ended early)")
            continue
        lines.append(f"--- {label} round {index}:")
        for name in ROUND_FIELDS:
            marker = "  *" if a is not None and b is not None and a[name] != b[name] else "   "
            lines.append(f"{marker} {name} = {_short(row[name])}")
    # Re-run up to the divergent round with a per-instruction timeline; its
    # squash-level events stand in for a side stored only as digests.
    reference = run_case(case, stop_after=index, timeline_round=index)
    if reference and "timeline" in reference[-1]:
        lines.append("")
        lines.append(f"--- re-run round {index}, squash-level events:")
        for cycle, kind, data in reference[-1]["trace"]:
            lines.append(f"    [{cycle}] {kind} {data}")
        lines.append(f"--- re-run round {index}, per-instruction timeline:")
        for entry in reference[-1]["timeline"]:
            lines.append(f"    {entry}")
    return "\n".join(lines)


def _short(value, limit: int = 400) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 12] + f"...(+{len(text) - limit})"


def check_case(case: dict) -> Optional[str]:
    """Run ``case`` against its ``expected`` goldens; a divergence report, or None."""
    actual = golden_rows(run_case(case))
    if first_divergence(case["expected"], actual) is None:
        return None
    return divergence_report(case, case["expected"], actual)


def load_corpus() -> List[dict]:
    """Checked-in regression cases, sorted by filename for determinism."""
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        with open(path) as fh:
            case = json.load(fh)
        case.setdefault("name", path.stem)
        cases.append(case)
    return cases


def rewrite_expected(path: Path) -> None:
    """Capture ``path``'s ``expected`` goldens from the current core.

    Only for a deliberate timing-model change (the golden-values rule:
    record the cause). The case's other keys are kept as written;
    ``expected`` is (re)written as the last key, one round per line.
    """
    text = path.read_text()
    case = json.loads(text)
    case.pop("expected", None)
    if '"expected"' in text:
        head = text[: text.index('"expected"')].rstrip().rstrip(",")
    else:
        head = text.rstrip()[:-1].rstrip()
    rows = golden_rows(run_case(case))
    body = ",\n".join(f"    {json.dumps(row)}" for row in rows)
    path.write_text(f'{head},\n  "expected": [\n{body}\n  ]\n}}\n')
