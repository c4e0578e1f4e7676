"""The four end-to-end workloads.

Each workload builds its inputs from the benchmark seed in :meth:`setup`,
runs a short untimed :meth:`warm_up`, and then repeats one fixed *pass*
of ops for as long as the run lasts. ``begin_pass`` (untimed) restores
the state a pass starts from, so every pass of a run repeats the same
simulation and must produce the same ``digest``. ``run_pass`` calls each
op through ``op(name, fn, *args)``, which times it and turns an exception
into a counted failure (``None``).

The checks a pass returns are counted in the benchmark's ``attempted`` /
``failed``. Statistical bands hold only for the full-size pass, so a run
at ``--scale`` below 1 keeps just the exact checks.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

OpRunner = Callable[..., object]

#: The checkout this file belongs to (``benchmarks/e2e/`` lies two levels down).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Where runs leave their files.
OUT_DIR = os.path.join(ROOT, ".bench-out")


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


@dataclass
class PassOutput:
    """What one pass produced, besides its op timings."""

    digest: str
    checks: List[Check]
    #: Simulated results compared with the paper's (printed, not gated).
    fidelity: Dict[str, float] = field(default_factory=dict)
    #: Ops attempted, for workloads whose ops do not go through ``op``.
    ops: Optional[int] = None
    #: Ops that failed without raising (campaign experiments marked failed).
    failed_ops: int = 0
    #: Printed diagnostics (e.g. which paper checks failed).
    notes: List[str] = field(default_factory=list)


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def sha256_of(values) -> str:
    text = json.dumps(values, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def paper_error_pct(pairs) -> float:
    """Mean relative error (%) of ``(measured, paper)`` pairs."""
    return 100.0 * sum(abs(m - p) / p for m, p in pairs) / len(pairs)


def band_check(name: str, value: float, lo: float, hi: float, paper: str) -> Check:
    return Check(
        name, lo <= value <= hi, f"{value:.2f} in [{lo:g}, {hi:g}] (paper: {paper})"
    )


class Workload:
    """What ``run.py`` drives; see the module docstring."""

    name = ""
    #: Whether op timings are the simulated program runs (``Core.run``)
    #: instead of the ops passed to ``op``.
    TIMES_SIM_RUNS = False

    def setup(self, seed: int, scale: float) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work before the first pass."""

    def begin_pass(self) -> None:
        """Restore, untimed, the state a pass starts from."""

    def run_pass(self, op: OpRunner) -> PassOutput:
        raise NotImplementedError


class LeakNoisy(Workload):
    """Fig. 10/11 one-sample leakage under calibrated noise (CleanupSpec).

    The campaign's heaviest experiments are this round loop, where
    committed dispatch, the cache and the noise model dominate. One op is
    one round; both machines are built and calibrated in set-up.
    """

    name = "leak_noisy"
    BITS = 2000
    CALIBRATION_ROUNDS = 150
    WARM_UP_ROUNDS = 16
    #: label -> (eviction sets, accuracy band, paper accuracy %)
    MACHINES = {
        "plain": (False, (0.78, 0.93), 86.7),
        "evset": (True, (0.85, 0.97), 91.6),
    }

    def setup(self, seed: int, scale: float) -> None:
        from repro.attack.campaign import LeakageCampaign
        from repro.attack.secrets import random_bits
        from repro.attack.unxpec import UnxpecAttack
        from repro.cpu.noise import campaign_noise

        self.full = scale >= 1
        secret = random_bits(scaled(self.BITS, scale), seed=seed)
        self._calibrated = {}
        for label, (evsets, _, _) in self.MACHINES.items():
            attack = UnxpecAttack(
                use_eviction_sets=evsets, noise=campaign_noise(), seed=seed
            )
            decoder = LeakageCampaign(
                attack, calibration_rounds=self.CALIBRATION_ROUNDS
            ).decoder
            self._calibrated[label] = (attack, decoder, secret)

    def warm_up(self) -> None:
        for attack, _, secret in copy.deepcopy(self._calibrated).values():
            for bit in secret[: self.WARM_UP_ROUNDS]:
                attack.sample(bit)

    def begin_pass(self) -> None:
        self._machines = copy.deepcopy(self._calibrated)

    def run_pass(self, op: OpRunner) -> PassOutput:
        latencies: Dict[str, List[int]] = {}
        checks: List[Check] = []
        accuracy: Dict[str, float] = {}
        for label, (attack, decoder, secret) in self._machines.items():
            name = f"{self.name}.{label}"
            series = latencies[label] = []
            correct = 0
            for bit in secret:
                sample = op(name, attack.sample, bit)
                if sample is None:
                    continue
                series.append(sample.latency)
                correct += decoder.decode(sample.latency) == bit
            accuracy[label] = correct / len(secret)
            _, (lo, hi), paper = self.MACHINES[label]
            if self.full:
                checks.append(
                    band_check(f"{label}_accuracy", accuracy[label], lo, hi, f"{paper}%")
                )
        fidelity = {
            f"accuracy_{label}_pct": 100 * acc for label, acc in accuracy.items()
        }
        fidelity["paper_err_pct"] = paper_error_pct(
            [(100 * accuracy[label], paper) for label, (_, _, paper) in self.MACHINES.items()]
        )
        return PassOutput(sha256_of(latencies), checks, fidelity)


class DefenseMatrix(Workload):
    """Noise-free trial pairs for every (attack, defense) matrix pair.

    Every trial squashes, so the wrong path, defense rollback and FU
    contention dominate while the noise model is idle: the no-change
    control for noise-model work. One op is one pair on a fresh machine.
    """

    name = "defense_matrix"
    PAIRS_PER_CELL = 100
    TRIALS_PER_PAIR = 2
    PAPER_ROLLBACK_DELTA = 22.0

    def setup(self, seed: int, scale: float) -> None:
        from repro.common.rng import derive_seed
        from repro.matrix import grid_pairs

        self.pairs = grid_pairs()
        self.pair_seeds = [
            derive_seed(seed, f"defense_matrix.pair{i}")
            for i in range(scaled(self.PAIRS_PER_CELL, scale))
        ]

    def _trial_pair(self, attack: str, defense: str, seed: int):
        """Both secrets on a fresh machine, after one discarded trial.

        A fresh Spectre machine's first squash is slower (48 vs 32 cycles
        under CacheSquash), and the first trial always sends the same
        secret, so keeping it would fake a rollback-timing leak.
        """
        from repro.matrix import make_scenario

        scenario = make_scenario(attack, defense, seed=seed)
        return scenario.run_trials(1 + self.TRIALS_PER_PAIR)[1:]

    def warm_up(self) -> None:
        for attack in sorted({a for a, _ in self.pairs}):
            self._trial_pair(attack, "cleanupspec", self.pair_seeds[0])

    def run_pass(self, op: OpRunner) -> PassOutput:
        from repro.matrix import evaluate_cell, observations_to_rows

        rows: List[list] = []
        checks: List[Check] = []
        rollback_delta = None
        for attack, defense in self.pairs:
            observations = []
            for seed in self.pair_seeds:
                trials = op(f"{self.name}.pair", self._trial_pair, attack, defense, seed)
                if trials is not None:
                    observations.extend(trials)
            rows.append([attack, defense, observations_to_rows(observations)])
            for verdict in evaluate_cell(attack, defense, observations):
                cell = verdict.cell
                checks.append(
                    Check(
                        f"{attack}/{defense}/{cell.channel}.claim_holds",
                        not (verdict.leaks and verdict.claimed_closed),
                        f"leaks={verdict.leaks} claimed_closed={verdict.claimed_closed}",
                    )
                )
                if (attack, defense, cell.channel) == ("unxpec", "cleanupspec", "rollback"):
                    rollback_delta = verdict.signal
        checks.append(
            Check(
                "cleanupspec_rollback_delta",
                rollback_delta == self.PAPER_ROLLBACK_DELTA,
                f"{rollback_delta} cycles (paper: {self.PAPER_ROLLBACK_DELTA:g})",
            )
        )
        fidelity = {
            "rollback_delta_cycles": rollback_delta,
            "paper_err_pct": paper_error_pct([(rollback_delta, self.PAPER_ROLLBACK_DELTA)]),
        }
        return PassOutput(sha256_of(rows), checks, fidelity)


class SpecMix(Workload):
    """Fig. 12: SPEC-2017-like profiles under four defenses, noise-free.

    Long committed runs with few squashes, DRAM-heavy for mcf and lbm, and
    no attack or noise code; synthesis and decode make up most of set-up.
    One op is one ``Core.run`` on a fresh machine.
    """

    name = "spec_mix"
    INSTRUCTIONS = 30_000
    WARM_UP_INSTRUCTIONS = 2_000
    #: (average overhead band %, paper %) per constant-time defense
    BANDS = {"const25": ((15, 38), 22.4), "const65": ((50, 90), 72.8)}

    @staticmethod
    def _defenses():
        from repro.defense.cleanupspec import CleanupSpec
        from repro.defense.constant_time import ConstantTimeRollback
        from repro.defense.unsafe import UnsafeBaseline

        return {
            "unsafe": UnsafeBaseline,
            "cleanupspec": CleanupSpec,
            "const25": lambda h: ConstantTimeRollback(h, 25),
            "const65": lambda h: ConstantTimeRollback(h, 65),
        }

    def setup(self, seed: int, scale: float) -> None:
        from repro.workloads.profiles import SPEC2017_PROFILES
        from repro.workloads.synth import synthesize

        self.full = scale >= 1
        self.seed = seed
        self.defenses = self._defenses()
        instructions = max(100, scaled(self.INSTRUCTIONS, scale))
        self.programs = {
            profile.name: synthesize(profile, instructions=instructions, seed=seed).program
            for profile in SPEC2017_PROFILES
        }
        for program in self.programs.values():
            program.decoded()

    def _run(self, program, factory):
        from repro.cache.hierarchy import CacheHierarchy
        from repro.cpu.core import Core

        hierarchy = CacheHierarchy(seed=self.seed)
        return Core(hierarchy, factory(hierarchy)).run(program)

    def warm_up(self) -> None:
        from repro.workloads.profiles import SPEC2017_PROFILES
        from repro.workloads.synth import synthesize

        program = synthesize(
            SPEC2017_PROFILES[0], instructions=self.WARM_UP_INSTRUCTIONS, seed=self.seed
        ).program
        for factory in self.defenses.values():
            self._run(program, factory)

    def run_pass(self, op: OpRunner) -> PassOutput:
        cycles: Dict[str, Dict[str, int]] = {}
        for profile, program in self.programs.items():
            row = cycles[profile] = {}
            for label, factory in self.defenses.items():
                result = op(f"{self.name}.run", self._run, program, factory)
                if result is not None:
                    row[label] = result.cycles
        checks: List[Check] = []
        fidelity: Dict[str, float] = {}
        measured = []
        # Profiles with a failed op are left out of the averages.
        complete = [row for row in cycles.values() if len(row) == len(self.defenses)]
        for label, ((lo, hi), paper) in self.BANDS.items():
            overheads = [row[label] / row["unsafe"] - 1 for row in complete]
            average = 100 * sum(overheads) / max(1, len(overheads))
            fidelity[f"avg_{label}_pct"] = average
            measured.append((average, paper))
            if self.full:
                checks.append(band_check(f"avg_{label}", average, lo, hi, f"{paper}%"))
        fidelity["paper_err_pct"] = paper_error_pct(measured)
        return PassOutput(sha256_of(cycles), checks, fidelity)


class CampaignQuick(Workload):
    """The quick campaign: every experiment in-process, single worker, no cache.

    The roadmap's end-to-end unit, and the only workload that runs the
    campaign runner, the experiments and the analysis layer. An op is one
    experiment.
    """

    name = "campaign_quick"

    report_path = os.path.join(OUT_DIR, "campaign_quick-REPORT.md")
    #: The experiments differ in length by 1000x, so their median means
    #: nothing; the campaign's simulated program runs are timed instead.
    TIMES_SIM_RUNS = True

    def setup(self, seed: int, scale: float) -> None:
        from repro.experiments import registry

        self.seed = seed
        ids = registry.all_ids()
        self.ids = ids[: scaled(len(ids), scale)]

    def warm_up(self) -> None:
        """Nothing: a user pays the campaign's cold start on every run."""

    def run_pass(self, op: OpRunner) -> PassOutput:
        from repro.campaign import CampaignRunner
        from repro.experiments.report import write_report

        runner = CampaignRunner(jobs=1, cache=None)
        results = op(
            f"{self.name}.report",
            write_report,
            self.report_path,
            True,
            self.seed,
            self.ids,
            None,
            runner,
        )
        if results is None:
            return PassOutput("", [])
        paper_checks = [c for r in results for c in r.checks]
        failed_checks = [
            f"{r.experiment_id}.{c.name}" for r in results for c in r.checks if not c.passed
        ]
        return PassOutput(
            sha256_of([r.to_json() for r in results]),
            checks=[],
            fidelity={
                "paper_checks_total": len(paper_checks),
                "paper_checks_failed": len(failed_checks),
            },
            ops=len(results),
            failed_ops=sum(1 for o in runner.last_outcomes if o.failed),
            notes=[f"paper check failed: {name}" for name in failed_checks],
        )


WORKLOADS = {
    w.name: w for w in (CampaignQuick, LeakNoisy, DefenseMatrix, SpecMix)
}
