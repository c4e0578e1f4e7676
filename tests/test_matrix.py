"""The (attack x defense x channel) matrix: channels, grid, experiment.

Channel verdicts are judged on synthetic observation sets (exact
thresholds), the grid on registry composition, and the matrix experiment
on the campaign determinism contract (identical digests for any jobs
count — the property ``python -m repro.experiments matrix`` relies on).
"""

from __future__ import annotations

import pytest

from repro.attack.channel import (
    CHANNELS,
    ContentionTimingChannel,
    FlushReloadChannel,
    RollbackTimingChannel,
    TrialObservation,
    make_channel,
)
from repro.common.errors import CalibrationError, ConfigError
from repro.defense.base import defense_capabilities, defense_keys
from repro.matrix import (
    CellVerdict,
    MatrixCell,
    attack_keys,
    channel_keys,
    evaluate_cell,
    grid_pairs,
    observations_to_rows,
    render_grid,
    rows_to_observations,
)


def _obs(pairs, guesses=None):
    guesses = guesses or [None] * len(pairs)
    return [
        TrialObservation(secret=s, timing=float(t), footprint_guess=g)
        for (s, t), g in zip(pairs, guesses)
    ]


class TestRollbackTimingChannel:
    def test_separable_populations_leak(self):
        obs = _obs([(0, 138), (1, 160), (0, 138), (1, 160)])
        verdict = RollbackTimingChannel().verdict(obs)
        assert verdict.leaks
        assert verdict.signal == pytest.approx(22.0)
        assert verdict.accuracy == 1.0

    def test_constant_timing_is_safe(self):
        obs = _obs([(0, 154), (1, 154), (0, 154), (1, 154)])
        verdict = RollbackTimingChannel().verdict(obs)
        assert not verdict.leaks
        assert verdict.signal == 0.0

    def test_subthreshold_gap_is_safe(self):
        # A 2-cycle gap decodes perfectly but sits under min_gap_cycles:
        # quantized defenses with residual jitter count as closed.
        obs = _obs([(0, 138), (1, 140), (0, 138), (1, 140)])
        assert not RollbackTimingChannel(min_gap_cycles=4.0).verdict(obs).leaks
        assert RollbackTimingChannel(min_gap_cycles=1.0).verdict(obs).leaks

    def test_needs_two_secrets(self):
        with pytest.raises(CalibrationError):
            RollbackTimingChannel().verdict(_obs([(1, 160), (1, 161)]))
        with pytest.raises(CalibrationError):
            RollbackTimingChannel().verdict([])

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            RollbackTimingChannel(min_gap_cycles=-1)
        with pytest.raises(ConfigError):
            RollbackTimingChannel(min_accuracy=0.5)


class TestFlushReloadChannel:
    def test_correct_guesses_leak(self):
        obs = _obs([(0, 0), (1, 0), (0, 0), (1, 0)], guesses=[0, 1, 0, 1])
        verdict = FlushReloadChannel().verdict(obs)
        assert verdict.leaks
        assert verdict.accuracy == 1.0
        assert verdict.signal == pytest.approx(0.5)

    def test_absent_footprint_is_safe(self):
        obs = _obs([(0, 0), (1, 0), (0, 0), (1, 0)])  # no guesses at all
        verdict = FlushReloadChannel().verdict(obs)
        assert not verdict.leaks
        assert verdict.accuracy == 0.0

    def test_uncorrelated_guesses_are_safe(self):
        obs = _obs([(0, 0), (1, 0), (0, 0), (1, 0)], guesses=[1, 0, 1, 0])
        assert not FlushReloadChannel().verdict(obs).leaks

    def test_empty_trials_rejected(self):
        with pytest.raises(CalibrationError):
            FlushReloadChannel().verdict([])


class TestContentionTimingChannel:
    def _obs_contention(self, pairs):
        return [
            TrialObservation(secret=s, timing=0.0, contention_timing=float(t))
            for s, t in pairs
        ]

    def test_separable_populations_leak(self):
        obs = self._obs_contention([(0, 61), (1, 46), (0, 61), (1, 46)])
        verdict = ContentionTimingChannel().verdict(obs)
        assert verdict.leaks
        assert verdict.signal == pytest.approx(15.0)
        assert verdict.accuracy == 1.0

    def test_constant_contention_is_safe(self):
        obs = self._obs_contention([(0, 46), (1, 46), (0, 46), (1, 46)])
        assert not ContentionTimingChannel().verdict(obs).leaks

    def test_absent_measurement_is_safe(self):
        # Scenarios without a contention probe (unxpec, spectre) leave
        # contention_timing unset — the channel reads "closed", keeping
        # the historical grid cells total rather than erroring.
        obs = _obs([(0, 138), (1, 160), (0, 138), (1, 160)])
        verdict = ContentionTimingChannel().verdict(obs)
        assert not verdict.leaks
        assert verdict.accuracy == 0.0

    def test_empty_trials_rejected(self):
        with pytest.raises(CalibrationError):
            ContentionTimingChannel().verdict([])


class TestChannelRegistry:
    def test_keys(self):
        assert set(CHANNELS) == {"rollback", "flush", "contention"}
        assert channel_keys() == ("contention", "flush", "rollback")

    def test_make_channel(self):
        assert make_channel("rollback").key == "rollback"
        with pytest.raises(ConfigError):
            make_channel("power-analysis")


class TestGrid:
    def test_axes_come_from_registries(self):
        assert attack_keys() == ("interference", "rewind", "spectre", "unxpec")
        assert set(defense_keys()) >= {
            "unsafe",
            "cleanupspec",
            "constant_time",
            "fuzzy",
            "delay_on_miss",
            "safespec",
            "cachesquash",
        }
        pairs = grid_pairs()
        assert len(pairs) == len(attack_keys()) * len(defense_keys())
        assert pairs == sorted(pairs)

    def test_observation_row_roundtrip(self):
        obs = _obs([(0, 138.0), (1, 160.0)], guesses=[None, 1])
        obs.append(
            TrialObservation(secret=1, timing=0.0, contention_timing=61.0)
        )
        assert rows_to_observations(observations_to_rows(obs)) == obs

    def test_legacy_three_element_rows_hydrate(self):
        # Shard payloads serialized before the contention channel carried
        # three elements; they must still deserialize (cache hydration).
        assert rows_to_observations([[0, 138.0, None], [1, 160.0, 1]]) == [
            TrialObservation(secret=0, timing=138.0),
            TrialObservation(secret=1, timing=160.0, footprint_guess=1),
        ]

    def test_evaluate_cell_carries_capability_claims(self):
        obs = _obs([(0, 138), (1, 160)] * 2, guesses=[0, 1, 0, 1])
        verdicts = evaluate_cell("unxpec", "cleanupspec", obs)
        assert {v.cell.channel for v in verdicts} == set(channel_keys())
        by_channel = {v.cell.channel: v for v in verdicts}
        caps = defense_capabilities("cleanupspec")
        for key, verdict in by_channel.items():
            assert verdict.claimed_closed == (key in caps.closes_channels)
            assert verdict.cell == MatrixCell("unxpec", "cleanupspec", key)

    def test_render_grid_pivot(self):
        verdicts = [
            CellVerdict(
                cell=MatrixCell("unxpec", "cleanupspec", "rollback"),
                leaks=True,
                signal=22.0,
                accuracy=1.0,
                claimed_closed=False,
            ),
            CellVerdict(
                cell=MatrixCell("unxpec", "cleanupspec", "flush"),
                leaks=False,
                signal=0.0,
                accuracy=0.0,
                claimed_closed=True,
            ),
        ]
        assert render_grid(verdicts) == {
            "cleanupspec": {
                "unxpec/rollback": "LEAK",
                "unxpec/flush": "safe",
            }
        }


class TestMatrixExperiment:
    """The full experiment at quick scale: determinism across jobs counts.

    The verdict *content* (which cells leak, overhead ordering) is pinned
    by the experiment's own checks and by the campaign digest in
    test_golden_values.py; here we pin the orchestration contract.
    """

    @pytest.fixture(scope="class")
    def reference(self):
        from repro.campaign import CampaignRunner

        (outcome,) = CampaignRunner(jobs=1).run(ids=["matrix"], quick=True, seed=0)
        assert not outcome.failed, outcome.error
        return outcome.result.to_json()

    def test_all_checks_pass(self, reference):
        assert all(c["passed"] for c in reference["checks"])

    def test_jobs_do_not_change_the_result(self, reference):
        from repro.campaign import CampaignRunner

        (sharded,) = CampaignRunner(jobs=4).run(ids=["matrix"], quick=True, seed=0)
        assert sharded.result.to_json() == reference
