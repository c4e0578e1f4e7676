"""Campaign runner determinism and cache-correctness tests.

The load-bearing contract of :mod:`repro.campaign`: tables, metrics, and
checks are bit-identical no matter how many workers execute the shards —
``--jobs 1`` runs in-process, ``--jobs 4`` forks a pool, and both must
produce byte-for-byte the same JSON.  The cache must serve exactly those
bytes back on a same-config rerun and must *miss* whenever the config
changes.
"""

import json

import pytest

from repro.campaign import CampaignRunner, ResultCache
from repro.experiments import get
from repro.experiments.base import ShardableExperiment

#: The representative experiments: a parameter sweep (fig3), a cheap
#: slice-merge (fig9), and a real multi-shard leakage campaign (fig10).
REPRESENTATIVE = ["fig3", "fig9", "fig10"]


def results_json(outcomes) -> str:
    """Canonical byte representation of every result's tables/metrics/checks."""
    return json.dumps(
        {o.experiment_id: o.result.to_json() for o in outcomes},
        sort_keys=True,
        default=str,
    )


def stats_json(outcomes) -> str:
    return json.dumps([o.stats for o in outcomes], sort_keys=True, default=str)


@pytest.fixture(scope="module")
def jobs1_runner():
    runner = CampaignRunner(jobs=1)
    runner.run(ids=REPRESENTATIVE, quick=True, seed=0)
    return runner


@pytest.fixture(scope="module")
def jobs4_runner():
    runner = CampaignRunner(jobs=4)
    runner.run(ids=REPRESENTATIVE, quick=True, seed=0)
    return runner


@pytest.fixture(scope="module")
def jobs1_outcomes(jobs1_runner):
    return jobs1_runner.last_outcomes


@pytest.fixture(scope="module")
def jobs4_outcomes(jobs4_runner):
    return jobs4_runner.last_outcomes


class TestJobsInvariance:
    def test_representative_experiments_are_shardable(self):
        for exp_id in REPRESENTATIVE:
            assert isinstance(get(exp_id), ShardableExperiment), exp_id

    def test_results_bit_identical_across_jobs(self, jobs1_outcomes, jobs4_outcomes):
        assert results_json(jobs1_outcomes) == results_json(jobs4_outcomes)

    def test_merged_stats_identical_across_jobs(self, jobs1_outcomes, jobs4_outcomes):
        assert stats_json(jobs1_outcomes) == stats_json(jobs4_outcomes)

    def test_runner_matches_direct_run(self, jobs1_outcomes):
        """The campaign path and Experiment.run() are the same computation."""
        for outcome in jobs1_outcomes:
            direct = get(outcome.experiment_id).run(quick=True, seed=0)
            assert json.dumps(direct.to_json(), sort_keys=True, default=str) == (
                json.dumps(outcome.result.to_json(), sort_keys=True, default=str)
            )

    def test_shard_plan_independent_of_jobs(self):
        for exp_id in REPRESENTATIVE:
            exp = get(exp_id)
            plan = exp.shard_plan(quick=True, seed=0)
            assert plan == exp.shard_plan(quick=True, seed=0)
            assert [s.index for s in plan] == list(range(len(plan)))


class TestObservabilityInvariance:
    """Spans and canonical events are part of the determinism contract."""

    def test_span_trees_bit_identical_across_jobs(self, jobs1_runner, jobs4_runner):
        t1 = json.dumps(jobs1_runner.span_tree(), sort_keys=True)
        t4 = json.dumps(jobs4_runner.span_tree(), sort_keys=True)
        assert t1 == t4

    def test_canonical_events_bit_identical_across_jobs(
        self, jobs1_runner, jobs4_runner
    ):
        from repro.campaign import canonical_events

        e1 = json.dumps(canonical_events(jobs1_runner.last_events), sort_keys=True)
        e4 = json.dumps(canonical_events(jobs4_runner.last_events), sort_keys=True)
        assert e1 == e4

    def test_span_tree_structure(self, jobs1_runner):
        tree = jobs1_runner.span_tree()
        assert tree["kind"] == "campaign" and tree["status"] == "ok"
        by_name = {c["name"]: c for c in tree["children"]}
        assert sorted(by_name) == sorted(REPRESENTATIVE)
        for exp_id, node in by_name.items():
            plan = get(exp_id).shard_plan(quick=True, seed=0)
            shards = [c for c in node["children"] if c["kind"] == "shard"]
            assert len(shards) == len(plan), exp_id
            for shard_node in shards:
                kinds = [c["kind"] for c in shard_node["children"]]
                assert kinds == ["attempt"]

    def test_spans_carry_no_wall_clock(self, jobs1_runner):
        blob = json.dumps(jobs1_runner.span_tree())
        assert '"seconds"' not in blob and '"t"' not in blob

    def test_live_events_cover_every_task(self, jobs1_runner):
        events = jobs1_runner.last_events
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign.start" and kinds[-1] == "campaign.done"
        n_tasks = events[0]["tasks"]
        for wanted in ("task.submit", "task.start", "task.done"):
            assert kinds.count(wanted) == n_tasks, wanted
        assert all("t" in e and "seq" in e for e in events)
        assert [e["seq"] for e in events] == list(range(len(events)))


class TestCacheBehavior:
    IDS = ["fig3", "fig9"]

    def test_second_same_seed_run_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        cold = runner.run(ids=self.IDS, quick=True, seed=0)
        assert cache.hits == 0 and cache.misses == len(self.IDS)
        assert all(not o.cached for o in cold)

        warm = runner.run(ids=self.IDS, quick=True, seed=0)
        assert cache.hits == len(self.IDS)
        assert all(o.cached for o in warm)
        # The cache serves back the exact same tables/metrics/checks.
        assert results_json(cold) == results_json(warm)

    def test_changed_config_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        runner.run(ids=["fig9"], quick=True, seed=0)

        seed_changed = runner.run(ids=["fig9"], quick=True, seed=1)
        assert not seed_changed[0].cached
        quick_changed_key = cache.key("fig9", quick=False, seed=0)
        assert quick_changed_key != cache.key("fig9", quick=True, seed=0)

    def test_cached_stats_survive_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        cold = runner.run(ids=["fig3"], quick=True, seed=0)
        warm = runner.run(ids=["fig3"], quick=True, seed=0)
        assert warm[0].cached
        assert stats_json(cold) == stats_json(warm)
        assert warm[0].trace_meta["level"] == cold[0].trace_meta["level"]

    def test_default_obs_registry_mirrors_hits_and_misses(self, tmp_path):
        from repro.obs import Observability, observe

        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        with observe(Observability()) as obs:
            runner.run(ids=self.IDS, quick=True, seed=0)  # all misses
            runner.run(ids=self.IDS, quick=True, seed=0)  # all hits
            snap = obs.registry.snapshot()
        assert snap["campaign.cache.hits"] == len(self.IDS)
        assert snap["campaign.cache.misses"] == len(self.IDS)
        assert snap["campaign.cache.hit_rate"] == 0.5

    def test_cache_counters_never_stored_in_entries(self, tmp_path):
        from repro.obs import Observability, observe

        cache = ResultCache(str(tmp_path / "cache"))
        with observe(Observability()):
            CampaignRunner(jobs=1, cache=cache).run(
                ids=["fig9"], quick=True, seed=0
            )
        entry_path = next(
            str(tmp_path / "cache" / f)
            for f in sorted((tmp_path / "cache").iterdir())
            if f.suffix == ".json"
        )
        assert "campaign." not in open(entry_path).read()

    def test_cache_lookup_spans_reflect_this_run(self, tmp_path):
        """cache_lookup spans are per-run luck: miss cold, hit warm, and
        never stored inside the entry itself."""
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        cold = runner.run(ids=["fig9"], quick=True, seed=0)
        lookups = [
            c for c in cold[0].spans["children"] if c["kind"] == "cache_lookup"
        ]
        assert [s["status"] for s in lookups] == ["miss"]

        warm = runner.run(ids=["fig9"], quick=True, seed=0)
        assert warm[0].spans["status"] == "cached"
        lookups = [
            c for c in warm[0].spans["children"] if c["kind"] == "cache_lookup"
        ]
        assert [s["status"] for s in lookups] == ["hit"]
        # Identical shard subtrees either way — the entry stores only those.
        strip = lambda node: [
            c for c in node["children"] if c["kind"] != "cache_lookup"
        ]
        assert strip(cold[0].spans) == strip(warm[0].spans)

    def test_clear_empties_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        runner = CampaignRunner(jobs=1, cache=cache)
        runner.run(ids=["fig9"], quick=True, seed=0)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0
