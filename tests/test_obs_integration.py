"""End-to-end observability tests: instrumented simulator + CLI.

The key property: the :mod:`repro.obs` counters expose exactly the
secret-dependent cleanup work the unXpec paper measures — a secret of 1
leaves one extra speculative L1 install for CleanupSpec to invalidate,
and its 22-cycle rollback stall shows up as ``defense.stall_cycles``.
"""

import json


from repro.attack import GadgetParams, UnxpecAttack
from repro.cache import CacheHierarchy
from repro.cpu import Core
from repro.defense import UnsafeBaseline
from repro.isa import ProgramBuilder
from repro.obs import Observability, get_default_obs, observe


def _load_program(n_loads=4):
    b = ProgramBuilder("loads")
    b.li("r1", 0x10000)
    for i in range(n_loads):
        b.load(f"r{2 + i}", "r1", i * 64)
    b.halt()
    return b.build()


class TestExplicitAttachment:
    def test_core_run_returns_stats_snapshot(self):
        obs = Observability()
        h = CacheHierarchy(seed=0, obs=obs)
        core = Core(h, UnsafeBaseline(h), obs=obs)
        result = core.run(_load_program())
        assert result.stats is not None
        assert result.stats["core"]["instructions"] == result.instructions
        assert result.stats["core"]["cycles"] == result.cycles
        # 4 cold loads: every one misses L1 and installs
        assert result.stats["l1d"]["misses"] == 4
        assert result.stats["dram"]["accesses"] == 4

    def test_no_obs_means_no_stats_and_no_cost(self):
        h = CacheHierarchy(seed=0)
        core = Core(h, UnsafeBaseline(h))
        result = core.run(_load_program())
        assert result.stats is None
        assert core.obs is None

    def test_commit_events_match_timeline(self):
        obs = Observability(trace_level="commit")
        h = CacheHierarchy(seed=0, obs=obs)
        core = Core(h, UnsafeBaseline(h), obs=obs, record_timeline=True)
        result = core.run(_load_program())
        commits = list(obs.trace.events("inst.commit"))
        assert len(commits) == len(result.timeline)
        for event, entry in zip(commits, result.timeline):
            assert event.field("pc") == entry.pc
            assert event.field("dispatch") == entry.dispatch
            assert event.field("complete") == entry.complete

    def test_gauges_aggregate_across_hierarchies(self):
        """Two hierarchies under one obs sum into one campaign-wide view."""
        obs = Observability()
        for seed in (0, 1):
            h = CacheHierarchy(seed=seed, obs=obs)
            Core(h, UnsafeBaseline(h), obs=obs).run(_load_program())
        snap = obs.registry.snapshot()
        assert snap["l1d.misses"] == 8
        assert snap["core.runs"] == 2


class TestDefaultObservability:
    def test_observe_scopes_the_default(self):
        assert get_default_obs() is None
        with observe() as obs:
            assert get_default_obs() is obs
            h = CacheHierarchy(seed=0)
            assert h.obs is obs
        assert get_default_obs() is None

    def test_attack_counters_expose_the_secret(self):
        """CleanupSpec's cleanup counters differ with the secret bit —
        the per-defense view of the paper's timing channel."""

        def run(bit):
            with observe(Observability(trace_level="squash")) as obs:
                attack = UnxpecAttack(params=GadgetParams(), seed=0)
                attack.prepare()
                sample = attack.sample(bit)
            return obs, sample

        obs0, s0 = run(0)
        obs1, s1 = run(1)
        reg0, reg1 = obs0.registry, obs1.registry

        # secret=1 transiently installs the probe line; CleanupSpec must
        # invalidate it on rollback. secret=0 leaves nothing to clean.
        assert reg0["defense.cleanup.invalidations_l1"].value() == 0
        assert reg1["defense.cleanup.invalidations_l1"].value() == 1
        # ...and that cleanup work is the 22-cycle latency difference.
        stall_delta = (
            reg1["defense.stall_cycles"].value()
            - reg0["defense.stall_cycles"].value()
        )
        assert stall_delta == s1.latency - s0.latency == 22

    def test_squash_events_match_registry(self):
        with observe(Observability(trace_level="squash")) as obs:
            attack = UnxpecAttack(params=GadgetParams(), seed=0)
            attack.prepare()
            attack.sample(1)
        ends = list(obs.trace.events("squash.end"))
        begins = list(obs.trace.events("squash.begin"))
        assert len(ends) == len(begins) == obs.registry["core.squashes"].value()
        # per-squash stage breakdown sums to the recorded stall
        for e in ends:
            assert e.field("stall") == (
                e.field("t3") + e.field("t4") + e.field("t5")
                + e.field("dummy") + e.field("padding")
            )


class TestStatsOutCli:
    def test_stats_out_writes_hierarchical_dump(self, tmp_path):
        from repro.experiments.__main__ import main

        path = tmp_path / "stats.json"
        assert main(["fig3", "--quick", "--stats-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert set(doc) == {"stats", "profile", "trace", "spans"}
        stats = doc["stats"]
        for component in ("core", "l1d", "l2", "defense", "dram", "mshr"):
            assert component in stats, component
        assert stats["core"]["squashes"] > 0
        assert doc["profile"]["experiment.fig3"]["calls"] == 1
        assert doc["trace"]["level"] == "squash"
        assert doc["spans"]["kind"] == "campaign"
        assert doc["spans"]["children"][0]["name"] == "fig3"

    def test_default_obs_not_leaked_by_cli(self, tmp_path):
        from repro.experiments.__main__ import main

        main(["fig3", "--quick", "--stats-out", str(tmp_path / "s.json")])
        assert get_default_obs() is None


class TestMetricsAndEventsCli:
    def test_metrics_out_writes_openmetrics_and_folded(self, tmp_path):
        from repro.experiments.__main__ import main
        from repro.obs import parse_openmetrics

        prom = tmp_path / "metrics.prom"
        assert (
            main(["fig3", "--quick", "--no-cache", "--metrics-out", str(prom)])
            == 0
        )
        text = prom.read_text()
        assert text.endswith("# EOF\n")
        snapshot, kinds = parse_openmetrics(text)
        assert snapshot["core.cycles"] > 0
        assert kinds["core.cycles"] == "counter"
        folded = (tmp_path / "metrics.prom.folded").read_text()
        assert folded.startswith("experiment;fig3 ")

    def test_events_out_streams_full_lifecycle(self, tmp_path):
        from repro.campaign.events import read_events
        from repro.experiments.__main__ import main

        path = tmp_path / "events.jsonl"
        assert (
            main(["fig9", "--quick", "--no-cache", "--events-out", str(path)])
            == 0
        )
        events = read_events(str(path))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign.start" and kinds[-1] == "campaign.done"
        assert "task.done" in kinds

    def test_no_spans_flag_empties_the_stats_dump_tree(self, tmp_path):
        from repro.experiments.__main__ import main

        path = tmp_path / "stats.json"
        main(["fig9", "--quick", "--no-cache", "--no-spans",
              "--stats-out", str(path)])
        assert json.loads(path.read_text())["spans"] == {}


class TestObsCliRendering:
    def _dump(self, tmp_path, doc):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_non_numeric_values_render_as_repr(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = self._dump(
            tmp_path, {"stats": {"core": {"version": "v2.1", "cycles": 7}}}
        )
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "'v2.1'" in out and "7" in out

    def test_prefix_miss_names_available_groups(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = self._dump(tmp_path, {"stats": {"core": {"cycles": 1}}})
        assert main([path, "--prefix", "l1d"]) == 1
        err = capsys.readouterr().err
        assert "l1d" in err and "top-level groups: core" in err

    def test_empty_dump_diagnostic(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = self._dump(tmp_path, {"stats": {}})
        assert main([path]) == 1
        assert "no 'stats' section" in capsys.readouterr().err

    def test_format_openmetrics_round_trips_scalars(self, tmp_path, capsys):
        from repro.obs import parse_openmetrics
        from repro.obs.__main__ import main

        path = self._dump(
            tmp_path, {"stats": {"l1d": {"hits": 903, "miss_rate": 0.25}}}
        )
        assert main([path, "--format", "openmetrics"]) == 0
        snapshot, _ = parse_openmetrics(capsys.readouterr().out)
        assert snapshot == {"l1d.hits": 903, "l1d.miss_rate": 0.25}

    def test_format_folded_renders_profile(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = self._dump(
            tmp_path,
            {"stats": {"x": {"y": 1}},
             "profile": {"experiment.fig3": {"seconds": 0.5, "calls": 1}}},
        )
        assert main([path, "--format", "folded"]) == 0
        assert capsys.readouterr().out == "experiment;fig3 500000\n"

    def test_spans_flag_renders_tree(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        doc = {
            "stats": {"x": {"y": 1}},
            "spans": {"name": "campaign", "kind": "campaign", "status": "ok",
                      "children": [{"name": "fig3", "kind": "experiment",
                                    "status": "ok"}]},
        }
        assert main([self._dump(tmp_path, doc), "--spans"]) == 0
        out = capsys.readouterr().out
        assert "campaign [campaign/ok]" in out
        assert "  fig3 [experiment/ok]" in out
