"""Tests for the campaign_top dashboard (driven without a TTY)."""

from repro.campaign import CampaignRunner
from repro.tools.campaign_top import build_state, main, render


def sample_events():
    """A hand-built stream: fig3 mid-flight, fig9 cached, one retry."""
    return [
        {"seq": 0, "t": 100.0, "event": "campaign.start", "experiments": 2,
         "tasks": 4, "cached": 1, "jobs": 2, "quick": True, "seed": 0},
        {"seq": 1, "t": 100.0, "event": "task.cache_hit", "experiment": "fig9",
         "shards": 2},
        {"seq": 2, "t": 100.0, "event": "experiment.done", "experiment": "fig9",
         "status": "cached", "checks_passed": 3, "checks_total": 3},
        {"seq": 3, "t": 100.1, "event": "task.submit", "experiment": "fig3",
         "shard": 0},
        {"seq": 4, "t": 100.1, "event": "task.submit", "experiment": "fig3",
         "shard": 1},
        {"seq": 5, "t": 100.1, "event": "task.submit", "experiment": "fig3",
         "shard": 2},
        {"seq": 6, "t": 100.1, "event": "task.submit", "experiment": "fig3",
         "shard": 3},
        {"seq": 7, "t": 100.2, "event": "task.start", "experiment": "fig3",
         "shard": 0},
        {"seq": 8, "t": 100.3, "event": "task.retry", "experiment": "fig3",
         "shard": 0, "attempt": 1, "error": "OSError('io')"},
        {"seq": 9, "t": 101.0, "event": "task.done", "experiment": "fig3",
         "shard": 0, "attempts": 2, "seconds": 0.8},
        {"seq": 10, "t": 101.1, "event": "task.start", "experiment": "fig3",
         "shard": 1},
    ]


class TestBuildState:
    def test_mid_flight_state(self):
        state = build_state(sample_events())
        assert state["started"] == 100.0
        assert not state["finished"]
        assert state["tasks_total"] == 4
        assert state["tasks_done"] == 1
        assert state["retries"] == 1
        assert state["cache_hits"] == 1 and state["cache_lookups"] == 2

        fig3 = state["experiments"]["fig3"]
        assert fig3["shards"] == {0: "done", 1: "running", 2: "pending", 3: "pending"}
        assert fig3["retries"] == 1
        fig9 = state["experiments"]["fig9"]
        assert fig9["status"] == "cached" and fig9["checks"] == (3, 3)

    def test_finished_state(self):
        events = sample_events() + [
            {"seq": 11, "t": 102.0, "event": "task.done", "experiment": "fig3",
             "shard": 1, "attempts": 1, "seconds": 0.5},
            {"seq": 12, "t": 102.0, "event": "task.failed", "experiment": "fig3",
             "shard": 2, "attempts": 1, "error": "AssertionError()", "seconds": 0.1},
            {"seq": 13, "t": 102.1, "event": "task.done", "experiment": "fig3",
             "shard": 3, "attempts": 1, "seconds": 0.5},
            {"seq": 14, "t": 102.2, "event": "experiment.done",
             "experiment": "fig3", "status": "failed", "checks_passed": 0,
             "checks_total": 1},
            {"seq": 15, "t": 102.2, "event": "campaign.done", "experiments": 2,
             "failed": 1, "retries": 1, "cache_hits": 1},
        ]
        state = build_state(events)
        assert state["finished"]
        assert state["tasks_failed"] == 1
        assert state["experiments"]["fig3"]["status"] == "failed"
        assert state["experiments"]["fig3"]["shards"][2] == "failed"

    def test_empty_stream(self):
        state = build_state([])
        assert not state["experiments"] and not state["finished"]


class TestRender:
    def test_mid_flight_render(self):
        text = render(build_state(sample_events()), now=101.1)
        assert "tasks 1/4" in text
        assert "retries 1" in text
        assert "cache 1/2 (50%)" in text
        assert "fig3" in text and "fig9" in text
        assert "cached" in text
        assert "(1 retries)" in text
        # ETA: 1 of 4 tasks in 1.1s -> ~3.3s remaining.
        assert "eta 3s" in text

    def test_progress_bar_glyphs(self):
        text = render(build_state(sample_events()), now=101.1)
        fig3_line = next(l for l in text.splitlines() if l.startswith("fig3"))
        assert "#" in fig3_line  # done shard
        assert ">" in fig3_line  # running shard
        assert "." in fig3_line  # pending shards

    def test_finished_shows_done_eta(self):
        events = sample_events()
        events.append({"seq": 99, "t": 103.0, "event": "campaign.done",
                       "experiments": 2, "failed": 0, "retries": 1,
                       "cache_hits": 1})
        assert "eta done" in render(build_state(events))

    def test_empty_state_renders_placeholder(self):
        assert "waiting for campaign.start" in render(build_state([]))

    def test_many_shards_collapse_to_width(self):
        events = [{"seq": 0, "t": 0.0, "event": "campaign.start",
                   "experiments": 1, "tasks": 200}]
        events += [{"event": "task.submit", "experiment": "big", "shard": i}
                   for i in range(200)]
        events += [{"event": "task.done", "experiment": "big", "shard": i}
                   for i in range(100)]
        text = render(build_state(events), now=1.0, width=72)
        line = next(l for l in text.splitlines() if l.startswith("big"))
        assert len(line) < 100  # collapsed, not 200 columns


class TestCli:
    def test_once_mode_renders_stream_from_runner(self, tmp_path, capsys):
        """End-to-end: a real campaign's --events-out feeds the dashboard."""
        path = str(tmp_path / "events.jsonl")
        from repro.campaign import CampaignEventLog

        with CampaignEventLog(path=path) as log:
            runner = CampaignRunner(jobs=1, event_log=log)
            runner.run(ids=["fig9"], quick=True, seed=0)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "eta done" in out
        assert "failed 0" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err
