"""Tests for repro.experiments.base and .registry."""

import json

import pytest

from repro.common.errors import ExperimentError
from repro.experiments import all_ids, get
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.registry import register


class TestResult:
    def make(self):
        return ExperimentResult(
            experiment_id="x", title="T", paper_claim="claim"
        )

    def test_table_and_rows(self):
        r = self.make()
        t = r.table("t1", ["a", "b"])
        t.add(1, 2)
        assert r.tables["t1"].rows == [[1, 2]]

    def test_checks_and_all_passed(self):
        r = self.make()
        r.check("ok", True, "fine")
        assert r.all_passed
        r.check("bad", False, "broken")
        assert not r.all_passed

    def test_check_band(self):
        r = self.make()
        r.check_band("in", 22, 18, 26, "22")
        r.check_band("out", 50, 18, 26, "22")
        assert r.checks[0].passed and not r.checks[1].passed

    def test_render_contains_everything(self):
        r = self.make()
        r.table("series", ["x"]).add(5)
        r.metric("m", 1.5)
        r.check("c", True, "d")
        text = r.render()
        assert "claim" in text and "series" in text and "PASS" in text and "1.50" in text

    def test_json_round_trip(self):
        r = self.make()
        r.table("t", ["h"]).add(1)
        r.metric("m", 2.0)
        r.check("c", True, "d")
        blob = json.dumps(r.to_json())
        data = json.loads(blob)
        assert data["all_passed"] is True
        assert data["tables"]["t"]["rows"] == [[1]]

    def test_dump_json(self, tmp_path):
        r = self.make()
        path = tmp_path / "out.json"
        r.dump_json(str(path))
        assert json.loads(path.read_text())["experiment_id"] == "x"


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        ids = all_ids()
        for expected in (
            "table1",
            "fig2",
            "fig3",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "leakage_rate",
            "ext_spectre",
            "ext_fuzzy",
        ):
            assert expected in ids

    def test_get_unknown_raises(self):
        with pytest.raises(ExperimentError):
            get("fig99")

    def test_duplicate_registration_rejected(self):
        class Dup(Experiment):
            id = "table1"
            title = "dup"

            def run(self, quick=False, seed=0):  # pragma: no cover
                return self.new_result()

        with pytest.raises(ExperimentError):
            register(Dup)

    def test_missing_id_rejected(self):
        class NoId(Experiment):
            def run(self, quick=False, seed=0):  # pragma: no cover
                return self.new_result()

        with pytest.raises(ExperimentError):
            register(NoId)


class TestCsvExport:
    def test_dump_csv_writes_each_table(self, tmp_path):
        from repro.experiments import get

        result = get("fig3").run(quick=True, seed=0)
        paths = result.dump_csv(str(tmp_path))
        assert len(paths) == len(result.tables)
        content = open(paths[0]).read()
        assert "squashed loads" in content
        assert "22" in content

    def test_dump_csv_creates_directory(self, tmp_path):
        from repro.experiments import get

        result = get("table1").run()
        paths = result.dump_csv(str(tmp_path / "nested" / "dir"))
        assert all(p.endswith(".csv") for p in paths)


class TestCliFlags:
    def test_json_flag(self, tmp_path, capsys, monkeypatch):
        import os

        from repro.experiments.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["table1", "--json", "out.json"]) == 0
        assert os.path.exists(tmp_path / "out.json")
        capsys.readouterr()

    def test_csv_flag(self, tmp_path, capsys, monkeypatch):
        import os

        from repro.experiments.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["fig3", "--quick", "--csv", "csvdir"]) == 0
        files = os.listdir(tmp_path / "csvdir")
        assert any(f.endswith(".csv") for f in files)
        capsys.readouterr()

    def test_seed_flag_changes_noisy_results(self, capsys):
        from repro.experiments import get

        a = get("fig7").run(quick=True, seed=1).metrics["mean_difference"]
        b = get("fig7").run(quick=True, seed=2).metrics["mean_difference"]
        assert a != b  # different noise streams
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value, expected",
        [
            ("--jobs", "0", "positive integer"),
            ("--jobs", "-3", "positive integer"),
            ("--retries", "-2", "non-negative integer"),
            ("--task-timeout", "-5", "positive number of seconds"),
            ("--task-timeout", "nan", "positive number of seconds"),
            ("--seed", "-1", "non-negative integer"),
        ],
    )
    def test_out_of_range_flag_is_a_usage_error(self, flag, value, expected, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["fig3", "--quick", "--no-cache", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a {expected}, got '{value}'" in err
