"""Tests for the experiment harness: runner, reporting, experiments."""

import io

import pytest

from repro.harness.engine import ArtifactStore
from repro.harness.experiments import (ALL_EXPERIMENTS, fig1, fig3, fig11,
                                       fig14, fig15, fig17,
                                       _thresholds_for_categories)
from repro.harness.reporting import ExperimentResult, format_table
from repro.harness.runner import Harness, HarnessConfig


@pytest.fixture(scope="module")
def harness():
    """A tiny two-app harness shared by the experiment smoke tests."""
    return Harness(HarnessConfig(apps=("tomcat", "python"), length=20_000))


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "x"], [["a", 1.5], ["long-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in text
        assert "22" in text

    def test_result_render_and_markdown(self):
        result = ExperimentResult("figX", "title", ["app", "v"],
                                  [["a", 1.0]], notes="note")
        assert "figX" in result.render()
        assert "note" in result.render()
        md = result.to_markdown()
        assert md.startswith("### figX")
        assert "| a | 1.00 |" in md

    def test_column_and_row_access(self):
        result = ExperimentResult("f", "t", ["app", "v"],
                                  [["a", 1.0], ["b", 2.0]])
        assert result.column("v") == [1.0, 2.0]
        assert result.row("b") == ["b", 2.0]
        with pytest.raises(KeyError):
            result.column("nope")
        with pytest.raises(KeyError):
            result.row("nope")


class TestCSV:
    @staticmethod
    def demo_result():
        return ExperimentResult("figX", "demo", ["app", "a", "b"],
                                [["x", 3.0, 1.0], ["y", 2.0, 4.0],
                                 ["Avg", 2.5, 2.5]])

    def test_roundtrip_values(self):
        csv_text = self.demo_result().to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "app,a,b"
        assert lines[1] == "x,3.0,1.0"

    def test_save_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        self.demo_result().save_csv(path)
        assert path.read_text().startswith("app,a,b")


class TestRunner:
    def test_default_config_is_not_shared(self):
        """Regression: the default config used to be one module-level
        ``HarnessConfig()`` instance evaluated at ``def`` time, so every
        default-constructed harness aliased the same object."""
        first, second = Harness(), Harness()
        assert first.config == second.config
        assert first.config is not second.config

    def test_trace_cached(self, harness):
        assert harness.trace("tomcat") is harness.trace("tomcat")

    def test_profile_cached_per_config(self, harness):
        a = harness.profile("tomcat")
        b = harness.profile("tomcat")
        assert a is b

    def test_hints_respect_thresholds(self, harness):
        hints = harness.hints("tomcat", thresholds=(20.0, 90.0))
        assert hints.num_categories == 3

    def test_build_btb_thermometer_requires_hints(self, harness):
        with pytest.raises(ValueError, match="hints"):
            harness.build_btb("thermometer", harness.trace("tomcat"))

    def test_build_btb_7979_variant(self, harness):
        btb = harness.build_btb("thermometer-7979", harness.trace("tomcat"),
                                hints=harness.hints("tomcat"))
        assert btb.config.entries == 7979

    def test_lru_sim_cached(self, harness):
        assert harness.lru_sim("tomcat") is harness.lru_sim("tomcat")

    def test_miss_reduction_pct(self, harness):
        from repro.btb.btb import BTBStats
        base = BTBStats(misses=100)
        better = BTBStats(misses=80)
        assert harness.miss_reduction_pct(better, base) == 20.0
        assert harness.miss_reduction_pct(better, BTBStats()) == 0.0


class TestExperiments:
    def test_fig1_structure(self, harness):
        result = fig1(harness)
        assert result.columns[0] == "app"
        assert [row[0] for row in result.rows] == ["tomcat", "python",
                                                   "Avg"]

    def test_fig3_reports_mpki(self, harness):
        result = fig3(harness)
        assert all(row[1] >= 0 for row in result.rows)

    def test_fig11_orderings(self, harness):
        result = fig11(harness)
        avg = result.row("Avg")
        opt = avg[result.columns.index("opt")]
        therm = avg[result.columns.index("thermometer")]
        srrip = avg[result.columns.index("srrip")]
        assert opt >= therm >= srrip - 0.5

    def test_fig14_times_profiles_already_in_the_store(self, tmp_path):
        """A profile read back from the store carries no elapsed time, so
        fig14 must time the profiling itself."""
        config = HarnessConfig(apps=("tomcat", "python"), length=8000)
        store = ArtifactStore(tmp_path)
        for app in config.apps:
            Harness(config, store=store).profile(app)
        warm = Harness(config, store=store)
        assert warm.profile("tomcat").elapsed_seconds == 0.0
        result = fig14(warm)
        assert all(row[1] > 0.0 for row in result.rows)

    def test_fig15_coverage_bounds(self, harness):
        result = fig15(harness)
        assert all(0.0 <= row[1] <= 100.0 for row in result.rows)

    def test_fig17_small_suite(self, harness):
        result = fig17(harness, count=2, length=10_000)
        metrics = {row[0]: row[1] for row in result.rows}
        assert metrics["wins_vs_ghrp"] + metrics["losses_vs_ghrp"] \
            + metrics["ties"] == 2

    def test_threshold_vector_generation(self):
        assert _thresholds_for_categories(3) == (50.0, 80.0)
        assert _thresholds_for_categories(2) == (50.0,)
        assert len(_thresholds_for_categories(16)) == 15

    def test_all_experiments_registered(self):
        assert len(ALL_EXPERIMENTS) == 20        # figs 1-9 and 11-21
        assert "fig10" not in ALL_EXPERIMENTS    # design diagram


class TestReproduceDriver:
    def test_quick_subset_runs(self):
        from repro.harness.reproduce import run_experiments
        stream = io.StringIO()
        results = run_experiments(names=["fig3"], preset="quick",
                                  apps=["python"], stream=stream)
        assert "fig3" in results
        assert "fig3" in stream.getvalue()

    def test_unknown_experiment_rejected(self):
        from repro.harness.reproduce import run_experiments
        with pytest.raises(ValueError, match="unknown experiments"):
            run_experiments(names=["fig99"], preset="quick")

    def test_parallel_jobs_run(self, tmp_path):
        """A planned figure runs on the engine's process pool, an inline
        one after it, and results keep the requested order."""
        from repro.harness.reproduce import run_experiments
        from repro.telemetry.manifest import read_run_manifest
        stream = io.StringIO()
        results = run_experiments(names=["fig5", "fig12"], preset="quick",
                                  apps=["python"], stream=stream, jobs=2,
                                  cache_dir=tmp_path)
        assert list(results) == ["fig5", "fig12"]
        summary = read_run_manifest(tmp_path).summary
        assert summary["runtime"]["executor"] == "pool"
        assert summary["job_states"] == {"succeeded": 6}
