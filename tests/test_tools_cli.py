"""Tests for the command-line tools (the Fig. 10 deployment workflow)."""

import json

import pytest

from repro.tools import profile as profile_tool
from repro.tools import simulate as simulate_tool
from repro.tools import tracegen


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "t.btrc.gz"
    tracegen.main(["tomcat", "--length", "12000", "-o", str(path)])
    return path


class TestTracegen:
    def test_writes_trace(self, trace_file, capsys):
        from repro.trace.formats import read_trace
        trace = read_trace(trace_file)
        assert len(trace) == 12000

    def test_suite_reference(self, tmp_path):
        path = tmp_path / "s.btrc"
        assert tracegen.main(["cbp5:3", "--length", "2000",
                              "-o", str(path)]) == 0
        from repro.trace.formats import read_trace
        assert read_trace(path).name == "cbp5_003#0"

    def test_stats_flag(self, tmp_path, capsys):
        path = tmp_path / "t.btrc"
        tracegen.main(["python", "--length", "2000", "-o", str(path),
                       "--stats"])
        out = capsys.readouterr().out
        assert "unique branch pcs" in out

    def test_unknown_workload_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            tracegen.main(["redis", "-o", str(tmp_path / "x.btrc")])

    def test_bad_suite_index_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            tracegen.main(["cbp5:abc", "-o", str(tmp_path / "x.btrc")])

    def test_generate_api(self):
        trace = tracegen.generate("ipc1:2", length=1500)
        assert len(trace) == 1500


class TestProfileTool:
    def test_emits_hints_json(self, trace_file, tmp_path, capsys):
        hints_path = tmp_path / "h.json"
        assert profile_tool.main([str(trace_file), "-o", str(hints_path),
                                  "--entries", "1024"]) == 0
        payload = json.loads(hints_path.read_text())
        assert payload["num_categories"] == 3
        assert len(payload["categories"]) > 100
        assert "profiled" in capsys.readouterr().out

    def test_custom_thresholds(self, trace_file, tmp_path):
        hints_path = tmp_path / "h.json"
        assert profile_tool.main([str(trace_file), "-o", str(hints_path),
                                  "--thresholds", "25,50,75"]) == 0
        payload = json.loads(hints_path.read_text())
        assert payload["num_categories"] == 4

    def test_bad_thresholds_rejected(self, trace_file, tmp_path):
        with pytest.raises(SystemExit):
            profile_tool.main([str(trace_file), "--thresholds", "abc"])


class TestSimulateTool:
    def test_basic_replay(self, trace_file, capsys):
        assert simulate_tool.main([str(trace_file), "--policy",
                                   "srrip"]) == 0
        out = capsys.readouterr().out
        assert "hit_rate=" in out

    def test_thermometer_requires_hints(self, trace_file):
        with pytest.raises(SystemExit):
            simulate_tool.main([str(trace_file), "--policy",
                                "thermometer"])

    def test_full_pipeline_with_baseline(self, trace_file, tmp_path,
                                         capsys):
        hints_path = tmp_path / "h.json"
        profile_tool.main([str(trace_file), "-o", str(hints_path),
                           "--entries", "1024"])
        capsys.readouterr()
        assert simulate_tool.main(
            [str(trace_file), "--policy", "thermometer",
             "--hints", str(hints_path), "--entries", "1024",
             "--baseline", "lru"]) == 0
        out = capsys.readouterr().out
        assert "miss reduction vs lru" in out

    def test_ipc_mode(self, trace_file, capsys):
        assert simulate_tool.main([str(trace_file), "--policy", "lru",
                                   "--ipc"]) == 0
        assert "IPC" in capsys.readouterr().out


class TestSimulateSweepFaultFlags:
    """--resume/--max-retries/--job-timeout on the sweep path."""

    SWEEP = ["--apps", "tomcat", "--policies", "lru,srrip",
             "--length", "2000"]

    def test_sweep_then_resume_latest(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert simulate_tool.main(self.SWEEP + cache) == 0
        capsys.readouterr()
        assert simulate_tool.main(self.SWEEP + cache
                                  + ["--resume", "latest",
                                     "--max-retries", "2",
                                     "--job-timeout", "60"]) == 0
        assert "2 jobs" in capsys.readouterr().out

    def test_resume_conflicts_with_no_cache(self, capsys):
        assert simulate_tool.main(self.SWEEP
                                  + ["--no-cache", "--resume",
                                     "latest"]) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_unknown_resume_id_is_a_usage_error(self, tmp_path, capsys):
        assert simulate_tool.main(self.SWEEP
                                  + ["--cache-dir", str(tmp_path),
                                     "--resume", "nope"]) == 2
        assert "no run" in capsys.readouterr().err

    def test_failed_sweep_prints_resume_hint(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.testing.faults import Fault, FaultPlan
        plan = FaultPlan(faults=(Fault("raise", 0,
                                       attempts=(0, 1, 2, 3)),))
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        assert simulate_tool.main(self.SWEEP
                                  + ["--cache-dir", str(tmp_path),
                                     "--max-retries", "1"]) == 1
        err = capsys.readouterr().err
        assert "--resume" in err
        # The crashed sweep converges once the transient fault clears.
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert simulate_tool.main(self.SWEEP
                                  + ["--cache-dir", str(tmp_path),
                                     "--resume", "latest"]) == 0


class TestChaosTool:
    def test_converges_and_reports(self, tmp_path, capsys):
        from repro.tools import chaos
        assert chaos.main(["--seed", "7", "--apps", "tomcat",
                           "--policies", "lru,srrip", "--length", "2000",
                           "--jobs", "1", "--rate", "1.0",
                           "--max-retries", "2", "--job-timeout", "1.0",
                           "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fault plan" in out
        assert "bit-identical" in out

    def test_seeded_plan_is_logged_verbatim(self, tmp_path, capsys):
        """The logged plan JSON must replay the run: same seed, same
        schedule."""
        from repro.testing.faults import FaultPlan
        from repro.tools import chaos
        assert chaos.main(["--seed", "11", "--apps", "tomcat",
                           "--policies", "lru", "--length", "1500",
                           "--jobs", "1", "--rate", "1.0",
                           "--job-timeout", "1.0",
                           "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        logged = out.split("fault plan: ", 1)[1].splitlines()[0]
        assert FaultPlan.from_json(logged) == FaultPlan.random(
            11, 1, rate=1.0, hang_seconds=2.0)


class TestLoggingFlags:
    """-v/-q tune the stderr diagnostics channel; results stay on
    stdout until -qq."""

    def test_quiet_keeps_results_on_stdout(self, trace_file, capsys):
        assert simulate_tool.main([str(trace_file), "--policy", "lru",
                                   "-q"]) == 0
        captured = capsys.readouterr()
        assert "hit_rate=" in captured.out
        assert "hit_rate=" not in captured.err

    def test_double_quiet_silences_results(self, tmp_path, capsys):
        path = tmp_path / "t.btrc"
        assert tracegen.main(["python", "--length", "1000",
                              "-o", str(path), "-qq"]) == 0
        assert capsys.readouterr().out == ""
        assert path.exists()

    def test_verbose_diagnostics_go_to_stderr(self, trace_file, tmp_path,
                                              capsys):
        hints_path = tmp_path / "h.json"
        assert profile_tool.main([str(trace_file), "-o", str(hints_path),
                                  "--no-cache", "-v"]) == 0
        captured = capsys.readouterr()
        assert "profiled" in captured.out

    def test_unknown_sweep_app_logs_error(self, capsys):
        assert simulate_tool.main(["--apps", "redis",
                                   "--policies", "lru"]) == 2
        captured = capsys.readouterr()
        assert "unknown app" in captured.err
        assert "unknown app" not in captured.out


class TestBenchKernel:
    def test_records_telemetry_overhead(self, tmp_path, capsys,
                                        monkeypatch):
        from repro.tools import bench_kernel
        # One sweep per timing: the record's shape is under test here,
        # not the long timings that make a CI reading trustworthy.
        monkeypatch.setattr(bench_kernel, "OVERHEAD_UNIT_SECONDS", 0.0)
        out = tmp_path / "BENCH_kernel.json"
        code = bench_kernel.main(["--apps", "tomcat", "--policies",
                                  "lru,srrip", "--length", "4000",
                                  "--max-overhead-pct", "0",
                                  "--output", str(out)])
        assert code == 0  # <= 0 disables the budget check
        record = json.loads(out.read_text())
        assert record["jobs"] == 2
        assert record["shared_seconds"] > 0
        assert record["replay_seconds"] > 0
        assert record["telemetry_replay_seconds"] > 0
        assert "telemetry_overhead_pct" in record
        assert "telemetry_overhead_pct" in capsys.readouterr().out

    def test_overhead_budget_exit_code(self, tmp_path, monkeypatch):
        from repro.tools import bench_kernel
        monkeypatch.setattr(
            bench_kernel, "run_benchmark",
            lambda *a, **k: {"telemetry_overhead_pct": 50.0,
                             "bench": "kernel"})
        assert bench_kernel.main(["--output", "-",
                                  "--max-overhead-pct", "3"]) == 1
