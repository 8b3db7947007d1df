"""The runtime config: one parser for every ``REPRO_*`` switch, in-process
overrides, and the config travelling with each batch to pool workers
(and into ``summary.json``)."""

from __future__ import annotations

import asyncio
import functools
import json
import multiprocessing
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import runtime
from repro.harness.engine import ExperimentEngine, SimJob
from repro.runtime import _SWITCHES, RuntimeConfig
from repro.telemetry.manifest import (fast_path_coverage, read_events,
                                      read_run_manifest, read_spans,
                                      render_report)
from repro.telemetry.metrics import MetricsRegistry, set_registry
from repro.testing.faults import FAULT_KINDS, Fault, FaultPlan

SRC = Path(__file__).resolve().parents[1] / "src"

#: A 2-app x 2-policy misses sweep (thermometer also exercises the OPT
#: profiling replay).
SWEEP = [SimJob(app=app, policy=policy, length=3000, mode="misses")
         for app in ("tomcat", "python") for policy in ("lru", "thermometer")]

BAD_VALUES = [
    ("REPRO_JOBS", "abc"),
    ("REPRO_JOBS", "0"),
    ("REPRO_JOB_TIMEOUT", "soon"),
    ("REPRO_FAST_SIM", "maybe"),
    ("REPRO_MAX_RETRIES", "-1"),
    ("REPRO_FAULT_PLAN", "{not json"),
    ("REPRO_FAULT_PLAN", "@/nonexistent/plan.json"),
    # ``partition`` was a kind of the deleted distributed sweep; a plan
    # written for it is now outside input naming an unknown kind.
    ("REPRO_FAULT_PLAN", '{"faults": [{"kind": "partition", "index": 0}]}'),
]
BAD_IDS = ["jobs-abc", "jobs-0", "timeout-soon", "fast-sim-maybe",
           "retries-negative", "plan-bad-json", "plan-missing-file",
           "plan-retired-kind"]


@pytest.fixture
def fresh_registry():
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


@pytest.fixture
def reparse_after(monkeypatch):
    """Restore the environment, then re-parse it, after a test that
    changes ``REPRO_*`` variables and calls :func:`runtime.load`."""
    yield monkeypatch
    monkeypatch.undo()
    runtime.load()


class TestParsing:
    def test_unset_environment_gives_the_defaults(self):
        assert RuntimeConfig.from_env({}) == RuntimeConfig()
        # A variable that names no switch is ignored; older CI configs
        # and benchmark pins still set the retired REPRO_SHM.
        assert RuntimeConfig.from_env({"REPRO_SHM": "1"}) == RuntimeConfig()

    def test_one_field_per_switch(self):
        assert len(_SWITCHES) == 8
        assert set(_SWITCHES) == set(RuntimeConfig().to_dict())

    def test_engine_doc_lists_exactly_the_switches(self):
        """docs/ENGINE.md's "Environment variables" table has one row
        per switch, naming its variable and field."""
        text = (SRC.parent / "docs" / "ENGINE.md").read_text()
        section = text.split("## Environment variables", 1)[1]
        section = section.split("\n## ", 1)[0]
        rows = [tuple(cell.strip().strip("`")
                      for cell in line.split("|")[1:3])
                for line in section.splitlines() if line.startswith("| `")]
        assert sorted(rows) == sorted((var, name) for name, (var, _)
                                      in _SWITCHES.items())

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("ON", True), ("yes", True),
        ("0", False), ("false", False), ("Off", False), ("no", False)])
    def test_boolean_spellings(self, raw, expected):
        for var, name in (("REPRO_FAST_REPLAY", "fast_replay"),
                          ("REPRO_FAST_SIM", "fast_sim"),
                          ("REPRO_TEST_FAST", "test_fast")):
            config = RuntimeConfig.from_env({var: raw})
            assert getattr(config, name) is expected

    def test_blank_means_unset(self):
        """One rule for every switch: a blank value takes the default
        (the old readers disagreed on what "" meant)."""
        env = {var: "  " for var, _ in _SWITCHES.values()}
        assert RuntimeConfig.from_env(env) == RuntimeConfig()

    def test_numbers_paths_and_modes(self, tmp_path):
        config = RuntimeConfig.from_env({
            "REPRO_JOBS": "3", "REPRO_MAX_RETRIES": "0",
            "REPRO_JOB_TIMEOUT": "2.5", "REPRO_CACHE_DIR": str(tmp_path)})
        assert (config.jobs, config.max_retries, config.job_timeout) == \
            (3, 0, 2.5)
        assert config.cache_dir == tmp_path
        assert config.store_root == tmp_path
        assert RuntimeConfig.from_env(
            {"REPRO_JOB_TIMEOUT": "0"}).job_timeout is None

    def test_dict_round_trip(self, tmp_path):
        config = RuntimeConfig(
            cache_dir=tmp_path, jobs=2, job_timeout=1.5, fast_sim=False,
            fault_plan=FaultPlan(faults=(Fault("raise", 1),), seed=4))
        # summary.json records the config as JSON-ready primitives.
        payload = config.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["cache_dir"] == str(tmp_path)
        assert payload["fault_plan"] == config.fault_plan.to_dict()

    @pytest.mark.parametrize("var,raw", BAD_VALUES, ids=BAD_IDS)
    def test_malformed_value_names_the_variable(self, var, raw):
        with pytest.raises(ValueError, match=var):
            RuntimeConfig.from_env({var: raw})

    def test_retired_fault_kind_names_the_valid_kinds(self):
        var, raw = BAD_VALUES[BAD_IDS.index("plan-retired-kind")]
        with pytest.raises(ValueError) as info:
            RuntimeConfig.from_env({var: raw})
        message = str(info.value)
        assert "'partition'" in message
        assert all(repr(kind) in message for kind in FAULT_KINDS)


class TestCliErrors:
    """A malformed switch is a usage error: exit 2, one line, no
    traceback."""

    @pytest.mark.parametrize("var,raw", BAD_VALUES, ids=BAD_IDS)
    @pytest.mark.parametrize("tool", ["reproduce", "simulate"])
    def test_cli_exits_2_with_one_line(self, tool, var, raw, capsys,
                                       reparse_after):
        from repro.harness import reproduce
        from repro.tools import simulate
        main, argv = {
            "reproduce": (reproduce.main, ["--preset", "quick", "--only",
                                           "fig3", "--no-cache"]),
            "simulate": (simulate.main, ["--apps", "tomcat",
                                         "--no-cache"]),
        }[tool]
        reparse_after.setenv(var, raw)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and var in err[0], err

    @pytest.mark.parametrize("module", ["repro.harness.reproduce",
                                        "repro.tools.simulate"])
    def test_python_m_prints_no_traceback(self, module):
        env = {"PYTHONPATH": str(SRC), "REPRO_JOBS": "abc"}
        proc = subprocess.run(
            [sys.executable, "-m", module, "--no-cache"], env=env,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.strip() == ("error: REPRO_JOBS='abc': expected "
                                       "an integer >= 1")

    def test_reproduce_jobs_default_comes_from_the_config(
            self, monkeypatch):
        from repro.harness import reproduce
        seen = {}
        monkeypatch.setattr(reproduce, "run_experiments",
                            lambda **kwargs: seen.update(kwargs) or {})
        with runtime.override(jobs=3):
            assert reproduce.main(["--no-cache"]) == 0
            assert seen["jobs"] == 3
            # Only an absent --jobs takes the config; 0 runs serially.
            assert reproduce.main(["--no-cache", "--jobs", "0"]) == 0
            assert seen["jobs"] == 0


class TestOverride:
    def test_nested_overrides_apply_and_unwind(self):
        before = runtime.current()
        with runtime.override(fast_replay=False) as outer:
            assert outer.fast_replay is False
            with runtime.override(fast_sim=False, jobs=4):
                config = runtime.current()
                assert (config.fast_replay, config.fast_sim,
                        config.jobs) == (False, False, 4)
            assert runtime.current().fast_sim is before.fast_sim
        assert runtime.current() == before

    def test_out_of_order_exit_removes_only_its_own_layer(self):
        """Threads may leave their overrides in any order."""
        before = runtime.current()
        first = runtime.override(jobs=2)
        second = runtime.override(fast_sim=not before.fast_sim)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert runtime.current().fast_sim is not before.fast_sim
        assert runtime.current().jobs == before.jobs
        second.__exit__(None, None, None)
        assert runtime.current() == before

    def test_unknown_field_is_rejected(self):
        with pytest.raises(TypeError):
            with runtime.override(telemetry=False):
                pass

    def test_load_keeps_active_overrides(self, reparse_after):
        reparse_after.setenv("REPRO_JOBS", "5")
        with runtime.override(fast_sim=False):
            config = runtime.load()
            assert (config.jobs, config.fast_sim) == (5, False)

    def test_engine_defaults_read_the_config(self, tmp_path):
        with runtime.override(jobs=3, max_retries=4, job_timeout=9.0,
                              test_fast=False):
            engine = ExperimentEngine(cache_dir=tmp_path)
        assert (engine.jobs, engine.max_retries, engine.job_timeout,
                engine.backoff_base) == (3, 4, 9.0, 0.25)
        with runtime.override(test_fast=True):
            assert ExperimentEngine(cache_dir=tmp_path).backoff_base == 0.0


def _runtime_block(engine) -> dict:
    return read_run_manifest(engine.last_manifest).summary["runtime"]


def _injected_failures(engine) -> list:
    """Indices of the jobs whose attempt failed with the injected fault
    (the worker's error, journaled by the parent)."""
    return [e["index"] for e in read_events(engine.last_manifest)
            if "InjectedFault" in (e.get("error") or "")]


class TestShipping:
    """A config set only in the parent, with :func:`runtime.override`,
    reaches workers that could not inherit it."""

    PLAN = FaultPlan(faults=(Fault("raise", 0),), seed=11)

    def test_spawned_pool_workers_run_under_the_parents_config(
            self, tmp_path, monkeypatch, fresh_registry):
        # Spawned workers start from a fresh interpreter: only the config
        # shipped with each batch can carry the override there.
        monkeypatch.setattr(
            "repro.harness.engine.executor.ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor,
                              mp_context=multiprocessing.get_context(
                                  "spawn")))
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=2,
                                  max_retries=1)
        with runtime.override(fast_replay=False, fault_plan=self.PLAN):
            results = engine.run(SWEEP[:2])
        assert all(r.state == "succeeded" for r in results)
        assert _injected_failures(engine) == [0]
        counters = engine.last_run_telemetry["counters"]
        assert counters["btb/fallback/disabled"] >= 2
        assert "btb/fast_path" not in counters
        block = _runtime_block(engine)
        assert block["fast_replay"] is False
        assert block["fault_plan"] == self.PLAN.to_dict()
        assert block["executor"] == "pool"

    def test_serial_and_async_runs_record_their_executor(self, tmp_path,
                                                         fresh_registry):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run(SWEEP[:1])
        assert _runtime_block(engine)["executor"] == "serial"
        engine = ExperimentEngine(cache_dir=tmp_path / "async", jobs=2)
        asyncio.run(engine.run_async(SWEEP[:2]))
        # run_async runs its misses serially, whatever ``jobs`` says.
        assert _runtime_block(engine)["executor"] == "serial"


class TestCoverageReport:
    """``report`` and ``top`` show the run's switches and how much of it
    took the fast paths."""

    def _sweep(self, root: Path) -> dict:
        engine = ExperimentEngine(cache_dir=root, jobs=2)
        engine.run(SWEEP)
        return read_run_manifest(engine.last_manifest)

    def test_disabled_replay_reports_zero_coverage(self, tmp_path,
                                                   fresh_registry):
        with runtime.override(fast_replay=False):
            manifest = self._sweep(tmp_path)
        assert manifest.summary["runtime"]["fast_replay"] is False
        share, total, fallbacks = fast_path_coverage(manifest.summary,
                                                     "btb")
        assert share == 0.0
        assert set(fallbacks) == {"disabled"}
        assert fallbacks["disabled"] == total
        text = render_report(manifest)
        assert "fast_replay=off" in text
        assert f"btb replay fast path: 0.00 of {total} " \
               f"(fallbacks: disabled={total})" in text

    def test_default_sweep_reports_full_coverage(self, tmp_path,
                                                 fresh_registry):
        manifest = self._sweep(tmp_path)
        assert manifest.summary["runtime"]["fast_replay"] is True
        share, total, fallbacks = fast_path_coverage(manifest.summary,
                                                     "btb")
        assert (share, fallbacks) == (1.0, {})
        assert total >= len(SWEEP)
        assert manifest.summary["runtime"]["executor"] == "pool"
        text = render_report(manifest)
        assert "btb replay fast path: 1.00" in text
        assert "executor=pool" in text

    def test_top_frame_shows_switches_and_coverage(self, tmp_path,
                                                   fresh_registry):
        from repro.tools.top import render_run_frame
        manifest = self._sweep(tmp_path)
        frame = render_run_frame(manifest.path)
        assert "switches: " in frame and "fast_sim=on" in frame
        assert "executor=pool" in frame
        assert "btb replay fast path: 1.00" in frame
        assert "simulate fast path: no dispatches" in frame

    def test_runtime_block_records_the_engines_worker_count(
            self, tmp_path, fresh_registry):
        from repro.tools.top import render_run_frame

        def switches(text: str) -> list:
            line = next(line for line in text.splitlines()
                        if line.strip().startswith("switches: "))
            return line.split("switches: ", 1)[1].split(", ")

        # REPRO_JOBS says 3; the engines were built with 2 and 1 workers.
        with runtime.override(jobs=3):
            pool = self._sweep(tmp_path / "pool")
            engine = ExperimentEngine(cache_dir=tmp_path / "serial", jobs=1)
            engine.run(SWEEP[:1])
            serial = read_run_manifest(engine.last_manifest)
        for manifest, jobs, executor in ((pool, 2, "pool"),
                                         (serial, 1, "serial")):
            block = manifest.summary["runtime"]
            assert (block["jobs"], block["executor"]) == (jobs, executor)
            for text in (render_report(manifest),
                         render_run_frame(manifest.path)):
                assert f"jobs={jobs}" in switches(text)
                assert f"executor={executor}" in switches(text)

    def test_run_without_a_runtime_block_still_renders(self, tmp_path,
                                                       fresh_registry):
        manifest = self._sweep(tmp_path)
        summary_path = manifest.path / "summary.json"
        summary = json.loads(summary_path.read_text())
        # A block from before the executor key, with the retired shm
        # switch, renders as recorded.
        del summary["runtime"]["executor"]
        summary["runtime"]["shm"] = True
        summary_path.write_text(json.dumps(summary))
        text = render_report(read_run_manifest(manifest.path))
        assert "shm=on" in text and "executor=" not in text
        del summary["runtime"]
        summary_path.write_text(json.dumps(summary))
        text = render_report(read_run_manifest(manifest.path))
        assert "switches: not recorded" in text

    def test_run_of_the_retired_fabric_still_renders(self, tmp_path,
                                                     fresh_registry):
        """Runs made by the deleted distributed sweep recorded
        ``executor=fabric``, could carry ``partition`` faults in their
        plan and journaled ``fabric.lease`` spans; runs of the deleted
        async executor recorded ``executor=async``.  Report, top and the
        trace export show them as recorded."""
        from repro.tools import trace_export
        from repro.tools.top import render_run_frame
        manifest = self._sweep(tmp_path)
        summary_path = manifest.path / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["runtime"]["executor"] = "fabric"
        summary["runtime"]["fault_plan"] = {
            "seed": 7, "faults": [{"kind": "partition", "index": 0,
                                   "attempts": [0], "seconds": 5.0}]}
        summary_path.write_text(json.dumps(summary))
        run_span = next(row for row in read_spans(manifest.path)
                        if row["name"] == "engine.run")
        lease = dict(run_span, name="fabric.lease", span_id="f" * 16,
                     parent_id=run_span["span_id"], args={"host": "h0"})
        with open(manifest.path / "events.jsonl", "a") as fh:
            fh.write(json.dumps(lease) + "\n")

        for text in (render_report(read_run_manifest(manifest.path)),
                     render_run_frame(manifest.path)):
            assert "executor=fabric" in text
            assert "fault_plan=1 fault(s) seed 7" in text
        out = tmp_path / "trace.json"
        assert trace_export.main([str(manifest.path), "-o", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        leases = [e for e in events if e["name"] == "fabric.lease"]
        assert len(leases) == 1
        assert leases[0]["args"]["parent_id"] == run_span["span_id"]

        summary["runtime"]["executor"] = "async"
        summary_path.write_text(json.dumps(summary))
        for text in (render_report(read_run_manifest(manifest.path)),
                     render_run_frame(manifest.path)):
            assert "executor=async" in text
        assert trace_export.main([str(manifest.path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"]


class TestGCCollections:
    """``summary.json``'s ``runtime.gc_collections`` sums the run's GC
    collections over the engine's process and its workers."""

    @staticmethod
    def _collecting_jobs(monkeypatch):
        """Make every job attempt run one full collection."""
        import gc

        import repro.harness.engine.worker as worker
        real = worker.execute_job

        def collecting(*args, **kwargs):
            gc.collect()
            return real(*args, **kwargs)

        monkeypatch.setattr(worker, "execute_job", collecting)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_job_attempts_collections_are_counted(
            self, tmp_path, monkeypatch, fresh_registry, jobs):
        # Pool workers are forked after the patch, so they run it too;
        # their collections reach the run only through the job deltas.
        self._collecting_jobs(monkeypatch)
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=jobs)
        engine.run(SWEEP)
        manifest = read_run_manifest(engine.last_manifest)
        collections = manifest.summary["runtime"]["gc_collections"]
        assert set(collections) == {"gen0", "gen1", "gen2"}
        assert collections["gen2"] >= len(SWEEP)
        counters = manifest.summary["telemetry"]["counters"]
        assert collections["gen2"] == counters["gc/collections/gen2"]
        text = render_report(manifest)
        assert f"gen2={collections['gen2']}" in text
        assert "gc collections: gen0=" in text

    def test_peak_rss_is_recorded_and_reported(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=2)
        engine.run(SWEEP)
        manifest = read_run_manifest(engine.last_manifest)
        runtime_block = manifest.summary["runtime"]
        assert runtime_block["executor"] == "pool"
        peak = runtime_block["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0
        assert f"peak rss: {peak} MB" in render_report(manifest)

    def test_disabled_telemetry_records_no_gc_counts(self, tmp_path):
        previous = set_registry(MetricsRegistry(enabled=False))
        try:
            engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
            engine.run(SWEEP[:1])
        finally:
            set_registry(previous)
        manifest = read_run_manifest(engine.last_manifest)
        assert "gc_collections" not in manifest.summary["runtime"]
        assert "gc collections: not recorded" in render_report(manifest)
