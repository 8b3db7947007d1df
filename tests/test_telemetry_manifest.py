"""Run manifests: engine round-trips, merge consistency, and the report
CLI."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.harness.engine import ExperimentEngine, SimJob
from repro.telemetry.manifest import (read_run_manifest, render_report,
                                      write_run_manifest)
from repro.telemetry.metrics import MetricsRegistry


def _fake_result(app, policy, seconds, counters):
    telemetry = {"counters": counters, "gauges": {}, "histograms": {},
                 "spans": {}}
    job = SimpleNamespace(app=app, policy=policy, mode="misses",
                          input_id=0, length=1000)
    return SimpleNamespace(job=job, value=None, cached=False,
                           seconds=seconds, stats=None,
                           telemetry=telemetry)


class TestWriteReadRoundTrip:
    def test_row_telemetry_merged_when_no_parent_snapshot(self, tmp_path):
        results = [_fake_result("a", "lru", 1.0, {"n": 2}),
                   _fake_result("b", "lru", 3.0, {"n": 5})]
        run_dir = write_run_manifest(tmp_path, results, wall_seconds=4.0,
                                     workers=2)
        manifest = read_run_manifest(run_dir)
        assert manifest.summary["telemetry"]["counters"]["n"] == 7
        assert manifest.summary["jobs"] == 2
        assert manifest.summary["busy_seconds"] == pytest.approx(4.0)
        assert manifest.summary["worker_utilization"] == pytest.approx(0.5)
        assert [row["app"] for row in manifest.rows] == ["a", "b"]

    def test_explicit_telemetry_wins_over_rows(self, tmp_path):
        """The engine passes its already-merged snapshot; rows must not be
        double-counted on top of it."""
        results = [_fake_result("a", "lru", 1.0, {"n": 2})]
        run_dir = write_run_manifest(
            tmp_path, results, wall_seconds=1.0, workers=1,
            telemetry={"counters": {"n": 2}, "gauges": {},
                       "histograms": {}, "spans": {}})
        manifest = read_run_manifest(run_dir)
        assert manifest.summary["telemetry"]["counters"]["n"] == 2

    def test_resolves_cache_root_to_latest_run(self, tmp_path):
        runs = tmp_path / "runs"
        first = write_run_manifest(runs, [], 1.0, 1, run_id="a-run")
        second = write_run_manifest(runs, [], 1.0, 1, run_id="b-run")
        assert read_run_manifest(tmp_path).path == second
        assert read_run_manifest(first).run_id == "a-run"
        assert read_run_manifest(second / "summary.json").run_id == "b-run"

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_run_manifest(tmp_path)


class TestEngineManifests:
    JOBS = [SimJob(app=app, policy=policy, length=4000, mode="misses")
            for app in ("tomcat", "python") for policy in ("lru", "srrip")]

    def test_two_worker_run_round_trip(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=2)
        results = engine.run(self.JOBS)
        assert engine.last_manifest is not None
        manifest = read_run_manifest(engine.last_manifest)

        summary = manifest.summary
        assert summary["jobs"] == len(self.JOBS) == len(manifest.rows)
        assert summary["workers"] == 2
        assert summary["cached_jobs"] == 0
        assert 0.0 < summary["worker_utilization"] <= 2.0
        # Worker telemetry made it across the process boundary: the
        # replay spans ran in the pool, not in this process.
        spans = summary["telemetry"]["spans"]
        # one per job
        assert spans["engine.job/harness.misses"]["count"] == len(self.JOBS)
        # one per app, shared
        assert spans["engine.job/store.fetch/harness.trace"]["count"] == 2
        # Rows carry per-job BTB stats that match the returned results.
        by_key = {(r["app"], r["policy"]): r for r in manifest.rows}
        for result in results:
            row = by_key[(result.job.app, result.job.policy)]
            assert row["btb"]["misses"] == result.value.misses
        assert summary["exceptions"] == []

    def test_cached_rerun_and_report_render(self, tmp_path, capsys):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run(self.JOBS)
        engine.run(self.JOBS)  # second run: everything from the store
        manifest = read_run_manifest(engine.last_manifest)
        assert manifest.summary["cached_jobs"] == len(self.JOBS)
        assert manifest.summary["cache"]["hits"] > 0

        rendered = render_report(manifest)
        assert manifest.run_id in rendered
        assert "artifact cache" in rendered
        assert "per-policy event rates" in rendered

        from repro.tools.report import main as report_main
        assert report_main([str(engine.last_manifest)]) == 0
        out = capsys.readouterr().out
        assert manifest.run_id in out
        assert report_main([str(tmp_path), "--jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(self.JOBS)
        assert json.loads(lines[0])["app"] == "tomcat"

    def test_failed_run_still_writes_manifest(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        bad = [SimJob(app="tomcat", policy="no-such-policy", length=2000,
                      mode="misses")]
        with pytest.raises(Exception):
            engine.run(bad)
        manifest = read_run_manifest(engine.last_manifest)
        assert len(manifest.summary["exceptions"]) == 1
        assert "no-such-policy" in manifest.summary["exceptions"][0]["error"]
        rendered = render_report(manifest)
        assert "exceptions" in rendered

    def test_write_manifest_false_disables(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1,
                                  write_manifest=False)
        engine.run(self.JOBS[:1])
        assert engine.last_manifest is None
        assert not (tmp_path / "runs").exists()


class TestSerialParallelConsistency:
    def test_serial_avoids_double_count(self, tmp_path):
        """Serial jobs record into the parent registry; the manifest must
        count each replay once, not once per job row + once in the
        parent delta."""
        from repro.telemetry.metrics import set_registry
        previous = set_registry(MetricsRegistry(enabled=True))
        try:
            engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
            jobs = [SimJob(app="tomcat", policy=p, length=3000,
                           mode="misses") for p in ("lru", "srrip")]
            engine.run(jobs)
        finally:
            set_registry(previous)
        manifest = read_run_manifest(engine.last_manifest)
        spans = manifest.summary["telemetry"]["spans"]
        # One "harness.misses" replay per job — counted once each, not
        # once per job row and again in the parent delta (which would
        # read 4).
        assert spans["engine.job/harness.misses"]["count"] == 2
        assert spans["engine.job/store.fetch/harness.trace"]["count"] == 1
