"""The run log: a run that computes nothing is one line, not a directory.

The engine reads every job's result from the store before dispatch.
When every job is a hit, the run appends one line to
``<manifest dir>/hits.jsonl`` instead of creating ``runs/<run id>/``;
every reader still finds it at that address.  These tests pin that the
logged form reads back like the directory form, that a run with a miss
still gets the full directory, that resume and "latest" see logged
runs, that store usage stays exact, and that the log is read as outside
input: a torn, garbage or foreign line is skipped, never a traceback.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.telemetry.manifest as manifest
from repro.harness.engine import ArtifactStore, ExperimentEngine, JobState
from repro.harness.engine import SimJob
from repro.service.client import request_once
from repro.service.server import SimulationService
from repro.telemetry.manifest import (RUN_LOG, canonical_rows,
                                      read_jobs_index, read_run_manifest,
                                      read_spans,
                                      resolve_run_dir, run_history)
from repro.telemetry.metrics import MetricsRegistry, set_registry

LENGTH = 4000
RUN_FILES = {"events.jsonl", "jobs.json", "manifest.jsonl", "summary.json"}


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry(enabled=True))
    try:
        yield
    finally:
        set_registry(previous)


def _jobs(*policies):
    return [SimJob(app="tomcat", policy=policy, length=LENGTH,
                   mode="misses") for policy in policies]


def _run_dirs(runs: Path) -> set:
    return {p.name for p in runs.iterdir() if p.is_dir()} \
        if runs.is_dir() else set()


def _log_lines(runs: Path) -> list:
    path = runs / RUN_LOG
    return path.read_bytes().splitlines() if path.exists() else []


@pytest.fixture()
def warm(tmp_path):
    """An engine whose store already holds lru and srrip."""
    engine = ExperimentEngine(cache_dir=tmp_path / "cache", jobs=1)
    engine.run(_jobs("lru", "srrip"))
    return engine


# ----------------------------------------------------------------------
# All hits: one line
# ----------------------------------------------------------------------

class TestAllHitRun:
    def test_writes_one_line_that_reads_back_like_a_directory(
            self, warm, tmp_path, monkeypatch):
        """The same run through both writers reads back the same."""
        as_dir = tmp_path / "as-dir"
        real = manifest.log_run

        def both(directory, results, keys, run_id, append, *, spans=(),
                 trace_id=None, **fields):
            manifest.write_run_manifest(as_dir, results, run_id=run_id,
                                        **fields)
            return real(directory, results, keys, run_id, append,
                        spans=spans, trace_id=trace_id, **fields)

        monkeypatch.setattr(manifest, "log_run", both)
        runs = warm.manifest_dir
        dirs_before = _run_dirs(runs)
        results = warm.run(_jobs("lru", "srrip"))
        assert all(r.cached and r.state == JobState.SUCCEEDED
                   for r in results)
        assert _run_dirs(runs) == dirs_before
        assert len(_log_lines(runs)) == 1
        # A logged run's address is a str (see manifest.log_run).
        assert warm.last_manifest == str(runs / warm.last_run_id)
        assert not Path(warm.last_manifest).exists()

        logged = read_run_manifest(warm.last_manifest)
        directory = read_run_manifest(as_dir / warm.last_run_id)
        assert logged.run_id == directory.run_id == warm.last_run_id
        assert canonical_rows(logged.rows) == canonical_rows(directory.rows)
        assert logged.summary["cache"] == directory.summary["cache"]
        assert logged.summary["cache"]["hits"] == 2
        assert logged.summary["cache"]["misses"] == 0
        assert logged.summary["cached_jobs"] \
            == directory.summary["cached_jobs"] == 2
        for key in ("status", "job_states", "runtime", "jobs"):
            assert logged.summary[key] == directory.summary[key], key
        assert logged.summary["trace_id"]
        keys = [row["key"] for row in logged.rows]
        assert keys == [job.cache_key() for job in _jobs("lru", "srrip")]
        assert [row["key"] for row in read_jobs_index(warm.last_manifest)] \
            == keys

    def test_spans_link_under_the_run_span(self, warm):
        warm.run(_jobs("lru", "srrip"))
        spans = read_spans(warm.last_manifest)
        (root,) = [s for s in spans if s["name"] == "engine.run"]
        jobs = [s for s in spans if s["name"] == "engine.job"]
        assert len(jobs) == 2
        for span in jobs:
            assert span["parent_id"] == root["span_id"]
            assert span["args"]["cached"] is True

    def test_report_and_resolve_find_the_logged_run(self, warm, capsys):
        from repro.tools.report import main
        warm.run(_jobs("lru"))
        assert resolve_run_dir(warm.cache_dir) == Path(warm.last_manifest)
        assert main([str(warm.cache_dir)]) == 0
        assert f"== run {warm.last_run_id} " in capsys.readouterr().out


# ----------------------------------------------------------------------
# Any miss: the full directory
# ----------------------------------------------------------------------

class TestMixedRun:
    def test_writes_the_directory_with_hit_rows_like_the_log(self, warm):
        warm.run(_jobs("lru"))
        logged_rows = canonical_rows(
            read_run_manifest(warm.last_manifest).rows)
        lines = len(_log_lines(warm.manifest_dir))

        results = warm.run(_jobs("lru", "fifo"))
        assert [r.cached for r in results] == [True, False]
        run_dir = warm.last_manifest
        assert {p.name for p in run_dir.iterdir()} == RUN_FILES
        assert len(_log_lines(warm.manifest_dir)) == lines
        mixed = read_run_manifest(run_dir)
        hit_rows = [row for row in mixed.rows if row["cached"]]
        assert canonical_rows(hit_rows) == logged_rows
        assert mixed.summary["cached_jobs"] == 1
        events = [e for e in manifest.read_events(run_dir)
                  if e["index"] == 0]
        assert [e["state"] for e in events] == [JobState.SUCCEEDED]
        assert events[0]["cached"] is True
        names = [s["name"] for s in read_spans(run_dir)]
        assert names.count("engine.job") == 2
        assert names.count("engine.run") == 1


# ----------------------------------------------------------------------
# Resume and "latest"
# ----------------------------------------------------------------------

class TestResumeAndLatest:
    def test_resume_a_logged_run_by_id_and_as_latest(self, warm):
        warm.run(_jobs("lru", "srrip"))
        logged_id = warm.last_run_id
        assert run_history(warm.manifest_dir)[-1].name == logged_id

        resumed = warm.run(_jobs("lru", "srrip"), resume=logged_id)
        assert [r.state for r in resumed] == [JobState.SKIPPED] * 2
        summary = read_run_manifest(warm.last_manifest).summary
        assert summary["status"] == "resumed"
        assert summary["resumed_from"] == logged_id

        latest_id = warm.last_run_id
        warm.run(_jobs("lru", "srrip"), resume="latest")
        assert read_run_manifest(
            warm.last_manifest).summary["resumed_from"] == latest_id

    def test_latest_ranks_directories_and_logged_runs_together(
            self, warm):
        first_dir = warm.last_manifest
        warm.run(_jobs("lru"))
        logged = warm.last_manifest
        assert run_history(warm.manifest_dir)[-2:] == [first_dir, Path(logged)]
        # A directory written after the logged line is the latest.
        later = time.time() + 5
        os.utime(first_dir / "summary.json", (later, later))
        assert run_history(warm.manifest_dir)[-1] == first_dir
        assert resolve_run_dir(warm.cache_dir) == first_dir
        assert warm._resolve_resume("latest") == first_dir.name

    def test_unknown_run_id(self, warm):
        warm.run(_jobs("lru"))
        with pytest.raises(ValueError, match="no run"):
            warm.run(_jobs("lru"), resume="never-happened")
        with pytest.raises(FileNotFoundError):
            read_run_manifest(warm.manifest_dir / "never-happened")


# ----------------------------------------------------------------------
# Usage accounting
# ----------------------------------------------------------------------

def _sweep(policies, tenant="alice"):
    return {"op": "sweep", "tenant": tenant, "apps": ["tomcat"],
            "policies": list(policies), "mode": "misses",
            "length": LENGTH}


async def _serve(service, *requests):
    server = await service.start("127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        return [await request_once(host, port, request)
                for request in requests]
    finally:
        server.close()
        await server.wait_closed()


class TestUsageAndServiceSpans:
    def test_usage_stays_exact_across_logged_runs(self, tmp_path):
        ns = ArtifactStore(tmp_path).namespace("metered",
                                               quota_bytes=50_000_000)
        engine = ExperimentEngine(store=ns, jobs=1)
        engine.run(_jobs("lru", "srrip"))
        for _ in range(3):
            engine.run(_jobs("lru", "srrip"))
            assert ns.usage_bytes() == ns._scan_usage()
        assert len(_log_lines(ns.root / "runs")) == 3

    def test_warm_service_requests_log_and_export_their_trace(
            self, tmp_path):
        from repro.tools.trace_export import main
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0,
                                    quotas={"alice": 50_000_000})
        cold, warm_events = asyncio.run(_serve(
            service, _sweep(["lru", "srrip"]), _sweep(["lru", "srrip"])))
        ns = service.store.namespace("alice")
        runs = ns.root / "runs"
        assert _run_dirs(runs) == {cold[-1]["run_id"]}
        done = warm_events[-1]
        assert done["ok"] and done["manifest"] == str(
            runs / done["run_id"])
        kinds = [json.loads(line)["kind"] for line in _log_lines(runs)]
        assert kinds == ["run", "span", "span"]
        assert ns.usage_bytes() == ns._scan_usage()

        out = tmp_path / "trace.json"
        assert main([done["manifest"], "-o", str(out)]) == 0
        names = {event["name"] for event in
                 json.loads(out.read_text())["traceEvents"]
                 if event.get("ph") == "X"}
        assert {"service.request", "service.batch", "engine.job",
                "engine.run"} <= names
        status = service.status()
        assert [r["run_id"] for r in status["runs"]] \
            == [cold[-1]["run_id"], done["run_id"]]


# ----------------------------------------------------------------------
# The log is outside input
# ----------------------------------------------------------------------

class TestRunLogBoundary:
    @pytest.fixture()
    def logged(self, warm):
        warm.run(_jobs("lru"))
        return Path(warm.last_manifest)

    def _append(self, runs: Path, data: bytes) -> None:
        with open(runs / RUN_LOG, "ab") as fh:
            fh.write(data)

    @pytest.mark.parametrize("junk", [
        b'{"kind": "run", "run_id": "torn", "ro',     # torn last line
        b"\x00\xffgarbage\n",                          # garbage
        b"[1, 2, 3]\n",                                # not an object
        b'"just a string"\n',                          # not an object
        b'{"kind": "run", "run_id": 7, "t": "x"}\n',   # wrong types
        b"[" * 5000 + b"\n",                           # nested too deep
    ])
    def test_a_bad_line_is_skipped(self, logged, junk):
        runs = logged.parent
        self._append(runs, junk)
        assert read_run_manifest(logged).run_id == logged.name
        assert read_spans(logged)
        assert run_history(runs)[-1] == logged
        assert resolve_run_dir(runs.parent) == logged
        assert json.loads(_log_lines(runs)[0])["run_id"] == logged.name

    def test_a_run_line_with_bad_fields_reads_empty(self, logged):
        runs = logged.parent
        self._append(runs, json.dumps(
            {"kind": "run", "run_id": "odd", "t": time.time() + 9,
             "rows": "nope", "spans": [1, {"name": "x"}]}).encode() + b"\n")
        odd = read_run_manifest(runs / "odd")
        assert odd.rows == []
        assert read_spans(runs / "odd") == [{"name": "x"}]
        assert read_jobs_index(runs / "odd") == []

    def test_an_unknown_run_id_is_not_found(self, logged):
        with pytest.raises(FileNotFoundError):
            read_run_manifest(logged.parent / "no-such-run")
        assert read_spans(logged.parent / "no-such-run") == []

    @given(line=st.one_of(
        st.binary(max_size=200),
        st.recursive(st.none() | st.booleans() | st.integers()
                     | st.floats() | st.text(max_size=12),
                     lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(
                         st.sampled_from(["kind", "run_id", "t", "rows",
                                          "spans", "status", "x"]),
                         inner, max_size=6),
                     max_leaves=12).map(
                         lambda value: json.dumps(value).encode())))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_line_reads_cleanly(self, tmp_path_factory, line):
        runs = tmp_path_factory.mktemp("fuzz") / "runs"
        runs.mkdir()
        (runs / RUN_LOG).write_bytes(
            b'{"kind":"run","run_id":"r0","t":1.0,"rows":[],"spans":[]}\n'
            + line + b"\n")
        for run_dir in run_history(runs):
            read_run_manifest(run_dir)
            read_spans(run_dir)
            read_jobs_index(run_dir)
        for name in ("r0", "odd", "1"):
            try:
                read_run_manifest(runs / name)
            except FileNotFoundError:
                pass
            assert isinstance(read_spans(runs / name), list)
        assert read_run_manifest(runs / "r0").run_id == "r0"
