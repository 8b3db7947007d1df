"""Observability: trace propagation, Prometheus metrics, dashboards.

The centerpiece is the pinned linkage test: a sweep submitted through
the service with a client-side root trace context must export a Chrome
trace-event document in which **every** worker-side job span is
reachable from the client's root ``trace_id`` by following
``parent_id`` links — the whole causal tree, client → service request →
batch → engine run → job attempts, survives the wire and the pool
boundary.
"""

from __future__ import annotations

import asyncio
import json
import re
from pathlib import Path

import pytest

from repro.harness.engine import ExperimentEngine, SimJob
from repro.harness.experiments import fig11
from repro.harness.runner import Harness, HarnessConfig
from repro.service.client import ServiceClient, request_once
from repro.service.server import SimulationService
from repro.telemetry import tracing
from repro.telemetry.manifest import (read_events, read_run_manifest,
                                      read_spans, render_report,
                                      synthesize_summary)
from repro.telemetry.metrics import (BucketMismatchError, Histogram,
                                     LATENCY_BUCKETS, MetricsRegistry,
                                     get_registry, merge_snapshots,
                                     set_registry, to_prometheus_text)
from repro.telemetry.tracing import (TraceContext, child_context,
                                     collect_spans, new_root_context, span)
from repro.tools.trace_export import spans_to_chrome_trace

LENGTH = 4000


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry(enabled=True))
    try:
        yield
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
# Tracing primitives
# ----------------------------------------------------------------------

class TestTraceContext:
    def test_round_trips_through_its_dict(self):
        ctx = TraceContext("t" * 32, "s" * 16, "p" * 16)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_root_has_no_parent_key(self):
        root = new_root_context()
        assert root.parent_id is None
        assert "parent_id" not in root.to_dict()

    def test_child_links_to_its_parent(self):
        root = new_root_context()
        child = root.child_context()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    @pytest.mark.parametrize("payload", [
        None, "nope", 42, {}, {"trace_id": "only"},
        {"span_id": "only"}, {"trace_id": "", "span_id": ""},
    ])
    def test_from_dict_tolerates_junk(self, payload):
        assert TraceContext.from_dict(payload) is None

    def test_ambient_child_without_parent_is_a_fresh_root(self):
        ctx = child_context()
        assert ctx.parent_id is None

    def test_pickles_into_a_job_without_changing_its_key(self):
        import dataclasses
        job = SimJob(app="tomcat", policy="lru", mode="misses",
                     length=LENGTH)
        traced = dataclasses.replace(
            job, trace_context=new_root_context())
        assert traced == job
        assert traced.cache_key() == job.cache_key()


class TestTraceSpan:
    def test_spans_collect_into_the_innermost_scope(self):
        with collect_spans() as outer:
            with span("a"):
                pass
            with collect_spans() as inner:
                with span("b"):
                    pass
        assert [s["name"] for s in outer] == ["a"]
        assert [s["name"] for s in inner] == ["b"]

    def test_nested_spans_link_up_automatically(self):
        with collect_spans() as spans:
            with span("parent"):
                with span("child"):
                    pass
        child, parent = spans  # children finish (and record) first
        assert child["name"] == "child"
        assert child["trace_id"] == parent["trace_id"]
        assert child["parent_id"] == parent["span_id"]

    def test_span_args_and_error_flag(self):
        with collect_spans() as spans:
            with pytest.raises(RuntimeError):
                with span("boom", app="tomcat") as live:
                    live.set(policy="lru")
                    raise RuntimeError("x")
        (record,) = spans
        assert record["error"] is True
        assert record["args"] == {"app": "tomcat", "policy": "lru"}
        assert record["dur"] >= 0

    def test_without_a_scope_spans_are_dropped(self):
        with span("orphan") as live:
            live.set(ignored=True)  # the inert span accepts args

    def test_disabled_registry_journals_no_spans(self):
        set_registry(MetricsRegistry(enabled=False))
        with collect_spans() as spans:
            with span("off"):
                pass
        assert spans == []


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+\-]+$|"
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \+Inf$")


def assert_valid_exposition(text: str) -> None:
    """Every line is a comment or a well-formed sample; every sample's
    family was introduced by HELP/TYPE lines."""
    declared = set()
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            declared.add(line.split()[2])
            continue
        assert SAMPLE_RE.match(line), f"bad sample line: {line!r}"
        name = line.split("{")[0].split(" ")[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in declared or base in declared, \
            f"sample {name} has no HELP/TYPE"
    assert text.endswith("\n")


class TestPrometheusText:
    def test_counters_gauges_histograms_and_spans(self):
        registry = MetricsRegistry(enabled=True)
        set_registry(registry)
        registry.count("engine/jobs/succeeded", 3)
        registry.gauge("service/tenants", 2)
        registry.observe('service/request_seconds{tenant="alice"}',
                         0.2, bounds=LATENCY_BUCKETS)
        with span("harness.misses"):
            pass
        text = to_prometheus_text(registry.snapshot())
        assert_valid_exposition(text)
        assert "repro_engine_jobs_succeeded_total 3" in text
        assert "repro_service_tenants 2" in text
        assert ('repro_service_request_seconds_bucket'
                '{tenant="alice",le="+Inf"} 1') in text
        assert ('repro_service_request_seconds_count'
                '{tenant="alice"} 1') in text
        assert 'repro_span_calls_total{span="harness.misses"} 1' in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry(enabled=True)
        for value in (0.5, 1.5, 99.0):
            registry.observe("lat", value, bounds=(1.0, 2.0))
        text = to_prometheus_text(registry.snapshot())
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="2"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text

    def test_empty_snapshot_is_empty_text(self):
        assert to_prometheus_text(
            MetricsRegistry(enabled=True).snapshot()) == ""


# ----------------------------------------------------------------------
# Histogram merge validation (satellite: bucket compatibility)
# ----------------------------------------------------------------------

class TestHistogramCompatibility:
    def test_merge_incompatible_layouts_names_both(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(2.0, 20.0))
        with pytest.raises(BucketMismatchError, match="bounds"):
            a.merge(b)

    def test_merge_snapshots_wraps_the_histogram_name(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        a.observe("lat", 1.0, bounds=(1.0,))
        b.observe("lat", 1.0, bounds=(3.0, 4.0))
        with pytest.raises(BucketMismatchError, match="'lat'"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_bucket_mismatch_is_a_value_error(self):
        assert issubclass(BucketMismatchError, ValueError)


# ----------------------------------------------------------------------
# Engine-level tracing
# ----------------------------------------------------------------------

def _walk_to_root(span, by_id, limit=16):
    current = span
    for _ in range(limit):
        parent = by_id.get(current.get("parent_id"))
        if parent is None:
            return current
        current = parent
    raise AssertionError("parent chain too deep (cycle?)")


class TestEngineTracing:
    def test_serial_run_journals_a_linked_tree(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run([SimJob(app="tomcat", policy=p, mode="misses",
                           length=LENGTH) for p in ("lru", "srrip")])
        spans = read_spans(engine.last_manifest)
        names = {s["name"] for s in spans}
        assert {"engine.run", "engine.job", "store.get"} <= names
        (root,) = [s for s in spans if s["name"] == "engine.run"]
        by_id = {s["span_id"]: s for s in spans}
        for span in spans:
            top = _walk_to_root(span, by_id)
            assert top["span_id"] == root["span_id"]
            assert span["trace_id"] == root["trace_id"]

    def test_pool_workers_spans_cross_the_process_boundary(self,
                                                           tmp_path):
        """Pinned: pickled contexts keep worker-side job spans linked
        under the parent's run span, from other processes."""
        import os
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=2)
        engine.run([SimJob(app=app, policy="lru", mode="misses",
                           length=LENGTH)
                    for app in ("tomcat", "python")])
        spans = read_spans(engine.last_manifest)
        (root,) = [s for s in spans if s["name"] == "engine.run"]
        job_spans = [s for s in spans if s["name"] == "engine.job"]
        assert len(job_spans) == 2
        assert {s["pid"] for s in job_spans} != {os.getpid()}
        for span in job_spans:
            assert span["trace_id"] == root["trace_id"]
            assert span["parent_id"] == root["span_id"]

    def test_state_events_and_spans_share_the_journal_cleanly(
            self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run([SimJob(app="tomcat", policy="lru", mode="misses",
                           length=LENGTH)])
        events = read_events(engine.last_manifest)
        assert events and all("state" in e for e in events)
        assert all(e.get("kind", "state") == "state" for e in events)
        assert read_spans(engine.last_manifest)

    def test_tracing_off_leaves_the_journal_span_free(self, tmp_path):
        set_registry(MetricsRegistry(enabled=False))
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run([SimJob(app="tomcat", policy="lru", mode="misses",
                           length=LENGTH)])
        assert read_spans(engine.last_manifest) == []
        assert read_events(engine.last_manifest)

    def test_failed_attempts_still_ship_their_spans(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1,
                                  max_retries=0)
        with pytest.raises(Exception):
            engine.run([SimJob(app="no-such-app", policy="lru",
                               mode="misses", length=LENGTH)])
        spans = read_spans(engine.last_manifest)
        job_spans = [s for s in spans if s["name"] == "engine.job"]
        assert job_spans and all(s.get("error") for s in job_spans)


# ----------------------------------------------------------------------
# Service end-to-end (the pinned acceptance test)
# ----------------------------------------------------------------------

async def _serve(service):
    server = await service.start("127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[:2]


class TestServiceTracing:
    def test_every_worker_job_span_reachable_from_client_root(
            self, tmp_path):
        """Pinned: export the run's spans as Chrome trace JSON and walk
        ``args.parent_id`` links — every job span must reach the
        client's root ``trace_id``."""
        root_ctx = new_root_context()

        async def scenario():
            service = SimulationService(tmp_path, jobs=1,
                                        coalesce_window=0.05)
            server, (host, port) = await _serve(service)
            try:
                request = {"op": "sweep", "tenant": "alice",
                           "apps": ["tomcat"],
                           "policies": ["lru", "srrip", "opt"],
                           "mode": "misses", "length": LENGTH,
                           "trace": root_ctx.to_dict()}
                return await request_once(host, port, request)
            finally:
                server.close()
                await server.wait_closed()

        events = asyncio.run(scenario())
        done = events[-1]
        assert done["event"] == "done" and done["ok"]
        document = spans_to_chrome_trace(read_spans(Path(
            done["manifest"])))
        slices = [e for e in document["traceEvents"]
                  if e.get("ph") == "X"]
        by_id = {e["args"]["span_id"]: e for e in slices}
        job_slices = [e for e in slices if e["name"] == "engine.job"]
        assert len(job_slices) == 3
        for event in job_slices:
            assert event["args"]["trace_id"] == root_ctx.trace_id
            current = event
            seen = 0
            while current["args"].get("parent_id") in by_id:
                current = by_id[current["args"]["parent_id"]]
                seen += 1
                assert seen < 16
            # The chain tops out at the request span, whose parent is
            # the client root (present only client-side).
            assert current["name"] == "service.request"
            assert current["args"]["parent_id"] == root_ctx.span_id
        # The service layers are present as slices too.
        names = {e["name"] for e in slices}
        assert {"service.request", "service.batch",
                "engine.run"} <= names

    def test_client_stamps_a_root_trace_automatically(self, tmp_path):
        async def scenario():
            service = SimulationService(tmp_path, jobs=1,
                                        coalesce_window=0.0)
            server, (host, port) = await _serve(service)
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    events = await client.request(
                        {"op": "simulate", "tenant": "alice",
                         "jobs": [{"app": "tomcat", "policy": "lru"}],
                         "mode": "misses", "length": LENGTH})
                finally:
                    await client.close()
                return events
            finally:
                server.close()
                await server.wait_closed()

        events = asyncio.run(scenario())
        done = events[-1]
        assert done["ok"]
        spans = read_spans(Path(done["manifest"]))
        request_spans = [s for s in spans
                         if s["name"] == "service.request"]
        assert len(request_spans) == 1
        # The request span has a parent: the client's implicit root.
        assert request_spans[0].get("parent_id")

    def test_metrics_op_serves_per_tenant_latency_histograms(
            self, tmp_path):
        async def scenario():
            service = SimulationService(tmp_path, jobs=1,
                                        coalesce_window=0.0)
            server, (host, port) = await _serve(service)
            try:
                sweep = {"op": "sweep", "tenant": "alice",
                         "apps": ["tomcat"], "policies": ["lru"],
                         "mode": "misses", "length": LENGTH}
                await request_once(host, port, sweep)
                await request_once(host, port,
                                   dict(sweep, tenant="bob"))
                return (await request_once(host, port,
                                           {"op": "metrics"}))[-1]
            finally:
                server.close()
                await server.wait_closed()

        metrics = asyncio.run(scenario())
        assert metrics["event"] == "metrics"
        assert metrics["content_type"].startswith("text/plain")
        text = metrics["text"]
        assert_valid_exposition(text)
        for tenant in ("alice", "bob"):
            assert (f'repro_service_request_seconds_bucket'
                    f'{{tenant="{tenant}",le="+Inf"}} 1') in text
            assert (f'repro_service_requests_total'
                    f'{{tenant="{tenant}"}} 1') in text
            assert f'repro_store_usage_bytes{{tenant="{tenant}"}}' \
                in text
        assert "repro_service_coalesce_delay_seconds_bucket" in text
        assert "repro_service_queue_wait_seconds_bucket" in text
        assert "repro_service_run_seconds_bucket" in text


# ----------------------------------------------------------------------
# One span vocabulary for the manifest and the journal
# ----------------------------------------------------------------------

class TestSpanVocabulary:
    #: Regions timed in the worker, so both the manifest (registry) and
    #: the journal must show them, under one name and with one count.
    SHARED = ("engine.job", "store.get", "store.put", "store.fetch",
              "frontend.simulate")

    @staticmethod
    def _check_names(manifest_spans, journal):
        segments = {segment for path in manifest_spans
                    for segment in path.split("/")}
        names = {record["name"] for record in journal}
        assert segments <= set(tracing.SPAN_NAMES), segments
        assert names <= set(tracing.SPAN_NAMES), names

    def test_sweep_manifest_and_journal_share_names(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run([SimJob(app="tomcat", policy=policy, mode=mode,
                           length=LENGTH)
                    for policy in ("lru", "thermometer")
                    for mode in ("misses", "sim")])
        manifest_spans = read_run_manifest(
            engine.last_manifest).summary["telemetry"]["spans"]
        journal = read_spans(engine.last_manifest)
        self._check_names(manifest_spans, journal)
        for name in self.SHARED:
            in_manifest = sum(rec["count"]
                              for path, rec in manifest_spans.items()
                              if path.split("/")[-1] == name)
            in_journal = sum(1 for record in journal
                             if record["name"] == name)
            assert in_manifest == in_journal > 0, name

    def test_fig11_row_manifest_times_every_fast_path_pass(self, tmp_path):
        """The fast simulate's pass and reduction spans sit under
        ``frontend.simulate``, once per simulate of a Fig. 11 row; the
        reference loop's region spans never appear."""
        jobs = fig11.plan(HarnessConfig(apps=("tomcat",), length=LENGTH))
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run(jobs)
        spans = read_run_manifest(
            engine.last_manifest).summary["telemetry"]["spans"]
        self._check_names(spans, read_spans(engine.last_manifest))

        def count(name):
            return sum(rec["count"] for path, rec in spans.items()
                       if path.split("/")[-1] == name)

        simulates = count("frontend.simulate")
        assert simulates == len(jobs) == 7
        for name in ("frontend.direction", "frontend.ras", "frontend.btb",
                     "frontend.ibtb", "frontend.icache", "frontend.fdip",
                     "frontend.reduce"):
            assert count(name) == simulates, name
            assert all("frontend.simulate/" + name in path
                       for path in spans if path.endswith(name)), name
        assert count("frontend.warmup") == count("frontend.measure") == 0

    def test_cold_simulate_counts_one_span_per_artifact_written(
            self, tmp_path, capsys):
        """Each artifact a cold ``simulate`` sweep computes counts once,
        under its ``harness.<kind>`` span, and the sweep prints the span
        table ``report`` prints."""
        from repro.tools.simulate import main
        assert main(["--apps", "tomcat,python",
                     "--policies", "lru,thermometer",
                     "--length", str(LENGTH), "--jobs", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        spans = read_run_manifest(tmp_path).summary["telemetry"]["spans"]
        for kind in ("trace", "profile", "hints"):
            written = len(list((tmp_path / kind).rglob("*.pkl")))
            counted = sum(rec["count"] for path, rec in spans.items()
                          if path.split("/")[-1] == "harness." + kind)
            assert counted == written == 2, kind
        out = capsys.readouterr().out
        assert re.search(r"^span +count +seconds +of wall +errors$", out,
                         re.MULTILINE)
        assert "engine.job/harness.misses" in out

    def test_lru_baseline_counts_one_sim_span(self):
        Harness(HarnessConfig(apps=("tomcat",), length=LENGTH)).lru_sim(
            "tomcat")
        spans = get_registry().snapshot()["spans"]
        assert {path: rec["count"] for path, rec in spans.items()
                if path.endswith("harness.sim")} == {"harness.sim": 1}

    def test_service_request_uses_the_same_names(self, tmp_path):
        async def scenario():
            service = SimulationService(tmp_path, jobs=1,
                                        coalesce_window=0.0)
            server, (host, port) = await _serve(service)
            try:
                return await request_once(host, port, {
                    "op": "sweep", "tenant": "alice",
                    "apps": ["tomcat"], "policies": ["lru"],
                    "mode": "sim", "length": LENGTH})
            finally:
                server.close()
                await server.wait_closed()

        done = asyncio.run(scenario())[-1]
        assert done["ok"]
        run_dir = Path(done["manifest"])
        journal = read_spans(run_dir)
        self._check_names(read_run_manifest(
            run_dir).summary["telemetry"]["spans"], journal)
        assert {"service.request", "service.batch", "engine.run",
                "engine.job", "frontend.simulate"} <= {
                    record["name"] for record in journal}


# ----------------------------------------------------------------------
# Executor cancellation / client error delivery (satellite 3)
# ----------------------------------------------------------------------

class TestAsyncCancellation:
    def test_cancel_mid_run_still_writes_a_failed_manifest(
            self, tmp_path, monkeypatch):
        """The cancel lands while job 1 computes: job 1 finishes and is
        delivered, no later attempt starts, nothing reaches ``on_result``
        after the CancelledError, and the manifest records the cancel."""
        import repro.harness.engine.executor as executor_module
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        jobs = [SimJob(app=app, policy="lru", mode="misses",
                       length=LENGTH)
                for app in ("tomcat", "python", "clang", "kafka")]
        started = []
        real = executor_module._execute_guarded
        real_execute = executor_module.SerialExecutor.execute
        in_flight = {}

        def execute(self, ctx, pending):
            in_flight["ctx"] = ctx
            return real_execute(self, ctx, pending)

        def attempt(job, *, index, **kwargs):
            started.append(index)
            if index == 1:
                # Hold the attempt in flight until the cancel stops the
                # run.
                loop, event = in_flight["loop"], in_flight["event"]
                loop.call_soon_threadsafe(event.set)
                assert in_flight["ctx"].stop.wait(timeout=60)
            return real(job, index=index, **kwargs)

        monkeypatch.setattr(executor_module.SerialExecutor, "execute",
                            execute)
        monkeypatch.setattr(executor_module, "_execute_guarded", attempt)
        seen = []

        async def scenario():
            in_flight.update(loop=asyncio.get_running_loop(),
                             event=asyncio.Event())
            task = asyncio.ensure_future(engine.run_async(
                jobs, on_result=lambda r: seen.append(r.index)))
            await asyncio.wait_for(in_flight["event"].wait(), timeout=60)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            delivered = list(seen)
            await asyncio.sleep(0.2)
            return delivered

        assert asyncio.run(scenario()) == seen == [0, 1]
        assert started == [0, 1]
        manifest = read_run_manifest(engine.last_manifest)
        assert manifest.summary["status"] == "failed"
        states = manifest.summary["job_states"]
        assert states == {"succeeded": 2, "pending": 2}
        assert [row["index"] for row in read_events(engine.last_manifest)
                if row["state"] == "running"] == [0, 1]
        # The cancel is recorded as the run's failure.
        errors = json.dumps(manifest.summary.get("exceptions", []))
        assert "CancelledError" in errors

    def test_service_shutdown_mid_run_resolves_the_request(
            self, tmp_path):
        async def scenario():
            service = SimulationService(tmp_path, jobs=1,
                                        coalesce_window=0.0)
            server, (host, port) = await _serve(service)
            try:
                sweep_task = asyncio.ensure_future(request_once(
                    host, port,
                    {"op": "sweep", "tenant": "alice",
                     "apps": ["tomcat"], "policies": ["lru", "srrip"],
                     "mode": "misses", "length": LENGTH}))
                await asyncio.sleep(0.05)
                bye = await request_once(host, port,
                                         {"op": "shutdown"})
                events = await asyncio.wait_for(sweep_task, timeout=60)
                return bye[-1], events[-1]
            finally:
                server.close()
                await server.wait_closed()

        bye, done = asyncio.run(scenario())
        assert bye["event"] == "bye"
        # The in-flight request still resolves (the engine finishes its
        # batch; shutdown only stops accepting new connections).
        assert done["event"] in ("done", "error")


class TestClientErrorDelivery:
    def test_id_null_errors_reach_on_event_without_ending_the_wait(
            self):
        async def scenario():
            async def fake_service(reader, writer):
                line = await reader.readline()
                request = json.loads(line)
                # A connection-level error first (id null), then the
                # real terminal event.
                writer.write((json.dumps(
                    {"id": None, "event": "error",
                     "error": "unparseable line"}) + "\n").encode())
                writer.write((json.dumps(
                    {"id": request["id"], "event": "done",
                     "ok": True}) + "\n").encode())
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(fake_service,
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            seen = []
            try:
                client = await ServiceClient.connect(host, port)
                try:
                    events = await client.request(
                        {"op": "status"}, on_event=seen.append)
                finally:
                    await client.close()
            finally:
                server.close()
                await server.wait_closed()
            return events, seen

        events, seen = asyncio.run(scenario())
        # The id-null error is surfaced through on_event but is not
        # part of the request's own event list, and does not
        # terminate the wait.
        assert [e["event"] for e in events] == ["done"]
        assert seen[0]["event"] == "error"
        assert seen[0]["id"] is None
        assert seen[-1]["event"] == "done"


# ----------------------------------------------------------------------
# Partial-manifest degradation (satellite 1)
# ----------------------------------------------------------------------

class TestPartialManifests:
    def _run(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run([SimJob(app="tomcat", policy="lru", mode="misses",
                           length=LENGTH)])
        return engine.last_manifest

    def test_missing_summary_degrades_to_journal(self, tmp_path):
        run_dir = self._run(tmp_path)
        (run_dir / "summary.json").unlink()
        manifest = read_run_manifest(run_dir)
        assert manifest.summary["partial"] is True
        assert manifest.summary["jobs"] == 1
        assert manifest.summary["job_states"] == {"succeeded": 1}
        assert "summary.json" in manifest.summary["missing"]
        assert "PARTIAL RUN" in render_report(manifest)

    def test_corrupt_summary_degrades_to_journal(self, tmp_path):
        run_dir = self._run(tmp_path)
        (run_dir / "summary.json").write_text("{ torn write",
                                              encoding="utf-8")
        manifest = read_run_manifest(run_dir)
        assert manifest.summary["partial"] is True
        assert any("corrupt" in item
                   for item in manifest.summary["missing"])

    def test_torn_journal_lines_are_skipped(self, tmp_path):
        run_dir = self._run(tmp_path)
        with open(run_dir / "events.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write('{"kind": "state", "ind')  # torn mid-write
        assert read_events(run_dir)
        (run_dir / "summary.json").unlink()
        assert read_run_manifest(run_dir).summary["partial"] is True

    def test_synthesize_raises_when_nothing_recoverable(self, tmp_path):
        empty = tmp_path / "empty-run"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            synthesize_summary(empty)

    def test_report_cli_renders_a_partial_run(self, tmp_path, capsys):
        from repro.tools.report import main
        run_dir = self._run(tmp_path)
        (run_dir / "summary.json").unlink()
        assert main([str(run_dir)]) == 0
        assert "PARTIAL" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Tools: trace_export and top
# ----------------------------------------------------------------------

class TestTraceExportTool:
    def test_export_cli_writes_chrome_trace_json(self, tmp_path,
                                                 capsys):
        from repro.tools.trace_export import main
        engine = ExperimentEngine(cache_dir=tmp_path / "cache", jobs=1)
        engine.run([SimJob(app="tomcat", policy="lru", mode="misses",
                           length=LENGTH)])
        out = tmp_path / "trace.json"
        assert main([str(engine.last_manifest), "-o", str(out)]) == 0
        document = json.loads(out.read_text())
        slices = [e for e in document["traceEvents"]
                  if e.get("ph") == "X"]
        assert slices
        for event in slices:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["args"]["trace_id"]
        assert any(e.get("ph") == "M" for e in document["traceEvents"])

    def test_export_without_spans_exits_nonzero(self, tmp_path):
        from repro.tools.trace_export import main
        set_registry(MetricsRegistry(enabled=False))
        engine = ExperimentEngine(cache_dir=tmp_path / "cache", jobs=1)
        engine.run([SimJob(app="tomcat", policy="lru", mode="misses",
                           length=LENGTH)])
        assert main([str(engine.last_manifest)]) == 2

    def test_export_missing_run_exits_nonzero(self, tmp_path):
        from repro.tools.trace_export import main
        assert main([str(tmp_path / "nowhere")]) == 2


class TestTopTool:
    def test_run_mode_once_renders_states_and_spans(self, tmp_path,
                                                    capsys):
        from repro.tools.top import main
        engine = ExperimentEngine(cache_dir=tmp_path / "cache", jobs=1)
        engine.run([SimJob(app="tomcat", policy=p, mode="misses",
                           length=LENGTH) for p in ("lru", "srrip")])
        assert main([str(engine.last_manifest), "--once"]) == 0
        out = capsys.readouterr().out
        assert "status=completed" in out
        assert "succeeded=2" in out
        assert "slowest spans" in out
        assert "engine.run" in out

    def test_run_mode_renders_partial_runs(self, tmp_path, capsys):
        from repro.tools.top import main
        engine = ExperimentEngine(cache_dir=tmp_path / "cache", jobs=1)
        engine.run([SimJob(app="tomcat", policy="lru", mode="misses",
                           length=LENGTH)])
        (engine.last_manifest / "summary.json").unlink()
        assert main([str(engine.last_manifest), "--once"]) == 0
        assert "[partial]" in capsys.readouterr().out

    def test_missing_path_exits_nonzero(self, tmp_path):
        from repro.tools.top import main
        assert main([str(tmp_path / "nowhere"), "--once"]) == 2

    def test_service_frame_renders_rates_and_quantiles(self):
        from repro.tools.top import render_service_frame
        registry = MetricsRegistry(enabled=True)
        registry.count('service/requests{tenant="alice"}', 10)
        registry.observe('service/request_seconds{tenant="alice"}',
                         0.08, bounds=LATENCY_BUCKETS)
        status = {
            "requests": 10, "coalesced_requests": 3,
            "tenants": {"alice": {
                "usage_bytes": 4096, "quota_bytes": 1 << 20,
                "cache": {"hits": 3, "misses": 1}}},
            "runs": [{"tenant": "alice", "run_id": "r-1",
                      "status": "completed", "jobs": 2,
                      "wall_seconds": 0.5}],
            "telemetry": registry.snapshot(),
        }
        previous = {"telemetry": {"counters":
                                  {'service/requests{tenant="alice"}':
                                   6}}}
        frame = render_service_frame(status, "a 1\nb 2\n",
                                     previous=previous, interval=2.0)
        assert "alice" in frame
        assert "2.0/s" in frame          # (10 - 6) / 2s
        assert "75%" in frame            # 3 hits / 4 lookups
        assert "100.0ms" in frame        # p50 upper bound bucket
        assert "r-1" in frame

    def test_service_mode_polls_a_live_service(self, tmp_path, capsys):
        from repro.tools import top

        async def scenario():
            service = SimulationService(tmp_path, jobs=1,
                                        coalesce_window=0.0)
            server, (host, port) = await _serve(service)
            try:
                await request_once(
                    host, port,
                    {"op": "sweep", "tenant": "alice",
                     "apps": ["tomcat"], "policies": ["lru"],
                     "mode": "misses", "length": LENGTH})
                return await top.poll_service(host, port)
            finally:
                server.close()
                await server.wait_closed()

        status, metrics_text = asyncio.run(scenario())
        assert status["requests"] == 1
        assert "repro_service_requests_total" in metrics_text
        frame = top.render_service_frame(status, metrics_text)
        assert "alice" in frame

    def test_service_mode_unreachable_exits_nonzero(self):
        from repro.tools.top import main
        # A port from the ephemeral range with (almost surely) no
        # listener; connection refused must exit 2, not traceback.
        assert main(["--host", "127.0.0.1", "--port", "1",
                     "--once"]) == 2
