"""The asyncio simulation service: coalescing, streaming, tenancy.

The centerpiece is the differential test: a sweep submitted through the
service by two concurrent (coalesced) clients must be *byte-identical*
— artifact files, cache stats, manifest ``canonical_rows`` — to the
same jobs run through the CLI engine path, with the coalesced requests
sharing one deduplicated engine run.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path

import pytest

from repro.harness.engine import ArtifactStore, ExperimentEngine, SimJob
from repro.service.client import ServiceClient, request_once
from repro.service.protocol import (ProtocolError, job_from_dict,
                                    job_to_dict, jobs_from_request)
from repro.service.server import ServiceRunError, SimulationService
from repro.telemetry.manifest import (canonical_rows, read_run_manifest,
                                      read_spans)
from repro.telemetry.metrics import (MetricsRegistry, get_registry,
                                     set_registry)

LENGTH = 4000

#: Stats counters that must match between the CLI and service paths
#: (timings legitimately differ; these cannot).
STAT_FIELDS = ("hits", "misses", "corrupt", "digest_failures",
               "quarantined", "quota_rejected", "bytes_read",
               "bytes_written")


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry(enabled=True))
    try:
        yield
    finally:
        set_registry(previous)


def sweep_request(policies, tenant="alice"):
    return {"op": "sweep", "tenant": tenant, "apps": ["tomcat"],
            "policies": list(policies), "mode": "misses",
            "length": LENGTH}


async def _serve_and_request(service, *requests):
    """Start ``service``, fire ``requests`` concurrently, return each
    request's event list."""
    server = await service.start("127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        return await asyncio.gather(
            *(request_once(host, port, request)
              for request in requests))
    finally:
        server.close()
        await server.wait_closed()


def artifact_files(root: Path):
    """Relative path → bytes for every artifact under a store root."""
    files = {}
    for path in sorted(root.rglob("*.pkl")):
        rel = path.relative_to(root)
        if rel.parts[0] in ("runs", ".quarantine"):
            continue
        files[str(rel)] = path.read_bytes()
    return files


def harness_span_counts(summary):
    """``harness.*`` span name → count over every path of a run."""
    counts = {}
    for path, rec in summary["telemetry"]["spans"].items():
        leaf = path.rsplit("/", 1)[-1]
        if leaf.startswith("harness."):
            counts[leaf] = counts.get(leaf, 0) + rec["count"]
    return counts


class TestDifferentialEquivalence:
    def test_coalesced_service_run_matches_cli_engine_path(self,
                                                           tmp_path):
        """Two concurrent clients, overlapping policy sweeps → one
        shared run whose artifacts, stats, and canonical manifest rows
        are byte-identical to the CLI engine running the merged jobs."""
        # --- service path: two coalescible clients ---------------------
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.25)
        events_a, events_b = asyncio.run(_serve_and_request(
            service,
            sweep_request(["lru", "srrip"]),
            sweep_request(["srrip", "opt"])))
        done_a, done_b = events_a[-1], events_b[-1]
        assert done_a["ok"] and done_b["ok"]
        # Coalesced: one engine run, the srrip overlap deduplicated.
        assert done_a["coalesced"] and done_b["coalesced"]
        assert done_a["run_id"] == done_b["run_id"]
        assert done_a["batch_jobs"] == 3
        assert done_a["requests"] == 2

        # --- CLI engine path: the same merged job list -----------------
        jobs = [SimJob(app="tomcat", policy=policy, length=LENGTH,
                       mode="misses")
                for policy in ("lru", "srrip", "opt")]
        engine = ExperimentEngine(cache_dir=tmp_path / "cli", jobs=1)
        engine.run(jobs)

        # --- byte-identical artifacts ----------------------------------
        service_store = tmp_path / "svc" / "tenants" / "alice"
        cli_files = artifact_files(tmp_path / "cli")
        svc_files = artifact_files(service_store)
        assert cli_files.keys() == svc_files.keys()
        assert set(p.split("/")[0] for p in cli_files) >= {"trace",
                                                           "misses"}
        for rel, blob in cli_files.items():
            assert svc_files[rel] == blob, f"artifact differs: {rel}"

        # --- identical manifest canonical rows -------------------------
        svc_manifest = read_run_manifest(Path(done_a["manifest"]))
        cli_manifest = read_run_manifest(engine.last_manifest)
        assert (canonical_rows(svc_manifest.rows)
                == canonical_rows(cli_manifest.rows))

        # --- identical cache stats -------------------------------------
        svc_cache = svc_manifest.summary["cache"]
        cli_cache = cli_manifest.summary["cache"]
        for field in STAT_FIELDS:
            assert svc_cache[field] == cli_cache[field], field
        assert (harness_span_counts(svc_manifest.summary)
                == harness_span_counts(cli_manifest.summary))

        # --- both runs replayed each of the three jobs once ------------
        for manifest in (svc_manifest, cli_manifest):
            assert manifest.summary["jobs"] == 3
            assert manifest.summary["telemetry"]["spans"][
                "engine.job/harness.misses"]["count"] == 3

    def test_streamed_rows_match_manifest_rows(self, tmp_path):
        """The result events a client streams are exactly the manifest
        rows its jobs produced (same shape, same values)."""
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0)
        (events,) = asyncio.run(_serve_and_request(
            service, sweep_request(["lru", "srrip"])))
        done = events[-1]
        rows = [e["row"] for e in events if e["event"] == "result"]
        assert len(rows) == 2
        manifest = read_run_manifest(Path(done["manifest"]))
        key = lambda r: (r["app"], r["policy"])
        assert (sorted(rows, key=key)
                == sorted(manifest.rows, key=key))


class TestInProcessRuns:
    """``run_async`` is :meth:`ExperimentEngine.run` with one thread hop
    for the misses, and the only way the service runs jobs."""

    JOBS = [SimJob(app="tomcat", policy=policy, length=LENGTH,
                   mode="misses")
            for policy in ("lru", "srrip", "opt")]

    @staticmethod
    async def _run_async(engine, jobs, calls):
        """``engine.run_async(jobs)``, noting per delivered result its
        index, whether it was a hit, and whether it came on the loop."""
        loop_thread = threading.get_ident()
        return await engine.run_async(jobs, on_result=lambda r: calls.append(
            (r.index, r.cached, threading.get_ident() == loop_thread)))

    def test_run_async_matches_run_on_a_fresh_store(self, tmp_path):
        cli = ExperimentEngine(cache_dir=tmp_path / "run", jobs=1)
        expected = cli.run(self.JOBS)
        engine = ExperimentEngine(cache_dir=tmp_path / "async", jobs=1)
        calls = []
        results = asyncio.run(self._run_async(engine, self.JOBS, calls))
        assert [r.state for r in results] == [r.state for r in expected]
        assert (canonical_rows(read_run_manifest(engine.last_manifest).rows)
                == canonical_rows(read_run_manifest(cli.last_manifest).rows))
        files = artifact_files(tmp_path / "async")
        assert files and files == artifact_files(tmp_path / "run")
        assert calls == [(0, False, True), (1, False, True),
                         (2, False, True)]

    def test_on_result_comes_on_the_loop_for_hits_and_misses(
            self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run(self.JOBS[1:2])
        calls = []
        asyncio.run(self._run_async(engine, self.JOBS, calls))
        # The hit is served before dispatch, then the misses in order.
        assert calls == [(1, True, True), (0, False, True),
                         (2, False, True)]

    def test_all_hit_run_never_leaves_the_loop(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        engine.run(self.JOBS)

        async def scenario():
            loop = asyncio.get_running_loop()

            def refuse(*args):
                raise AssertionError("an all-hit run used an executor")

            loop.run_in_executor = refuse
            try:
                return await engine.run_async(self.JOBS)
            finally:
                del loop.run_in_executor

        results = asyncio.run(scenario())
        assert all(r.cached for r in results)
        summary = read_run_manifest(engine.last_manifest).summary
        assert summary["runtime"]["executor"] == "serial"

    def test_service_takes_no_worker_count(self, tmp_path):
        with pytest.raises(ValueError, match="in-process"):
            SimulationService(tmp_path, jobs=2)

    @pytest.mark.parametrize("flag", [["--jobs", "2"],
                                      ["--job-timeout", "5"]])
    def test_serve_has_no_worker_or_deadline_flag(self, tmp_path, flag,
                                                  capsys):
        from repro.tools import serve
        with pytest.raises(SystemExit) as exc:
            serve.main(["--cache-dir", str(tmp_path), "--smoke"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCoalescing:
    def test_shared_results_fan_out_to_both_subscribers(self, tmp_path):
        """The overlapping job is computed once and both clients
        receive the identical row."""
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.25)
        events_a, events_b = asyncio.run(_serve_and_request(
            service,
            sweep_request(["lru", "srrip"]),
            sweep_request(["srrip", "opt"])))

        def rows(events):
            return {e["row"]["policy"]: e["row"] for e in events
                    if e["event"] == "result"}

        rows_a, rows_b = rows(events_a), rows(events_b)
        # Each client sees exactly its requested policies...
        assert set(rows_a) == {"lru", "srrip"}
        assert set(rows_b) == {"srrip", "opt"}
        # ...and the shared job's row is the same object's serialization.
        assert rows_a["srrip"] == rows_b["srrip"]

    def test_requests_after_the_window_start_a_new_batch(self, tmp_path):
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0)

        async def scenario():
            server = await service.start("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                first = await request_once(host, port,
                                           sweep_request(["lru",
                                                          "srrip"]))
                second = await request_once(host, port,
                                            sweep_request(["lru",
                                                           "srrip"]))
                return first, second
            finally:
                server.close()
                await server.wait_closed()

        first, second = asyncio.run(scenario())
        assert first[-1]["run_id"] != second[-1]["run_id"]
        assert not second[-1]["coalesced"]
        # The second run is fully cache-served: nothing replayed.
        summary = read_run_manifest(Path(second[-1]["manifest"])).summary
        assert summary["cached_jobs"] == summary["jobs"] == 2


class TestTenancy:
    def test_distinct_tenants_never_share_runs_or_artifacts(self,
                                                            tmp_path):
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.25)
        events_a, events_c = asyncio.run(_serve_and_request(
            service,
            sweep_request(["lru", "srrip"], tenant="alice"),
            sweep_request(["lru", "srrip"], tenant="carol")))
        done_a, done_c = events_a[-1], events_c[-1]
        assert done_a["ok"] and done_c["ok"]
        assert done_a["run_id"] != done_c["run_id"]
        assert not done_a["coalesced"] and not done_c["coalesced"]
        # Both tenants computed from cold: no cross-tenant cache hits.
        for done in (done_a, done_c):
            summary = read_run_manifest(Path(done["manifest"])).summary
            assert summary["cache"]["misses"] > 0
        alice_root = tmp_path / "svc" / "tenants" / "alice"
        carol_root = tmp_path / "svc" / "tenants" / "carol"
        assert artifact_files(alice_root).keys() \
            == artifact_files(carol_root).keys()
        assert (alice_root / "runs").is_dir()
        assert (carol_root / "runs").is_dir()

    def test_overlapping_tenant_runs_count_only_their_own_traffic(
            self, tmp_path, monkeypatch):
        """Two tenants' runs overlap in one process registry; each run's
        ``cache`` block (and the status op's per-tenant one) folds only
        the counters under its own tenant label, so it equals a solo run
        of the same jobs."""
        jobs = [SimJob(app="tomcat", policy=policy, length=LENGTH,
                       mode="misses") for policy in ("lru", "srrip")]
        solo = ExperimentEngine(cache_dir=tmp_path / "solo", jobs=1)
        solo.run(jobs)
        expected = read_run_manifest(solo.last_manifest).summary["cache"]
        # Hold each run at the start of its misses until both are there:
        # the run that ends last sees the other's traffic in its window.
        from repro.harness.engine.executor import SerialExecutor
        both_running = threading.Barrier(2, timeout=30)
        real_execute = SerialExecutor.execute

        def execute(self, ctx, pending):
            both_running.wait()
            return real_execute(self, ctx, pending)

        monkeypatch.setattr(SerialExecutor, "execute", execute)
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0)

        async def scenario():
            server = await service.start("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                runs = await asyncio.gather(*(
                    request_once(host, port,
                                 sweep_request(["lru", "srrip"], tenant))
                    for tenant in ("alice", "carol")))
                status = await request_once(host, port, {"op": "status"})
                return runs, status[-1]
            finally:
                server.close()
                await server.wait_closed()

        runs, status = asyncio.run(scenario())
        saw_other = []
        for tenant, events in zip(("alice", "carol"), runs):
            assert events[-1]["ok"]
            summary = read_run_manifest(Path(events[-1]["manifest"])).summary
            assert summary["cache"] == expected, tenant
            assert status["tenants"][tenant]["cache"] == expected, tenant
            other = "carol" if tenant == "alice" else "alice"
            saw_other.append(any('tenant="%s"' % other in name for name
                                 in summary["telemetry"]["counters"]))
        assert any(saw_other)  # the runs really overlapped

    def test_tenant_quota_surfaces_in_status(self, tmp_path):
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0,
                                    quotas={"tiny": 1})

        async def scenario():
            server = await service.start("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                events = await request_once(
                    host, port,
                    sweep_request(["lru"], tenant="tiny"))
                status = await request_once(host, port,
                                            {"op": "status"})
                return events, status[-1]
            finally:
                server.close()
                await server.wait_closed()

        events, status = asyncio.run(scenario())
        # A 1-byte quota rejects every artifact write, but the store is
        # a cache: the jobs compute their values uncached, the run
        # succeeds, and the rejections are counted against the tenant.
        done = events[-1]
        assert done["event"] == "done"
        assert done["ok"] is True
        tiny = status["tenants"]["tiny"]
        assert tiny["quota_bytes"] == 1
        assert tiny["cache"]["quota_rejected"] > 0

    def test_invalid_tenant_name_is_rejected_up_front(self, tmp_path):
        """A tenant name the store would refuse ('a/b' escapes the
        tenants directory) gets an error event instead of an accepted
        event that never resolves — and the connection stays usable."""
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0)

        async def scenario():
            server = await service.start("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                bad = await asyncio.wait_for(
                    request_once(host, port,
                                 sweep_request(["lru"], tenant="a/b")),
                    timeout=30)
                follow_up = await asyncio.wait_for(
                    request_once(host, port, {"op": "status"}),
                    timeout=30)
                return bad, follow_up
            finally:
                server.close()
                await server.wait_closed()

        bad, follow_up = asyncio.run(scenario())
        assert [event["event"] for event in bad] == ["error"]
        assert "invalid namespace" in bad[0]["error"]
        assert follow_up[-1]["event"] == "status"

    def test_direct_submit_with_bad_tenant_resolves(self, tmp_path):
        """Library callers bypass the wire validation; the batch must
        still resolve (raising ServiceRunError) instead of leaving the
        submitter awaiting a future that never completes."""
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0)
        job = SimJob(app="tomcat", policy="lru", length=LENGTH,
                     mode="misses")

        async def scenario():
            with pytest.raises(ServiceRunError) as err:
                await asyncio.wait_for(
                    service.submit("-bad/tenant-", [job]), timeout=30)
            return err.value

        error = asyncio.run(scenario())
        assert error.summary["ok"] is False
        assert "invalid namespace" in error.summary["error"]


class TestProtocol:
    def test_job_round_trips_through_wire_dict(self):
        job = SimJob(app="tomcat", policy="srrip", length=LENGTH,
                     mode="misses")
        assert job_from_dict(job_to_dict(job)) == job

    def test_sweep_expansion_matches_manual_jobs(self):
        jobs = jobs_from_request(sweep_request(["lru", "srrip"]))
        assert jobs == [SimJob(app="tomcat", policy="lru",
                               length=LENGTH, mode="misses"),
                        SimJob(app="tomcat", policy="srrip",
                               length=LENGTH, mode="misses")]

    def test_profile_builds_hinted_jobs(self):
        jobs = jobs_from_request({"op": "profile", "apps": ["tomcat"],
                                  "length": LENGTH})
        assert len(jobs) == 1
        assert jobs[0].policy == "thermometer"
        assert jobs[0].mode == "misses"
        assert jobs[0].needs_hints

    def test_bad_requests_raise_protocol_errors(self):
        for request in ({"op": "simulate"},
                        {"op": "sweep", "apps": ["tomcat"]},
                        {"op": "warp"},
                        {"op": "simulate", "jobs": [{"policy": "lru"}]}):
            with pytest.raises(ProtocolError):
                jobs_from_request(request)

    def test_malformed_line_gets_error_event_and_connection_survives(
            self, tmp_path):
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0)

        async def scenario():
            server = await service.start("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                writer.write(b"not json\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                writer.write(json.dumps({"id": "s1",
                                         "op": "status"}).encode()
                             + b"\n")
                await writer.drain()
                status = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return error, status
            finally:
                server.close()
                await server.wait_closed()

        error, status = asyncio.run(scenario())
        assert error["event"] == "error"
        assert status["event"] == "status"

    def _send_lines(self, tmp_path, *lines):
        """Send raw ``lines`` on one connection, then a status request;
        return every event line received, through the status reply."""
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0)

        async def scenario():
            server = await service.start("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(
                    host, port, limit=2 ** 20)
                for line in lines:
                    writer.write(line)
                writer.write(json.dumps({"id": "after",
                                         "op": "status"}).encode()
                             + b"\n")
                await writer.drain()
                events = []
                while not events or events[-1].get("id") != "after":
                    events.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                return events
            finally:
                server.close()
                await server.wait_closed()

        return asyncio.run(scenario())

    def test_request_line_over_64_kib_is_served(self, tmp_path):
        """A 200 kB request line is under the wire bound: it is served,
        and so is the request behind it."""
        padded = {"id": "big", "op": "status", "pad": "x" * 200_000}
        events = self._send_lines(tmp_path,
                                  json.dumps(padded).encode() + b"\n")
        assert [(e["id"], e["event"]) for e in events] == \
            [("big", "status"), ("after", "status")]

    def test_request_line_over_the_frame_bound_is_one_error(self,
                                                            tmp_path):
        """A line over MAX_FRAME_BYTES is dropped with one error event,
        and the connection serves the next request."""
        from repro.service.framing import MAX_FRAME_BYTES
        line = b'{"id": "huge", "pad": "' + b"x" * MAX_FRAME_BYTES + b'"}\n'
        events = self._send_lines(tmp_path, line)
        assert [(e["id"], e["event"]) for e in events] == \
            [(None, "error"), ("after", "status")]
        assert str(MAX_FRAME_BYTES) in events[0]["error"]

    def test_connection_level_error_does_not_end_a_request(self,
                                                           tmp_path):
        """An id-null error (some other line on the connection was
        malformed) must not terminate a pipelined request's wait — the
        client keeps collecting until *its* done event."""
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0)

        async def scenario():
            server = await service.start("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                client = await ServiceClient.connect(host, port)
                # The server reports this line with id null, before it
                # sees the request that follows on the same connection.
                client._writer.write(b"not json\n")
                seen = []
                events = await asyncio.wait_for(
                    client.request(sweep_request(["lru"]),
                                   on_event=seen.append),
                    timeout=120)
                await client.close()
                return events, seen
            finally:
                server.close()
                await server.wait_closed()

        events, seen = asyncio.run(scenario())
        assert events[-1]["event"] == "done"
        assert all(event.get("id") is not None for event in events)
        assert any(event.get("id") is None
                   and event["event"] == "error" for event in seen)


class TestUsageAccounting:
    """Tenant usage is one counter per store: it must equal a full scan
    after every request, and warm requests must not rescan."""

    @staticmethod
    async def _requests(service, *requests):
        """Serve ``requests`` one after another; each request's events,
        then the metrics op's payload."""
        server = await service.start("127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            client = await ServiceClient.connect(host, port)
            try:
                events = [await client.request(request)
                          for request in requests]
                metrics = await client.request({"op": "metrics"})
            finally:
                await client.close()
            return events, metrics[-1]
        finally:
            server.close()
            await server.wait_closed()

    def test_traced_requests_keep_usage_exact(self, tmp_path):
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0,
                                    quotas={"alice": 50_000_000})
        events, metrics = asyncio.run(self._requests(
            service, sweep_request(["lru", "srrip"]),
            sweep_request(["lru"])))
        ns = service.store.namespace("alice")
        for request_events in events:
            done = request_events[-1]
            assert done["ok"], done
            names = {span["name"] for span in
                     read_spans(Path(done["manifest"]))}
            # Both post-run span sites appended to the run's journal.
            assert {"service.batch", "service.request"} <= names
        assert ns.usage_bytes() == ns._scan_usage()
        gauge = [line for line in metrics["text"].splitlines()
                 if line.startswith('repro_store_usage_bytes'
                                    '{tenant="alice"}')]
        assert len(gauge) == 1
        assert float(gauge[0].split()[-1]) == ns._scan_usage()

    def test_warm_requests_cost_one_scan(self, tmp_path):
        root = tmp_path / "svc"
        ExperimentEngine(store=ArtifactStore(root).namespace("alice"),
                         jobs=1).run([
                             SimJob(app="tomcat", policy=policy,
                                    length=LENGTH, mode="misses")
                             for policy in ("lru", "srrip")])
        set_registry(MetricsRegistry(enabled=True))
        service = SimulationService(root, jobs=1, coalesce_window=0.0)
        events, _metrics = asyncio.run(self._requests(
            service, *[sweep_request(["lru", "srrip"])] * 5))
        for request_events in events:
            assert request_events[-1]["ok"]
            rows = [e["row"] for e in request_events
                    if e["event"] == "result"]
            assert len(rows) == 2 and all(row["cached"] for row in rows)
        # The seed, taken by the first run's summary; never again.
        assert get_registry().counters["store/usage_scans"] == 1
        ns = service.store.namespace("alice")
        assert ns.usage_bytes() == ns._scan_usage()

    def test_warm_request_journals_its_spans_in_one_append(
            self, tmp_path, monkeypatch):
        import repro.service.server as server_module
        root = tmp_path / "svc"
        ExperimentEngine(store=ArtifactStore(root).namespace("alice"),
                         jobs=1).run([
                             SimJob(app="tomcat", policy="lru",
                                    length=LENGTH, mode="misses")])
        appends = []
        real = server_module.append_spans

        def spy(run_dir, records, append):
            appends.append([record["name"] for record in records])
            return real(run_dir, records, append)

        monkeypatch.setattr(server_module, "append_spans", spy)
        service = SimulationService(root, jobs=1, coalesce_window=0.0)
        events, _metrics = asyncio.run(self._requests(
            service, *[sweep_request(["lru"])] * 3))
        assert all(request_events[-1]["ok"] for request_events in events)
        assert appends == [["service.batch", "service.request"]] * 3
        for request_events in events:
            names = [span["name"] for span in
                     read_spans(Path(request_events[-1]["manifest"]))]
            assert names.index("service.batch") < names.index(
                "service.request")

    def test_direct_submit_still_journals_the_batch_span(self, tmp_path):
        from repro.telemetry.tracing import TraceContext
        service = SimulationService(tmp_path / "svc", jobs=1,
                                    coalesce_window=0.0)
        context = TraceContext("t" * 32, "s" * 16, None)
        job = SimJob(app="tomcat", policy="lru", length=LENGTH,
                     mode="misses", trace_context=context)
        summary = asyncio.run(service.submit("alice", [job]))
        names = [span["name"] for span in
                 read_spans(Path(summary["manifest"]))]
        assert names.count("service.batch") == 1
        assert "service.request" not in names
