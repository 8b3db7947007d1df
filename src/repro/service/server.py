"""The asyncio simulation service: coalescing front door to the engine.

:class:`SimulationService` owns one multi-tenant
:class:`~repro.harness.engine.ArtifactStore` and one
:class:`~repro.harness.engine.ExperimentEngine` per tenant namespace
(artifacts *and* run manifests live under ``<root>/tenants/<name>``, so
tenants can neither read nor evict each other's caches and quota
rejections stay theirs alone).

Request coalescing: submissions for the same tenant arriving within
``coalesce_window`` seconds join one **batch** — identical jobs (same
cache key) are deduplicated with every subscriber fanned the shared
result, and the merged job list goes through one
:meth:`~repro.harness.engine.ExperimentEngine.run_async`, where
same-(app, input, config) jobs share one harness and its memoized trace,
access stream and profile.  Two clients asking for overlapping policy
sweeps therefore build each stream once, not twice — and the artifacts,
stats, and manifest rows are byte-identical to running the merged list
through the CLI engine path, because it *is* the same path.

Results stream: every terminal job result is pushed to its subscribers
the moment the engine records it (the ``on_result`` seam), not when the
batch finishes.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.harness.engine import (ArtifactStore, ExperimentEngine,
                                  ExperimentError, JobResult, SimJob,
                                  validate_namespace)
from repro.service.framing import FrameTooLargeError, MAX_FRAME_BYTES
from repro.service.protocol import (ProtocolError, decode_line,
                                    encode_line, jobs_from_request)
from repro.telemetry.manifest import (append_spans, job_row,
                                      read_run_manifest, run_history)
from repro.telemetry.metrics import (LATENCY_BUCKETS, get_registry,
                                     to_prometheus_text)
from repro.telemetry.tracing import (TraceContext, child_context,
                                     new_span_id, span_record)

log = logging.getLogger(__name__)

__all__ = ["ServiceRunError", "SimulationService", "serve"]

#: Tenant used when a request names none.
DEFAULT_TENANT = "default"


def _per_tenant(name: str, tenant: str) -> str:
    """A registry key with the inline-label convention
    :func:`~repro.telemetry.metrics.to_prometheus_text` exports as a
    Prometheus label (``service/requests{tenant="alice"}``)."""
    return '%s{tenant="%s"}' % (name, tenant)


class ServiceRunError(RuntimeError):
    """A submitted batch finished with failed jobs.

    Wraps the engine's :class:`ExperimentError` for one subscriber;
    ``summary`` is the same run summary a successful ``done`` event
    carries (run id, manifest path, coalescing facts)."""

    def __init__(self, message: str, summary: Dict[str, Any]):
        super().__init__(message)
        self.summary = summary


class _Subscriber:
    """One request's view of a (possibly shared) batch."""

    def __init__(self, indices: List[int],
                 on_result: Optional[Callable[[JobResult], None]],
                 spans: Optional[List[dict]] = None):
        #: Batch indices this request asked for, in request order.
        self.indices = indices
        self.wanted = set(indices)
        self.on_result = on_result
        #: Where the batch span goes if this subscriber journals it.
        self.spans = spans

    def emit(self, result: JobResult) -> None:
        if self.on_result is not None and result.index in self.wanted:
            self.on_result(result)


class _Batch:
    """Jobs coalesced into one engine run (one tenant, one window)."""

    def __init__(self) -> None:
        self.jobs: List[SimJob] = []
        self.key_to_index: Dict[str, int] = {}
        self.subscribers: List[_Subscriber] = []
        #: When this batch's coalescing window opened (monotonic/epoch).
        self.created = time.perf_counter()
        self.created_epoch = time.time()
        #: Resolves to (results, summary) once the engine run finishes.
        self.done: asyncio.Future = (
            asyncio.get_running_loop().create_future())

    def add(self, jobs: List[SimJob],
            on_result: Optional[Callable[[JobResult], None]],
            spans: Optional[List[dict]] = None) -> _Subscriber:
        indices = []
        for job in jobs:
            key = job.cache_key()
            index = self.key_to_index.get(key)
            if index is None:
                index = len(self.jobs)
                self.jobs.append(job)
                self.key_to_index[key] = index
            indices.append(index)
        subscriber = _Subscriber(indices, on_result, spans)
        self.subscribers.append(subscriber)
        return subscriber

    def dispatch(self, result: JobResult) -> None:
        for subscriber in self.subscribers:
            subscriber.emit(result)


class SimulationService:
    """Multi-tenant, coalescing front door to the experiment engine.

    Runs are in-process (:meth:`ExperimentEngine.run_async`), with no
    per-attempt deadline; ``jobs`` is accepted only as 1."""

    def __init__(self, cache_dir: Union[str, Path],
                 jobs: int = 1, coalesce_window: float = 0.05,
                 quotas: Optional[Dict[str, int]] = None,
                 max_retries: Optional[int] = None):
        if jobs != 1:
            raise ValueError(f"jobs={jobs!r}: the service runs its "
                             f"jobs in-process, so only jobs=1 works")
        self.store = ArtifactStore(cache_dir)
        self.coalesce_window = max(0.0, float(coalesce_window))
        self.quotas = dict(quotas or {})
        self.max_retries = max_retries
        self._engines: Dict[str, ExperimentEngine] = {}
        self._batches: Dict[str, _Batch] = {}
        self._run_locks: Dict[str, asyncio.Lock] = {}
        self._requests = 0
        self._coalesced = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = False

    # ------------------------------------------------------------------
    # Tenancy
    # ------------------------------------------------------------------
    def engine_for(self, tenant: str) -> ExperimentEngine:
        """The tenant's engine (created on first use), rooted in its
        store namespace so artifacts and manifests stay isolated."""
        engine = self._engines.get(tenant)
        if engine is None:
            namespace = self.store.namespace(
                tenant, quota_bytes=self.quotas.get(tenant))
            engine = ExperimentEngine(store=namespace, jobs=1,
                                      max_retries=self.max_retries,
                                      job_timeout=0)
            self._engines[tenant] = engine
        return engine

    # ------------------------------------------------------------------
    # Coalescing submission
    # ------------------------------------------------------------------
    async def submit(self, tenant: str, jobs: List[SimJob],
                     on_result: Optional[Callable[[JobResult],
                                                  None]] = None,
                     spans: Optional[List[dict]] = None
                     ) -> Dict[str, Any]:
        """Run ``jobs`` for ``tenant``, coalescing with concurrent
        submissions; streams terminal results through ``on_result`` and
        returns the run summary.  Raises :class:`ServiceRunError` when
        any of *this request's* jobs failed.

        A caller that journals its own request span passes ``spans``:
        the batch's ``service.batch`` record may then be appended to
        that list instead of being journaled, so that the caller writes
        both in one append (the first such subscriber of a batch gets
        it; without one the batch journals its span itself)."""
        self._requests += 1
        registry = get_registry()
        registry.count(_per_tenant("service/requests", tenant))
        batch = self._batches.get(tenant)
        if batch is None:
            batch = _Batch()
            self._batches[tenant] = batch
            asyncio.get_running_loop().create_task(
                self._flush_later(tenant, batch))
        else:
            self._coalesced += 1
            registry.count(_per_tenant("service/coalesced", tenant))
        subscriber = batch.add(jobs, on_result, spans)
        results, summary, error = await asyncio.shield(batch.done)
        summary = dict(summary,
                       jobs=len(subscriber.indices),
                       coalesced=len(batch.subscribers) > 1)
        failed = [results[i] for i in sorted(subscriber.wanted)
                  if results[i] is not None
                  and results[i].error is not None]
        if failed:
            details = "; ".join(
                f"{r.job.app}/{r.job.policy}: {r.error}"
                for r in failed[:5])
            raise ServiceRunError(
                f"{len(failed)} job(s) failed: {details}",
                summary=dict(summary, ok=False))
        if error is not None:
            missing = [i for i in subscriber.wanted
                       if results[i] is None]
            if missing:
                # The run died before this request's jobs produced
                # results (invalid tenant, engine-level failure).
                raise ServiceRunError(
                    f"run failed with {len(missing)} job(s) "
                    f"unfinished: {type(error).__name__}: {error}",
                    summary=dict(summary, ok=False))
            # The run failed outside this subscriber's jobs (another
            # request's job, or the engine itself); this request's own
            # results are still complete and valid.
            log.debug("batch error outside subscriber's jobs: %s", error)
        return summary

    async def _flush_later(self, tenant: str, batch: _Batch) -> None:
        registry = get_registry()
        if self.coalesce_window > 0:
            await asyncio.sleep(self.coalesce_window)
        # Close the window: later submissions start a fresh batch.
        if self._batches.get(tenant) is batch:
            del self._batches[tenant]
        registry.observe(
            _per_tenant("service/coalesce_delay_seconds", tenant),
            time.perf_counter() - batch.created,
            bounds=LATENCY_BUCKETS)
        error: Optional[BaseException] = None
        results: List[Optional[JobResult]] = [None] * len(batch.jobs)
        run_meta: Dict[str, Any] = {"run_id": None, "manifest": None}
        try:
            engine = self.engine_for(tenant)
            # One run at a time per tenant: engines are reused across
            # batches and record last_run_id/last_manifest/telemetry as
            # instance state, so an overlapping run_async would clobber
            # this batch's summary.
            async with self._run_locks.setdefault(tenant,
                                                  asyncio.Lock()):
                # Queue wait: window open -> tenant run lock acquired
                # (how long the batch sat behind earlier batches).
                registry.observe(
                    _per_tenant("service/queue_wait_seconds", tenant),
                    time.perf_counter() - batch.created,
                    bounds=LATENCY_BUCKETS)
                run_started = time.perf_counter()
                try:
                    run_results = await engine.run_async(
                        batch.jobs, on_result=batch.dispatch)
                    results = list(run_results)
                except ExperimentError as exc:
                    error = exc
                    # Partial results still reached subscribers via
                    # dispatch; recover the per-index view for
                    # submit()'s failure check.
                    for failure in exc.failures:
                        index = failure.get("index")
                        if index is not None:
                            results[index] = JobResult(
                                job=batch.jobs[index], value=None,
                                cached=False, seconds=0.0,
                                state=failure.get("state", "failed"),
                                index=index,
                                error=failure.get("error"))
                registry.observe(
                    _per_tenant("service/run_seconds", tenant),
                    time.perf_counter() - run_started,
                    bounds=LATENCY_BUCKETS)
                run_meta = {
                    "run_id": engine.last_run_id,
                    "manifest": (str(engine.last_manifest)
                                 if engine.last_manifest else None),
                }
        except asyncio.CancelledError as exc:
            error = exc
            raise
        except BaseException as exc:
            # Anything up to and including engine_for (an invalid
            # tenant name, a full disk): the batch must still resolve
            # or every subscriber would hang forever.
            error = exc
        finally:
            self._journal_batch_span(batch, tenant, run_meta, error)
            summary = dict(run_meta, ok=error is None, tenant=tenant,
                           batch_jobs=len(batch.jobs),
                           requests=len(batch.subscribers))
            if error is not None:
                summary["error"] = f"{type(error).__name__}: {error}"
            if not batch.done.done():
                batch.done.set_result((results, summary, error))

    def _journal_batch_span(self, batch: _Batch, tenant: str,
                            run_meta: Dict[str, Any],
                            error: Optional[BaseException]) -> None:
        """One span covering the batch's whole life (window open → run
        finished), journaled into its run's ``events.jsonl`` next to
        the engine's spans — this is the coalescing layer's node in the
        exported trace.  It goes to the first subscriber that journals
        its request span (see :meth:`submit`), or is appended here."""
        if not get_registry().enabled or not run_meta.get("manifest"):
            return
        carried = next((job.trace_context for job in batch.jobs
                        if job.trace_context is not None), None)
        if carried is None:
            return
        ctx = TraceContext(carried.trace_id, new_span_id(),
                           carried.parent_id)
        record = span_record(
            "service.batch", ctx, batch.created_epoch,
            time.perf_counter() - batch.created,
            args={"tenant": tenant, "jobs": len(batch.jobs),
                  "requests": len(batch.subscribers),
                  "run_id": run_meta.get("run_id")},
            error=error is not None)
        for subscriber in batch.subscribers:
            if subscriber.spans is not None:
                subscriber.spans.append(record)
                return
        try:
            append_spans(run_meta["manifest"], [record],
                         self.store.namespace(tenant).append)
        except OSError:  # pragma: no cover - disk-full etc.
            log.debug("could not journal batch span", exc_info=True)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The service's status document: per-tenant namespace stats,
        recent run manifests, and live telemetry counters."""
        runs = []
        for tenant, engine in sorted(self._engines.items()):
            if engine.manifest_dir is None:
                continue
            for run_dir in run_history(engine.manifest_dir)[-5:]:
                try:
                    summary = read_run_manifest(run_dir).summary
                except (OSError, ValueError):
                    continue
                runs.append({"tenant": tenant,
                             "run_id": summary.get("run_id",
                                                   run_dir.name),
                             "status": summary.get("status"),
                             "jobs": summary.get("jobs"),
                             "wall_seconds": summary.get("wall_seconds")})
        registry = get_registry()
        return {
            "tenants": self.store.namespaces_summary(),
            "requests": self._requests,
            "coalesced_requests": self._coalesced,
            "runs": runs,
            "telemetry": (registry.snapshot() if registry.enabled
                          else {}),
        }

    def metrics_text(self) -> str:
        """The service's live metrics as one Prometheus text-exposition
        document (the ``metrics`` op's payload — point a scraper, or
        ``python -m repro.tools.top``, at it).

        Gauges that are snapshots of current state (per-tenant store
        usage and quota, open batches) are refreshed here; counters and
        the per-tenant SLO histograms accumulate where the work happens.
        """
        registry = get_registry()
        if registry.enabled:
            registry.gauge("service/tenants", len(self._engines))
            registry.gauge("service/open_batches", len(self._batches))
            for tenant, summary in \
                    self.store.namespaces_summary().items():
                registry.gauge(
                    _per_tenant("store/usage_bytes", tenant),
                    summary.get("usage_bytes") or 0)
                quota = summary.get("quota_bytes")
                if quota is not None:
                    registry.gauge(
                        _per_tenant("store/quota_bytes", tenant), quota)
        return to_prometheus_text(registry.snapshot())

    # ------------------------------------------------------------------
    # Wire front door
    # ------------------------------------------------------------------
    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """One client connection: requests in, event lines out.

        Requests on a connection run concurrently (that is what makes
        single-connection coalescing possible); a write lock keeps event
        lines whole."""
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []

        async def send(obj: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode_line(obj))
                await writer.drain()

        try:
            while True:
                try:
                    line = await _read_line(reader)
                    if not line:
                        break
                    if not line.strip():
                        continue
                    request = decode_line(line)
                except ProtocolError as exc:
                    await send({"id": None, "event": "error",
                                "error": str(exc)})
                    continue
                task = asyncio.ensure_future(
                    self._handle_request(request, send))
                tasks.append(task)
                if request.get("op") == "shutdown":
                    break
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            # Loop shutdown while this connection idled reading a line;
            # end the task quietly instead of surfacing the cancel
            # through the stream protocol's done-callback.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_request(self, request: Dict[str, Any],
                              send) -> None:
        request_id = request.get("id")
        op = request.get("op")
        arrival = time.perf_counter()
        arrival_epoch = time.time()
        try:
            if op == "status":
                await send(dict(self.status(), id=request_id,
                                event="status"))
                return
            if op == "metrics":
                await send({"id": request_id, "event": "metrics",
                            "content_type":
                                "text/plain; version=0.0.4",
                            "text": self.metrics_text()})
                return
            if op == "shutdown":
                await send({"id": request_id, "event": "bye"})
                self._shutdown = True
                if self._server is not None:
                    self._server.close()
                return
            jobs = jobs_from_request(request)
            tenant = str(request.get("tenant") or DEFAULT_TENANT)
            try:
                validate_namespace(tenant)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from None
            req_ctx: Optional[TraceContext] = None
            if get_registry().enabled:
                # The request's node in the trace: a child of whatever
                # context the client sent (its root span), stamped onto
                # every job so worker-side spans link back to the
                # client across the pool boundary.
                req_ctx = child_context(
                    TraceContext.from_dict(request.get("trace")))
                jobs = [replace(job,
                                trace_context=req_ctx.child_context())
                        for job in jobs]
            await send({"id": request_id, "event": "accepted",
                        "jobs": len(jobs), "tenant": tenant})

            queue: asyncio.Queue = asyncio.Queue()

            async def pump() -> None:
                while True:
                    result = await queue.get()
                    if result is None:
                        return
                    await send({"id": request_id, "event": "result",
                                "index": result.index,
                                "row": job_row(result)})

            pump_task = asyncio.ensure_future(pump())
            # The batch span, if this request journals it (one append
            # with the request span below).
            spans: Optional[List[dict]] = (
                [] if req_ctx is not None else None)
            try:
                summary = await self.submit(tenant, jobs,
                                            on_result=queue.put_nowait,
                                            spans=spans)
                done = dict(summary, id=request_id, event="done")
            except ServiceRunError as exc:
                done = dict(exc.summary, id=request_id, event="done",
                            error=str(exc))
            finally:
                queue.put_nowait(None)
                await pump_task
            elapsed = time.perf_counter() - arrival
            get_registry().observe(
                _per_tenant("service/request_seconds", tenant),
                elapsed, bounds=LATENCY_BUCKETS)
            if req_ctx is not None and done.get("manifest"):
                # The request span closes the loop: journaled into the
                # run it landed in, it is the parent every batch / run /
                # job span of this request links up to.
                try:
                    append_spans(done["manifest"], spans + [
                        span_record(
                            "service.request", req_ctx, arrival_epoch,
                            elapsed,
                            args={"tenant": tenant, "op": op,
                                  "jobs": len(jobs),
                                  "ok": bool(done.get("ok"))},
                            error=not done.get("ok"))],
                        self.store.namespace(tenant).append)
                except OSError:  # pragma: no cover - disk-full etc.
                    log.debug("could not journal request span",
                              exc_info=True)
            await send(done)
        except ProtocolError as exc:
            await send({"id": request_id, "event": "error",
                        "error": str(exc)})
        except (KeyboardInterrupt, SystemExit, asyncio.CancelledError):
            raise
        except BaseException as exc:  # defensive: keep the server up
            log.exception("request %r failed", request_id)
            await send({"id": request_id, "event": "error",
                        "error": f"{type(exc).__name__}: {exc}"})

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
        """Bind and return the server (``port=0`` picks a free port —
        read it back from ``server.sockets[0]``)."""
        self._server = await asyncio.start_server(self.handle_connection,
                                                  host, port,
                                                  limit=MAX_FRAME_BYTES)
        return self._server

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            if not self._shutdown:
                raise


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """The next request line (empty at EOF).

    A line longer than the reader's limit (:data:`MAX_FRAME_BYTES` on
    the service's connections) is read through its newline and dropped,
    then reported as :class:`FrameTooLargeError`, so the connection goes
    on with the next line."""
    overrun = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            overrun = True
            await reader.readexactly(exc.consumed)
            continue
        if overrun:
            raise FrameTooLargeError(
                f"request line exceeds {MAX_FRAME_BYTES} bytes")
        return line


async def serve(cache_dir: Union[str, Path], host: str = "127.0.0.1",
                port: int = 0, **kwargs) -> None:
    """Convenience runner: build a service, bind, announce, serve."""
    service = SimulationService(cache_dir, **kwargs)
    server = await service.start(host, port)
    bound = server.sockets[0].getsockname()
    print(f"repro service listening on {bound[0]}:{bound[1]}",
          flush=True)
    await service.serve_forever()
