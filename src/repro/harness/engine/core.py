"""The :class:`ExperimentEngine` façade: open a run, pick an executor,
write the manifest.

The engine owns run-scoped policy (store location, worker count, retry
budget, manifest directory) and run lifecycle (run ids, journals,
resume, failure reporting); everything else is delegated — execution
to an :class:`~repro.harness.engine.executor.Executor`, per-run state to
:class:`~repro.harness.engine.context.RunContext`.  Library users who
need finer control can compose those pieces directly; the façade keeps
the one-call ``engine.run(jobs)`` surface everything else in the repo
(runner, reproduce, simulate, chaos, benchmarks, the service) builds on.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import logging
import random
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro import runtime
from repro.harness.engine.context import RunContext
from repro.harness.engine.executor import (Executor, ProcessPoolJobExecutor,
                                           SerialExecutor)
from repro.harness.engine.jobs import JobResult, JobState, SimJob
from repro.harness.engine.store import (ArtifactStore, STORE_VERSION,
                                        fold_cache)
from repro.telemetry.metrics import (count_gc_collections, gc_collections,
                                     get_registry, snapshot_delta)
from repro.telemetry.tracing import (TraceContext, child_context,
                                     new_span_id, span_record)

log = logging.getLogger(__name__)

__all__ = ["ExperimentEngine", "ExperimentError"]


class ExperimentError(RuntimeError):
    """A sweep finished with jobs that never succeeded.

    Raised *after* the run manifest (``status: failed``) is written;
    ``run_id`` names the run to pass back as ``run(jobs, resume=...)``.
    """

    def __init__(self, message: str, run_id: Optional[str] = None,
                 failures: Sequence[dict] = ()):
        super().__init__(message)
        self.run_id = run_id
        self.failures = list(failures)


class ExperimentEngine:
    """Fan :class:`SimJob` batches out over processes, backed by one
    shared :class:`ArtifactStore`.

    ``jobs == 1`` (or a single-job batch) runs serially in-process —
    bit-identical to driving a :class:`Harness` by hand — and reuses one
    harness per distinct machine configuration so in-memory caches
    amortize exactly as before.

    ``max_retries`` / ``job_timeout`` bound each job's attempts and
    per-attempt wall clock; a worker death re-shards its batch instead of
    failing the sweep; ``run(jobs, resume=run_id)`` continues an
    interrupted run, skipping jobs whose artifacts verify in the store
    (see ``docs/FAULTS.md``).  ``jobs``, ``max_retries`` and
    ``job_timeout`` left as None come from the runtime config
    (:mod:`repro.runtime`); ``backoff_base`` defaults to 0.25 s, or 0
    under its ``test_fast`` switch.

    Every :meth:`run` against a cache directory also writes a **run
    manifest** under ``<cache_dir>/runs/<run id>`` (``manifest.jsonl``,
    ``summary.json``, the ``events.jsonl``/``jobs.json`` journal; a run
    of store hits only is one line of ``runs/hits.jsonl`` instead) —
    per-job timings, cache provenance, merged telemetry, status, and
    any exception (see :mod:`repro.telemetry.manifest` and
    ``docs/TELEMETRY.md``).  Disable with ``write_manifest=False`` or
    point it elsewhere with ``manifest_dir``.

    Library composition points (see ``docs/ENGINE.md``): ``store=``
    accepts a pre-built :class:`ArtifactStore` — in particular a tenant
    namespace from :meth:`ArtifactStore.namespace`, which scopes the
    run's artifacts *and* its manifests under that tenant's root;
    ``on_result=`` streams terminal :class:`JobResult`\\ s as they land;
    and :meth:`run_async` is the same run as a coroutine, its misses on
    one event-loop worker thread.
    """

    def __init__(self, cache_dir: Union[str, Path, None] = None,
                 jobs: Optional[int] = None, salt: str = STORE_VERSION,
                 manifest_dir: Union[str, Path, None] = None,
                 write_manifest: bool = True,
                 max_retries: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 backoff_base: Optional[float] = None,
                 backoff_cap: float = 8.0,
                 store: Optional[ArtifactStore] = None):
        config = runtime.current()
        self.jobs = config.jobs if jobs is None else max(1, int(jobs))
        if store is not None:
            # A pre-built store (e.g. a tenant namespace) brings its own
            # root and salt; manifests default under that root too, so a
            # namespaced engine keeps everything inside its tenant.
            self.store: Optional[ArtifactStore] = store
            self.salt = store.salt
            self.cache_dir: Optional[Path] = store.root
        else:
            self.salt = salt
            self.cache_dir = (Path(cache_dir).expanduser()
                              if cache_dir else None)
            self.store = (ArtifactStore(self.cache_dir, salt=self.salt)
                          if self.cache_dir else None)
        self.max_retries = (config.max_retries if max_retries is None
                            else max(0, int(max_retries)))
        if job_timeout is None:
            self.job_timeout = config.job_timeout
        else:
            self.job_timeout = (float(job_timeout)
                                if float(job_timeout) > 0 else None)
        if backoff_base is None:
            backoff_base = 0.0 if config.test_fast else 0.25
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        if manifest_dir is not None:
            self.manifest_dir: Optional[Path] = \
                Path(manifest_dir).expanduser()
        elif self.cache_dir is not None:
            self.manifest_dir = self.cache_dir / "runs"
        else:
            self.manifest_dir = None
        if not write_manifest:
            self.manifest_dir = None
        #: The most recent run's manifest directory, or for a run that
        #: computed nothing its run-log address as a ``str`` (see
        #: :func:`~repro.telemetry.manifest.log_run`); None until a run
        #: completes with manifests enabled.
        self.last_manifest: Union[Path, str, None] = None
        #: The most recent run's id (set at run start, so it is available
        #: even when the run fails — it is what ``resume=`` takes).
        self.last_run_id: Optional[str] = None
        #: The most recent run's merged telemetry snapshot ({} when
        #: telemetry is disabled).
        self.last_run_telemetry: Dict[str, Any] = {}
        #: The executor of the current (or most recent) run; None until
        #: one is chosen.
        self._ran_on: Optional[Executor] = None

    # ------------------------------------------------------------------
    # Run lifecycle (shared by run / run_async)
    # ------------------------------------------------------------------
    def _begin_run(self, jobs: Sequence[SimJob], resume: Optional[str],
                   on_result: Optional[Callable[[JobResult], None]]
                   ) -> RunContext:
        from repro.telemetry.manifest import RunJournal, new_run_id
        jobs = list(jobs)
        registry = get_registry()
        run_id = new_run_id()
        self.last_run_id = run_id
        resumed_from = (self._resolve_resume(resume)
                        if resume is not None else None)
        run_trace = None
        if registry.enabled:
            # The run's root span: when the caller (the service) already
            # stamped contexts onto the jobs, join that trace as a
            # sibling of those job spans; otherwise open a child of the
            # ambient context (or a fresh root) and stamp each job with
            # its own child — either way the whole tree stays linked
            # across the process-pool boundary.
            carried = next((job.trace_context for job in jobs
                            if job.trace_context is not None), None)
            if carried is not None:
                run_trace = TraceContext(carried.trace_id, new_span_id(),
                                         carried.parent_id)
            else:
                run_trace = child_context()
            jobs = [job if job.trace_context is not None
                    else replace(job,
                                 trace_context=run_trace.child_context())
                    for job in jobs]
        return RunContext(jobs=jobs, run_id=run_id,
                          max_retries=self.max_retries,
                          rng=random.Random(run_id),
                          resumed_from=resumed_from, on_result=on_result,
                          trace=run_trace,
                          parent_before=(registry.snapshot()
                                         if registry.enabled else None),
                          gc_before=(gc_collections()
                                     if registry.enabled else None))

    def _prepare(self, ctx: RunContext) -> List[int]:
        """Serve store hits; journal and return what is left to run."""
        from repro.telemetry.manifest import RunJournal
        if self.store is not None:
            self._probe(ctx)
        pending = ctx.pending()
        if not pending or self.manifest_dir is None:
            return pending
        # Opened before the first compute: a killed run leaves it for
        # forensics and resume.  The store first notes the empty dir.
        run_dir = self.manifest_dir / ctx.run_id
        if self.store is not None:
            self.store.note_dir(run_dir)
        try:
            ctx.attach_journal(RunJournal(
                run_dir,
                jobs_index=[{"index": i, "app": job.app,
                             "policy": job.policy, "mode": job.mode,
                             "input_id": job.input_id,
                             "key": job.cache_key(self.salt)}
                            for i, job in enumerate(ctx.jobs)]))
        except OSError as exc:  # pragma: no cover - disk-full etc.
            log.warning("could not open run journal under %s: %s",
                        self.manifest_dir, exc)
        return pending

    def _probe(self, ctx: RunContext) -> None:
        """Read every job's result once before dispatch; record each hit
        as terminal (``skipped`` when resuming, else ``succeeded``), so
        only misses reach the executor.  A corrupt artifact is left to
        the job's attempt, whose own read quarantines it."""
        from repro.telemetry.manifest import read_jobs_index
        if ctx.resumed_from is not None:
            previous = {row.get("key") for row in
                        read_jobs_index(self.manifest_dir
                                        / ctx.resumed_from)}
            current = {job.cache_key(self.salt) for job in ctx.jobs}
            if previous and previous != current:
                log.warning(
                    "resume %s: job list differs from the original run "
                    "(%d shared of %d current); unmatched jobs run fresh",
                    ctx.resumed_from, len(previous & current),
                    len(current))
        state = (JobState.SKIPPED if ctx.resumed_from is not None
                 else JobState.SUCCEEDED)
        registry = get_registry()
        for i, job in enumerate(ctx.jobs):
            key = job.cache_key(self.salt)
            start_epoch, start = time.time(), time.perf_counter()
            value = self.store.get(job.mode, key, probe=True)
            if value is None:
                continue
            result = JobResult(
                job=job, value=value, cached=True, state=state, index=i,
                seconds=time.perf_counter() - start)
            if registry.enabled and job.trace_context is not None:
                # The hit's job span, as an attempt would have opened it.
                registry.add_span("engine.job", result.seconds)
                result.span_records.append(span_record(
                    "engine.job", job.trace_context, start_epoch,
                    result.seconds, args={
                        "app": job.app, "policy": job.policy,
                        "mode": job.mode, "index": i, "attempt": 0,
                        "key": key, "cached": True}))
            ctx.record_hit(i, result)
        if ctx.resumed_from is not None:
            log.info("resume %s: %d of %d job(s) verified in the store "
                     "and skipped", ctx.resumed_from,
                     len(ctx.jobs) - len(ctx.pending()), len(ctx.jobs))

    def _finish_run(self, ctx: RunContext) -> List[JobResult]:
        """Apply a closed run's failure policy; returns its results."""
        failed = ctx.failed()
        if failed:
            jobs = ctx.jobs
            details = "; ".join(
                f"{jobs[i].app}/{jobs[i].policy}[{i}]: "
                f"{ctx.results[i].error}" for i in failed[:5])
            if len(failed) > 5:
                details += f"; ... {len(failed) - 5} more"
            raise ExperimentError(
                f"{len(failed)} of {len(jobs)} job(s) did not complete "
                f"after {1 + self.max_retries} attempt(s): {details} "
                f"(continue with resume={ctx.run_id!r})",
                run_id=ctx.run_id,
                failures=[{"index": i, "app": jobs[i].app,
                           "policy": jobs[i].policy,
                           "state": ctx.states[i],
                           "error": ctx.results[i].error}
                          for i in failed])
        return ctx.results  # type: ignore[return-value]

    @contextlib.contextmanager
    def _running(self, ctx: RunContext):
        """Close the run's root span and journal and write the manifest
        however the body ends; an exception (a cancel included) is the
        run's failure, and is re-raised."""
        failure: Optional[dict] = None
        self._ran_on = None
        try:
            yield
        except BaseException as exc:
            failure = {"where": type(self).__name__,
                       "error": f"{type(exc).__name__}: {exc}"}
            raise
        finally:
            run_span = None
            if ctx.trace is not None:
                run_span = span_record(
                    "engine.run", ctx.trace, ctx.started_epoch,
                    ctx.wall_seconds(),
                    args={"run_id": ctx.run_id, "jobs": len(ctx.jobs)},
                    error=failure is not None)
                if ctx.journal is not None:
                    ctx.journal.write_span(run_span)
            ctx.close_journal()
            self._write_manifest(ctx, failure, run_span)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[SimJob], resume: Optional[str] = None,
            on_result: Optional[Callable[[JobResult], None]] = None
            ) -> List[JobResult]:
        """Run every job, returning results in input order.

        ``resume`` continues an earlier run (a run id under the manifest
        directory, or ``"latest"``): jobs whose artifacts verify in the
        store are marked ``skipped`` and served from disk; everything
        else runs normally.  ``on_result`` receives every terminal
        :class:`JobResult` as it is recorded.  If any job still has not
        succeeded after ``1 + max_retries`` attempts, the run manifest
        is written with ``status: failed`` and :class:`ExperimentError`
        is raised — the completed jobs' artifacts stay in the store, so
        a resumed run only repeats the unfinished work.
        """
        ctx = self._begin_run(jobs, resume, on_result)
        with self._running(ctx):
            pending = self._prepare(ctx)
            self._ran_on = (ProcessPoolJobExecutor(self)
                            if self.jobs > 1 and len(pending) > 1
                            else SerialExecutor(self))
            self._ran_on.execute(ctx, pending)
        return self._finish_run(ctx)

    async def run_async(self, jobs: Sequence[SimJob],
                        resume: Optional[str] = None,
                        on_result: Optional[Callable[[JobResult],
                                                     None]] = None
                        ) -> List[JobResult]:
        """:meth:`run` as a coroutine: hits are served on the event loop,
        misses run serially on one event-loop thread (whatever ``jobs``
        says), and ``on_result`` is called on the loop in record order.
        A cancel waits for the attempt in flight and starts no other, so
        no result reaches ``on_result`` after the CancelledError."""
        ctx = self._begin_run(jobs, resume, on_result)
        with self._running(ctx):
            pending = self._prepare(ctx)
            self._ran_on = SerialExecutor(self)
            if pending:
                loop = asyncio.get_running_loop()
                if on_result is not None:
                    ctx.on_result = functools.partial(
                        loop.call_soon_threadsafe, on_result)
                work = loop.run_in_executor(None, self._ran_on.execute,
                                            ctx, pending)
                try:
                    await asyncio.shield(work)
                except asyncio.CancelledError:
                    ctx.stop.set()
                    # The thread's results reach the loop before its
                    # completion does.
                    while not work.done():
                        with contextlib.suppress(asyncio.CancelledError):
                            await asyncio.wait([work])
                    raise
        return self._finish_run(ctx)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _resolve_resume(self, resume: str) -> str:
        """Validate a resume target and return its run id."""
        from repro.telemetry.manifest import run_history
        if self.store is None or self.manifest_dir is None:
            raise ValueError("resume requires a cache directory: the "
                             "store is what verifies completed jobs")
        history = run_history(self.manifest_dir)
        if resume == "latest":
            if not history:
                raise ValueError(f"no previous run to resume under "
                                 f"{self.manifest_dir}")
            return history[-1].name
        if self.manifest_dir / resume not in history:
            raise ValueError(f"no run {resume!r} under "
                             f"{self.manifest_dir}")
        return resume

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def last_run_cache(self) -> Dict[str, int]:
        """The most recent run's ``cache`` block: its telemetry's store
        counters under this engine's store label ({} when telemetry is
        disabled)."""
        return fold_cache(self.last_run_telemetry.get("counters"),
                          self.store.tenant if self.store else None)

    def _status(self, ctx: RunContext, failure: Optional[dict]) -> str:
        if failure is not None:
            return "failed"
        if any(s not in (JobState.SUCCEEDED, JobState.SKIPPED)
               for s in ctx.states):
            return "failed"
        return "resumed" if ctx.resumed_from is not None else "completed"

    def _runtime_block(self, ctx: RunContext) -> Dict[str, Any]:
        """The run's switches for ``summary.json``, plus the ``executor``
        that ran it (absent when the run failed before one was chosen,
        and in runs that predate the key).  ``jobs`` is this engine's
        worker count, which a ``--jobs`` flag or the ``jobs=`` argument
        may have set apart from the ``REPRO_JOBS`` switch.
        ``gc_collections`` sums the run's cyclic-GC collections per
        generation over this process and its workers (absent when
        telemetry is off).  ``peak_rss_mb`` is this process's peak
        resident set so far (``ru_maxrss``; workers not included)."""
        block = ctx.runtime.to_dict()
        block["jobs"] = self.jobs
        name = getattr(self._ran_on, "name", "")
        if name:
            block["executor"] = name
        if ctx.gc_before is not None:
            counters = (self.last_run_telemetry or {}).get("counters", {})
            block["gc_collections"] = {
                f"gen{g}": int(counters.get(f"gc/collections/gen{g}", 0))
                for g in range(len(ctx.gc_before))}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # KiB on Linux, bytes on macOS; MB here are MiB, as in
        # perfbench's peak_rss_mb.
        unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
        block["peak_rss_mb"] = round(peak / unit, 1)
        return block

    def _write_manifest(self, ctx: RunContext, failure: Optional[dict],
                        run_span: Optional[dict]) -> None:
        """One run-log line if no attempt ran, else the run directory."""
        from repro.telemetry.manifest import log_run, write_run_manifest
        from repro.telemetry.metrics import merge_snapshots
        registry = get_registry()
        wall = ctx.wall_seconds()
        results = [r for r in ctx.results if r is not None]
        if ctx.gc_before is not None:
            # This process's share; workers counted theirs per job.
            count_gc_collections(registry, ctx.gc_before)
        parent_delta = (snapshot_delta(registry.snapshot(),
                                       ctx.parent_before)
                        if ctx.parent_before is not None else {})
        # Serial runs record attempts directly into the parent registry;
        # the parent delta already contains them, so merge attempt deltas
        # only for worker processes (whose registries died with them;
        # see Executor.uses_workers).
        used_workers = bool(getattr(self._ran_on, "uses_workers", False))
        if used_workers:
            self.last_run_telemetry = merge_snapshots(
                ctx.attempt_telemetry + [parent_delta])
        else:
            self.last_run_telemetry = parent_delta
        if used_workers and self.store is not None:
            # Workers wrote through their own store objects, unseen by
            # this store's usage counter: re-seed it at the next read.
            self.store.drop_usage()
        if self.manifest_dir is None:
            return
        exceptions = [failure] if failure else []
        for result in results:
            if result.state in (JobState.FAILED, JobState.TIMED_OUT):
                exceptions.append(
                    {"where": (f"job {result.index} "
                               f"({result.job.app}/{result.job.policy})"),
                     "error": result.error or result.state})
        logged = (self.store is not None and failure is None
                  and not any(ctx.attempts))
        run_dir = None if logged else self.manifest_dir / ctx.run_id
        namespaces = None
        if self.store is not None:
            if not logged:
                # Account the journal before the usage is summarized.
                self.store.note_dir(run_dir)
            summaries = self.store.namespaces_summary()
            if summaries:
                namespaces = list(summaries.values())
        summary = dict(wall_seconds=wall,
                       workers=min(self.jobs, max(1, len(results))),
                       run_id=ctx.run_id,
                       cache=self.last_run_cache(),
                       telemetry=self.last_run_telemetry,
                       exceptions=exceptions,
                       status=self._status(ctx, failure),
                       resumed_from=ctx.resumed_from,
                       job_states=ctx.job_states(), namespaces=namespaces,
                       runtime=self._runtime_block(ctx))
        try:
            if logged:
                spans = [record for result in results
                         for record in result.span_records] + [run_span]
                self.last_manifest = log_run(
                    self.manifest_dir, results,
                    [job.cache_key(self.salt) for job in ctx.jobs],
                    append=self.store.append,
                    spans=[s for s in spans if s is not None],
                    trace_id=ctx.trace.trace_id if ctx.trace else None,
                    **summary)
            else:
                self.last_manifest = write_run_manifest(
                    self.manifest_dir, results, **summary)
            log.info("run manifest: %s", self.last_manifest)
        except OSError as exc:  # pragma: no cover - disk-full etc.
            log.warning("could not write run manifest under %s: %s",
                        self.manifest_dir, exc)
        if self.store is not None and not logged:
            self.store.note_dir(run_dir)
