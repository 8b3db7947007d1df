"""Worker entry points: run one job, or a batch, with store + harness.

These functions are module-level so ``ProcessPoolExecutor`` can pickle
them by reference; they are also the *only* layer that touches the
fault-injection hooks (:mod:`repro.testing.faults`) — faults fire on
the real execution path, in whichever process runs the job.
"""

from __future__ import annotations

import copy
import logging
import time
from typing import Dict, List, Optional, Sequence

from repro.harness.engine.jobs import (JobResult, JobState,
                                       JobTimeoutError, SimJob,
                                       _stats_delta, execute_job,
                                       job_deadline)
from repro.harness.reporting import CacheStats
from repro.harness.engine.store import (ArtifactStore,
                                        QuotaExceededError,
                                        STORE_VERSION)
from repro.harness.runner import Harness, HarnessConfig
from repro.runtime import RuntimeConfig, current, override
from repro.telemetry.metrics import (count_gc_collections, gc_collections,
                                     get_registry, snapshot_delta)
from repro.telemetry.profile_hooks import worker_profile
from repro.telemetry.tracing import collect_spans, span
from repro.testing.faults import corrupt_file, inject

log = logging.getLogger(__name__)

__all__ = ["run_job", "run_job_batch"]


def run_job(job: SimJob, store: Optional[ArtifactStore] = None,
            harness: Optional[Harness] = None, *,
            index: Optional[int] = None, attempt: int = 0,
            in_worker: bool = False) -> JobResult:
    """Run one job (each executor's attempts go through it).

    Checks the store for the finished result first; on a miss, computes it
    through a harness whose intermediate artifacts (trace, profile, hints)
    are themselves store-backed.

    ``index``/``attempt`` identify this attempt within an engine run; when
    a :mod:`fault plan <repro.testing.faults>` is active they select which
    injected fault (if any) fires on this exact attempt, on the real
    execution path.
    """
    registry = get_registry()
    fault = None
    plan = current().fault_plan
    if index is not None and plan is not None:
        fault = plan.fault_for(index, attempt)
    # ``corrupt`` applies after the compute (below).
    if fault is not None and fault.kind != "corrupt":
        registry.count("faults/injected")
        inject(fault, in_worker=in_worker)
    baseline = copy.deepcopy(store.stats) if store is not None else None
    telemetry_before = registry.snapshot() if registry.enabled else None
    # A worker process's collections reach the run only through this
    # job's delta; in the engine's own process the run counts them once.
    gc_before = (gc_collections()
                 if in_worker and telemetry_before is not None else None)
    start = time.perf_counter()
    cached = False
    # The job span's identity is the context pickled into the job, so a
    # process-pool worker's span links straight back to the request (or
    # engine run) that caused it.
    with span("engine.job", context=job.trace_context, app=job.app,
              policy=job.policy, mode=job.mode, index=index,
              attempt=attempt) as jspan:
        if store is not None:
            key = job.cache_key(salt=store.salt)
            if store.tenant is not None:
                jspan.set(tenant=store.tenant)
            jspan.set(key=key)
            with span("store.get", kind=job.mode) as gspan:
                value = store.get(job.mode, key)
                gspan.set(hit=value is not None)
            cached = value is not None
            jspan.set(cached=cached)
            if value is None:
                with store.stats.stage(job.mode):
                    value = execute_job(job, harness=harness, store=store)
                try:
                    with span("store.put", kind=job.mode):
                        store.put(job.mode, key, value)
                except QuotaExceededError as exc:
                    # The store is a cache: an over-quota namespace keeps
                    # working, the successfully computed value is simply
                    # returned uncached (retrying could never succeed).
                    log.warning("result of %s/%s not cached: %s",
                                job.app, job.policy, exc)
            if fault is not None and fault.kind == "corrupt":
                registry.count("faults/injected")
                if corrupt_file(store.path(job.mode, key)):
                    log.warning("injected corruption into stored %s "
                                "artifact of job %d", job.mode, index)
        else:
            value = execute_job(job, harness=harness)
            jspan.set(cached=False)
    elapsed = time.perf_counter() - start
    stats = (_stats_delta(store.stats, baseline)
             if store is not None else CacheStats())
    if gc_before is not None:
        count_gc_collections(registry, gc_before)
    telemetry = (snapshot_delta(registry.snapshot(), telemetry_before)
                 if telemetry_before is not None else {})
    return JobResult(job=job, value=value, cached=cached,
                     seconds=elapsed, stats=stats, telemetry=telemetry,
                     attempt=attempt, index=index)


def _execute_guarded(job: SimJob, *, index: Optional[int], attempt: int,
                     store: Optional[ArtifactStore] = None,
                     harness: Optional[Harness] = None,
                     job_timeout: Optional[float] = None,
                     in_worker: bool = False) -> JobResult:
    """One attempt that *always* returns a :class:`JobResult`.

    Timeouts and exceptions are folded into the result's ``state`` /
    ``error`` instead of escaping, so a bad job can never take down its
    batch (the engine, not the worker, decides about retries).
    """
    start = time.perf_counter()
    # The guard owns the span-collection scope so a failed or timed-out
    # attempt still ships whatever spans it finished — the job span's
    # ``error`` flag is how the trace shows *where* the attempt died.
    with collect_spans() as spans:
        try:
            with job_deadline(job_timeout):
                result = run_job(job, store=store, harness=harness,
                                 index=index, attempt=attempt,
                                 in_worker=in_worker)
        except JobTimeoutError as exc:
            result = JobResult(job=job, value=None, cached=False,
                               seconds=time.perf_counter() - start,
                               state=JobState.TIMED_OUT, attempt=attempt,
                               index=index, error=str(exc))
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            result = JobResult(job=job, value=None, cached=False,
                               seconds=time.perf_counter() - start,
                               state=JobState.FAILED, attempt=attempt,
                               index=index,
                               error=f"{type(exc).__name__}: {exc}")
    result.span_records = spans
    return result


def run_job_batch(jobs: Sequence[SimJob], cache_root: Optional[str] = None,
                  salt: str = STORE_VERSION,
                  indices: Optional[Sequence[int]] = None,
                  attempts: Optional[Sequence[int]] = None,
                  job_timeout: Optional[float] = None,
                  runtime: Optional[RuntimeConfig] = None
                  ) -> List[JobResult]:
    """Worker entry point for a *group* of jobs (module-level so process
    pools can pickle it).

    The engine groups parallel jobs by (app, input, machine config) so one
    worker runs a whole group through one :class:`Harness` — the trace,
    its shared :class:`~repro.trace.stream.AccessStream`, the OPT profile,
    and the hint maps are built once and replayed across every policy in
    the group instead of once per job.  Each job is individually guarded:
    a failed or timed-out job yields a failed :class:`JobResult` and the
    rest of the batch still runs.

    ``runtime`` is the engine's :class:`~repro.runtime.RuntimeConfig`
    for the run; the batch runs under it (see
    :func:`repro.runtime.override`), so a worker uses the parent's
    switches and fault plan whatever its start method.  Its ``profile``
    switch wraps the batch in a deep profiler (see
    :mod:`repro.telemetry.profile_hooks`).
    """
    if runtime is not None:
        with override(runtime):
            return run_job_batch(jobs, cache_root, salt, indices, attempts,
                                 job_timeout)
    store = (ArtifactStore(cache_root, salt=salt)
             if cache_root is not None else None)
    index_list = (list(indices) if indices is not None
                  else [None] * len(jobs))
    attempt_list = (list(attempts) if attempts is not None
                    else [0] * len(jobs))
    harnesses: Dict[HarnessConfig, Harness] = {}
    results: List[JobResult] = []
    with worker_profile(cache_root):
        for job, index, attempt in zip(jobs, index_list, attempt_list):
            config = job.harness_config()
            harness = harnesses.get(config)
            if harness is None:
                harness = Harness(config, store=store)
                harnesses[config] = harness
            results.append(_execute_guarded(
                job, index=index, attempt=attempt, store=store,
                harness=harness, job_timeout=job_timeout,
                in_worker=True))
    # The profile hook records its gauges after every per-job delta was
    # taken; piggy-back them on the last result so they reach the parent.
    registry = get_registry()
    if results and registry.enabled and registry.gauges:
        profile_gauges = {name: value
                          for name, value in registry.gauges.items()
                          if name.startswith("profile/")}
        if profile_gauges:
            results[-1].telemetry.setdefault("gauges", {}).update(
                profile_gauges)
    return results
