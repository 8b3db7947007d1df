"""Execution strategies: how a job list actually runs.

Every executor drives the same :class:`~repro.harness.engine.context.
RunContext` state machine — ``start_attempt`` → guarded execution →
``record_outcome`` → retry rounds with jittered backoff — so retry,
journal, and telemetry semantics are identical regardless of *where*
attempts run:

* :class:`SerialExecutor` — in the calling thread (``run_async``: one
  event-loop thread), one harness per machine config (bit-identical to
  driving a :class:`Harness` by hand).
* :class:`ProcessPoolJobExecutor` — batches over a process pool with
  worker-death re-sharding; each worker builds its batch's trace and
  access stream from the store.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, List, Sequence

from repro.harness.engine.context import RunContext
from repro.harness.engine.jobs import JobResult, JobState, backoff_delay
from repro.harness.engine.keys import plan_batches
from repro.harness.engine.worker import _execute_guarded, run_job_batch
from repro.harness.runner import Harness, HarnessConfig
from repro.telemetry.metrics import get_registry

log = logging.getLogger(__name__)

__all__ = ["Executor", "ProcessPoolJobExecutor", "SerialExecutor"]


class Executor:
    """Strategy interface: run ``pending`` job indices to termination.

    An executor is constructed around its engine (for the store, salt,
    timeout, and backoff policy) and invoked once per run with that
    run's :class:`RunContext`.  Implementations must loop until every
    pending job reaches a terminal state (retries included) — the
    engine's façade only opens/closes the run around this call.
    """

    #: What the run manifest records as ``runtime.executor``.
    name: str = ""

    #: True when attempts run in *other processes* whose telemetry
    #: registries die with them — the engine then merges every
    #: attempt's telemetry delta, retried ones included, into the run
    #: manifest instead of relying on the parent registry having seen
    #: the work.
    uses_workers: bool = False

    def __init__(self, engine) -> None:
        self.engine = engine

    def execute(self, ctx: RunContext, pending: Sequence[int]) -> None:
        raise NotImplementedError

    def _backoff(self, ctx: RunContext, round_no: int) -> float:
        return backoff_delay(round_no, base=self.engine.backoff_base,
                             cap=self.engine.backoff_cap, rng=ctx.rng)


class SerialExecutor(Executor):
    """Run attempts inline, reusing one harness per machine config;
    ``ctx.stop`` ends the run before its next attempt."""

    name = "serial"

    def execute(self, ctx: RunContext, pending: Sequence[int]) -> None:
        engine = self.engine
        harnesses: Dict[HarnessConfig, Harness] = {}
        queue = list(pending)
        round_no = 0
        while queue:
            retry: List[int] = []
            for i in queue:
                if ctx.stop.is_set():
                    return
                job = ctx.jobs[i]
                config = job.harness_config()
                harness = harnesses.get(config)
                if harness is None:
                    harness = Harness(config, store=engine.store)
                    harnesses[config] = harness
                if ctx.attempts[i] > 0:
                    # Retries recompute through the store rather than the
                    # harness's warm in-memory artifacts, so a quarantined
                    # (corrupt) intermediate is rebuilt, not resurrected.
                    harness.invalidate(job.app, job.input_id)
                ctx.start_attempt(i)
                result = _execute_guarded(
                    job, index=i, attempt=ctx.attempts[i] - 1,
                    store=engine.store, harness=harness,
                    job_timeout=engine.job_timeout, in_worker=False)
                if ctx.record_outcome(i, result):
                    retry.append(i)
            if retry:
                time.sleep(self._backoff(ctx, round_no))
            queue = retry
            round_no += 1


class ProcessPoolJobExecutor(Executor):
    """Fan batches out over a process pool (the ``jobs > 1`` path)."""

    name = "pool"
    uses_workers = True

    def execute(self, ctx: RunContext, pending: Sequence[int]) -> None:
        from concurrent.futures.process import BrokenProcessPool
        engine = self.engine
        cache_root = str(engine.cache_dir) if engine.cache_dir else None
        tenant = engine.store.tenant if engine.store is not None else None
        queue = list(pending)
        round_no = 0
        while queue:
            if round_no == 0:
                local = plan_batches([ctx.jobs[i] for i in queue],
                                     min(engine.jobs, len(queue)))
                batches = [[queue[li] for li in b] for b in local]
            else:
                # Retry rounds run every job in its own isolation batch
                # (on a fresh pool): one poison job can then take down at
                # most itself, never re-kill healthy neighbours.  A
                # retried job rebuilds everything through the store.
                batches = [[i] for i in queue]
            workers = min(engine.jobs, len(batches))
            retry: List[int] = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {}
                for batch in batches:
                    for i in batch:
                        ctx.start_attempt(i)
                    future = pool.submit(
                        run_job_batch, [ctx.jobs[i] for i in batch],
                        cache_root, engine.salt, indices=list(batch),
                        attempts=[ctx.attempts[i] - 1 for i in batch],
                        job_timeout=engine.job_timeout,
                        runtime=ctx.runtime, namespace=tenant)
                    futures[future] = batch
                for future in as_completed(futures):
                    batch = futures[future]
                    try:
                        batch_results = future.result()
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as exc:
                        # A worker died mid-batch (SIGKILL, OOM, ...);
                        # the pool is broken, so sibling batches land
                        # here too.  Degrade gracefully: every affected
                        # job is requeued for the re-shard round.
                        if isinstance(exc, BrokenProcessPool):
                            get_registry().count(
                                "engine/batches/worker_lost")
                        log.warning("worker lost batch %s (%s: %s); "
                                    "re-sharding", batch,
                                    type(exc).__name__, exc)
                        for i in batch:
                            ghost = JobResult(
                                job=ctx.jobs[i], value=None, cached=False,
                                seconds=0.0, state=JobState.FAILED,
                                attempt=ctx.attempts[i] - 1, index=i,
                                error=(f"worker died: "
                                       f"{type(exc).__name__}: {exc}"))
                            if ctx.record_outcome(i, ghost):
                                retry.append(i)
                        continue
                    for i, result in zip(batch, batch_results):
                        if ctx.record_outcome(i, result):
                            retry.append(i)
            if retry:
                time.sleep(self._backoff(ctx, round_no))
            queue = retry
            round_no += 1
