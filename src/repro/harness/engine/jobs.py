"""Job identity and execution primitives: :class:`SimJob`,
:class:`JobResult`, the :class:`JobState` machine, attempt deadlines,
and retry backoff.

This layer knows how to describe and run *one* simulation; batching
(which jobs share a worker) lives in
:mod:`repro.harness.engine.keys`, worker entry points in
:mod:`repro.harness.engine.worker`, and orchestration in
:mod:`repro.harness.engine.core`.
"""

from __future__ import annotations

import functools
import logging
import random
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.btb.config import BTBConfig, DEFAULT_BTB_CONFIG
from repro.frontend.params import DEFAULT_FRONTEND_PARAMS, FrontendParams
from repro.harness.engine.keys import (PERFECT_BTB, effective_btb_config,
                                       split_policy)
from repro.harness.engine.store import (ArtifactStore, STORE_VERSION,
                                        artifact_key)
from repro.harness.reporting import CacheStats
from repro.harness.runner import Harness, HarnessConfig
from repro.prefetch.confluence import ConfluencePrefetcher
from repro.prefetch.shotgun import ShotgunPrefetcher
from repro.telemetry.tracing import TraceContext

log = logging.getLogger(__name__)

__all__ = ["HINTED_POLICIES", "JobResult", "JobState", "JobTimeoutError",
           "SimJob", "backoff_delay", "execute_job", "job_deadline"]

#: Policies whose construction requires a profile-derived hint map.
HINTED_POLICIES = ("thermometer", "thermometer-7979", "thermometer-dueling")


# ----------------------------------------------------------------------
# Job states, timeouts, backoff
# ----------------------------------------------------------------------

class JobState:
    """The per-job lifecycle: ``pending → running → succeeded``, with
    ``failed`` / ``timed-out`` after exhausted retries (a retried attempt
    transitions back to ``pending``) and ``skipped`` for resumed jobs
    whose artifact already verifies in the store."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed-out"
    SKIPPED = "skipped"

    #: States a finished run may leave a job in.
    TERMINAL = (SUCCEEDED, FAILED, TIMED_OUT, SKIPPED)
    ALL = (PENDING, RUNNING) + TERMINAL


class JobTimeoutError(RuntimeError):
    """An attempt exceeded its ``job_timeout`` wall-clock budget."""


@contextmanager
def job_deadline(seconds: Optional[float]):
    """Bound a block to ``seconds`` of wall clock via SIGALRM, raising
    :class:`JobTimeoutError` on expiry.

    Interval timers only work on the main thread of a POSIX process (true
    for pool workers and :meth:`ExperimentEngine.run`'s serial path);
    elsewhere — including the event-loop thread that ``run_async`` runs
    its misses on — and for a None/zero budget, this is a no-op.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if (not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _expired(signum, frame):
        raise JobTimeoutError(
            f"job exceeded its {seconds:.3g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def backoff_delay(round_no: int, base: float = 0.25, cap: float = 8.0,
                  rng: Optional[random.Random] = None) -> float:
    """Exponential backoff with jitter: ``min(cap, base·2^round)`` scaled
    uniformly into its upper half so colliding retries decorrelate."""
    delay = min(cap, base * (2 ** max(0, round_no)))
    roll = (rng or random).random()
    return delay * (0.5 + 0.5 * roll)


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimJob:
    """One simulation: (workload, policy, machine) → result.

    ``mode`` selects the result type: ``"sim"`` runs the full frontend
    timing model (→ :class:`~repro.frontend.simulator.SimResult`);
    ``"misses"`` replays only the BTB (→
    :class:`~repro.btb.btb.BTBStats`).  ``policy`` may carry a frontend
    variant (``opt+shotgun``) or be ``perfect-btb``; both need ``"sim"``
    (see :func:`~repro.harness.engine.keys.split_policy`)."""

    app: str
    policy: str = "lru"
    input_id: int = 0
    length: Optional[int] = None
    mode: str = "sim"
    btb_config: BTBConfig = DEFAULT_BTB_CONFIG
    params: FrontendParams = DEFAULT_FRONTEND_PARAMS
    thresholds: Tuple[float, ...] = (50.0, 80.0)
    default_category: int = 1
    warmup_fraction: float = 0.2
    #: Trace context this job's worker-side spans link under (assigned
    #: by the engine / service; ``compare=False`` keeps it out of
    #: equality, hashing, and the cache key — causality is provenance,
    #: not identity).
    trace_context: Optional[TraceContext] = field(default=None,
                                                  compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("sim", "misses"):
            raise ValueError(f"mode must be 'sim' or 'misses', "
                             f"got {self.mode!r}")
        base, variant = split_policy(self.policy)
        if self.mode == "misses" and (variant or base == PERFECT_BTB):
            raise ValueError(f"policy {self.policy!r} changes the "
                             f"frontend, so it needs mode 'sim'")
        # A tuple keeps every job hashable (the cache-key memo needs it).
        object.__setattr__(self, "thresholds", tuple(self.thresholds))

    @property
    def needs_hints(self) -> bool:
        return split_policy(self.policy)[0] in HINTED_POLICIES

    def harness_config(self) -> HarnessConfig:
        return HarnessConfig(
            apps=(self.app,), length=self.length,
            btb_config=self.btb_config, params=self.params,
            thresholds=self.thresholds,
            default_category=self.default_category,
            warmup_fraction=self.warmup_fraction)

    def key_fields(self) -> Dict[str, Any]:
        """Everything that can change this job's result."""
        return dict(app=self.app, policy=self.policy,
                    input_id=self.input_id, length=self.length,
                    btb_config=self.btb_config, params=self.params,
                    thresholds=self.thresholds,
                    default_category=self.default_category,
                    warmup_fraction=self.warmup_fraction)

    def cache_key(self, salt: str = STORE_VERSION) -> str:
        return _cache_key(self, salt)


@functools.lru_cache(maxsize=4096)
def _cache_key(job: SimJob, salt: str) -> str:
    """:meth:`SimJob.cache_key`, memoized: equal jobs (trace context
    aside, which equality ignores) always key the same."""
    return artifact_key(job.mode, salt=salt, **job.key_fields())


@dataclass
class JobResult:
    """One finished attempt: its value plus cache and state provenance."""

    job: SimJob
    value: Any
    #: True when the *job-level* result came straight from the store.
    cached: bool
    seconds: float
    stats: CacheStats = field(default_factory=CacheStats)
    #: This job's telemetry-registry snapshot delta (counters, spans,
    #: histograms recorded while it ran) — merged by the parent into the
    #: run manifest.  See :mod:`repro.telemetry.metrics`.
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: Terminal :class:`JobState` of this attempt.
    state: str = JobState.SUCCEEDED
    #: Zero-based attempt number (0 = first try).
    attempt: int = 0
    #: Position in the sweep's job list (None outside an engine run).
    index: Optional[int] = None
    #: ``"ExcType: message"`` for failed / timed-out attempts.
    error: Optional[str] = None
    #: Trace-span records collected while this attempt ran (see
    #: :mod:`repro.telemetry.tracing`) — journaled by the parent into
    #: the run's ``events.jsonl``, exactly like the telemetry delta is
    #: merged into the manifest.
    span_records: list = field(default_factory=list)


def execute_job(job: SimJob, harness: Optional[Harness] = None,
                store: Optional[ArtifactStore] = None) -> Any:
    """Run one job through a :class:`Harness` (no job-level caching),
    with the frontend variant its policy string names."""
    h = harness if harness is not None else Harness(job.harness_config(),
                                                   store=store)
    base, variant = split_policy(job.policy)
    # Hints are profiled against the geometry the policy runs with (the
    # 7979-entry config, or Shotgun's after its metadata tax).
    btb_config = effective_btb_config(job.policy, job.btb_config)
    trace = h.trace(job.app, job.input_id)
    hints = None
    if job.needs_hints:
        hints = h.hints(job.app, job.input_id, btb_config=btb_config)
    if job.mode == "misses":
        return h.run_misses(trace, base, btb_config=btb_config,
                            hints=hints)
    if base == PERFECT_BTB:
        return h.run_sim(trace, None, params=job.params, perfect_btb=True)
    prefetcher, oracles = None, {}
    if variant in ("perfect-bp", "perfect-icache"):
        oracles[variant.replace("-", "_")] = True
    elif variant == "confluence":
        prefetcher = ConfluencePrefetcher()
    elif variant == "shotgun":
        prefetcher = ShotgunPrefetcher()
    elif variant == "twig":
        prefetcher = h.twig(job.app, job.input_id)
    return h.run_sim(trace, base, btb_config=btb_config, hints=hints,
                     params=job.params, prefetcher=prefetcher, **oracles)


def _stats_delta(current: CacheStats, baseline: CacheStats) -> CacheStats:
    """This job's contribution to a (possibly shared) store's stats."""
    return CacheStats(
        hits=current.hits - baseline.hits,
        misses=current.misses - baseline.misses,
        corrupt=current.corrupt - baseline.corrupt,
        digest_failures=(current.digest_failures
                         - baseline.digest_failures),
        quarantined=current.quarantined - baseline.quarantined,
        quota_rejected=(current.quota_rejected
                        - baseline.quota_rejected),
        bytes_read=current.bytes_read - baseline.bytes_read,
        bytes_written=current.bytes_written - baseline.bytes_written)
