"""Per-run bookkeeping: the :class:`RunContext` every executor drives.

A ``RunContext`` owns one run's mutable state — job states, attempt
counts, results, the incremental journal, the telemetry baseline, and
the retry policy — and exposes the two transitions executors perform:
:meth:`start_attempt` and :meth:`record_outcome`.  Keeping the state
machine here means every executor (serial, process-pool) shares
identical retry/journal/telemetry semantics, and the engine façade only
has to open a context, hand it to an executor, and write the manifest.

``on_result`` is the incremental-streaming seam: the service registers a
callback and receives every *terminal* :class:`JobResult` (succeeded,
skipped, failed, timed-out — not retried attempts) the moment it is
recorded, without waiting for the sweep to finish.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.harness.engine.jobs import JobResult, JobState, SimJob
from repro.runtime import RuntimeConfig, current as current_runtime
from repro.telemetry.metrics import get_registry

log = logging.getLogger(__name__)

__all__ = ["RunContext"]


@dataclass
class RunContext:
    """Mutable bookkeeping for one engine run (any executor)."""

    jobs: List[SimJob]
    run_id: str
    max_retries: int = 0
    states: List[str] = field(default_factory=list)
    attempts: List[int] = field(default_factory=list)
    results: List[Optional[JobResult]] = field(default_factory=list)
    rng: random.Random = field(default_factory=random.Random)
    journal: Optional[Any] = None
    resumed_from: Optional[str] = None
    #: Streaming callback: invoked with every terminal JobResult.
    on_result: Optional[Callable[[JobResult], None]] = None
    #: Telemetry snapshot taken when the run opened (None: disabled).
    parent_before: Optional[dict] = None
    #: Every recorded attempt's telemetry delta, retried attempts
    #: included (what a pool run merges: its workers' registries die
    #: with them).
    attempt_telemetry: List[dict] = field(default_factory=list)
    #: This process's GC collections per generation when the run opened
    #: (None: telemetry disabled).
    gc_before: Optional[List[int]] = None
    #: Root trace context of this run (None: telemetry disabled) — every
    #: job's pickled context is a child of it.
    trace: Optional[Any] = None
    #: The runtime config snapshotted when the run opened: shipped with
    #: every worker batch, recorded in ``summary.json``.
    runtime: RuntimeConfig = field(default_factory=current_runtime)
    started: float = field(default_factory=time.perf_counter)
    started_epoch: float = field(default_factory=time.time)
    #: Jobs already counted in ``engine/jobs/retried`` (once per job).
    retried: Set[int] = field(default_factory=set)
    #: Jobs already counted in ``engine/jobs/timed_out`` (once per job).
    timed_out: Set[int] = field(default_factory=set)
    #: Set (from any thread) to start no further attempt.
    stop: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        if not self.states:
            self.states = [JobState.PENDING] * len(self.jobs)
        if not self.attempts:
            self.attempts = [0] * len(self.jobs)
        if not self.results:
            self.results = [None] * len(self.jobs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pending(self) -> List[int]:
        """Indices still needing an attempt (input order)."""
        return [i for i in range(len(self.jobs))
                if self.results[i] is None]

    def failed(self) -> List[int]:
        """Indices whose job never succeeded (terminal failure)."""
        return [i for i in range(len(self.jobs))
                if self.states[i] in (JobState.FAILED,
                                      JobState.TIMED_OUT)]

    def wall_seconds(self) -> float:
        return time.perf_counter() - self.started

    def job_states(self) -> Dict[str, int]:
        """State-name → count histogram over the sweep."""
        histogram: Dict[str, int] = {}
        for state in self.states:
            histogram[state] = histogram.get(state, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def event(self, index: int, state: str, **extra) -> None:
        if self.journal is not None:
            self.journal.event(index=index, state=state, **extra)

    def _emit(self, result: JobResult) -> None:
        if self.on_result is not None:
            self.on_result(result)

    def _journal_spans(self, result: JobResult) -> None:
        """Write the attempt's collected trace spans into the journal
        (next to the state rows — one ``events.jsonl``, two kinds)."""
        if self.journal is None or not result.span_records:
            return
        for record in result.span_records:
            self.journal.write_span(record)

    def start_attempt(self, i: int) -> None:
        self.attempts[i] += 1
        self.states[i] = JobState.RUNNING
        self.event(i, JobState.RUNNING, attempt=self.attempts[i] - 1)

    def record_hit(self, i: int, result: JobResult) -> None:
        """A job served from the store before dispatch, terminal in
        ``result.state`` (``skipped`` or ``succeeded``), no attempt; it
        reaches the journal through :meth:`attach_journal`."""
        self.results[i] = result
        self.states[i] = result.state
        get_registry().count(f"engine/jobs/{result.state}")
        self._emit(result)

    def attach_journal(self, journal: Any) -> None:
        """Start journaling, first writing the hits recorded so far."""
        self.journal = journal
        for i, result in enumerate(self.results):
            if result is not None:
                self.event(i, result.state, cached=True)
                self._journal_spans(result)

    def record_outcome(self, i: int, result: JobResult) -> bool:
        """Fold one attempt's outcome into the run; True ⇒ retry it."""
        registry = get_registry()
        job = self.jobs[i]
        result.index = i
        # Spans and telemetry are kept for *every* attempt, retried ones
        # included: a retry's trace shows the failed attempt next to the
        # one that replaced it, and its counts stay in the run's totals.
        self._journal_spans(result)
        if result.telemetry:
            self.attempt_telemetry.append(result.telemetry)
        if result.state == JobState.SUCCEEDED:
            self.states[i] = JobState.SUCCEEDED
            self.results[i] = result
            registry.count("engine/jobs/succeeded")
            self.event(i, JobState.SUCCEEDED, attempt=result.attempt,
                       cached=result.cached,
                       seconds=round(result.seconds, 6))
            self._emit(result)
            return False
        if (result.state == JobState.TIMED_OUT
                and i not in self.timed_out):
            self.timed_out.add(i)
            registry.count("engine/jobs/timed_out")
        if self.attempts[i] < 1 + self.max_retries:
            if i not in self.retried:
                self.retried.add(i)
                registry.count("engine/jobs/retried")
            self.states[i] = JobState.PENDING
            self.results[i] = None
            self.event(i, JobState.PENDING, attempt=result.attempt,
                       error=result.error, retry=True)
            log.warning("job %d (%s/%s) %s on attempt %d: %s — retrying",
                        i, job.app, job.policy, result.state,
                        result.attempt, result.error)
            return True
        self.states[i] = result.state
        self.results[i] = result
        registry.count("engine/jobs/failed")
        self.event(i, result.state, attempt=result.attempt,
                   error=result.error)
        log.error("job %d (%s/%s) %s after %d attempt(s): %s",
                  i, job.app, job.policy, result.state, self.attempts[i],
                  result.error)
        self._emit(result)
        return False

    def close_journal(self) -> None:
        if self.journal is not None:
            self.journal.close()
