"""Engine-as-a-library: the experiment engine as composable pieces.

What used to be one monolithic ``engine.py`` is now a package of
separately usable layers:

* :mod:`~repro.harness.engine.store` — content-addressed, multi-tenant
  :class:`ArtifactStore` (namespaces, quotas, single-flight fetch).
* :mod:`~repro.harness.engine.keys` — the shared job-identity helpers
  (batch keys, and :func:`plan_batches`: how pool jobs share worker
  batches) every layer keys work by.
* :mod:`~repro.harness.engine.jobs` — :class:`SimJob` / \
  :class:`JobResult`, the :class:`JobState` machine, deadlines, backoff.
* :mod:`~repro.harness.engine.worker` — process-pool entry points.
* :mod:`~repro.harness.engine.context` — per-run :class:`RunContext`
  state machine (journal, retries, result streaming).
* :mod:`~repro.harness.engine.executor` — serial / process-pool
  execution strategies behind one :class:`Executor` interface.
* :mod:`~repro.harness.engine.core` — the :class:`ExperimentEngine`
  façade tying it together (and :meth:`ExperimentEngine.run_async`,
  which :mod:`repro.service` builds on).

This module re-exports the full historical ``repro.harness.engine``
surface, so ``from repro.harness.engine import ExperimentEngine, ...``
keeps working unchanged.
"""

from __future__ import annotations

from repro.harness.engine.store import (ArtifactStore, QUARANTINE_DIR,
                                        QuotaExceededError, STORE_VERSION,
                                        TENANTS_DIR, artifact_key,
                                        validate_namespace)
from repro.harness.engine.keys import (batch_key, effective_btb_config,
                                       plan_batches)
from repro.harness.engine.jobs import (HINTED_POLICIES, JobResult,
                                       JobState, JobTimeoutError, SimJob,
                                       backoff_delay, execute_job,
                                       job_deadline)
from repro.harness.engine.worker import run_job, run_job_batch
from repro.harness.engine.context import RunContext
from repro.harness.engine.executor import (Executor, ProcessPoolJobExecutor,
                                           SerialExecutor)
from repro.harness.engine.core import ExperimentEngine, ExperimentError

__all__ = ["ArtifactStore", "Executor", "ExperimentEngine",
           "ExperimentError", "JobResult", "JobState",
           "JobTimeoutError", "ProcessPoolJobExecutor",
           "QUARANTINE_DIR", "QuotaExceededError", "RunContext",
           "SerialExecutor", "SimJob", "STORE_VERSION", "TENANTS_DIR",
           "artifact_key", "backoff_delay", "batch_key",
           "effective_btb_config", "execute_job",
           "job_deadline", "plan_batches", "run_job", "run_job_batch",
           "validate_namespace"]
