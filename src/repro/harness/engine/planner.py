"""Planning: which jobs share a worker batch and a stream export.

The :class:`Planner` is pure bookkeeping — it looks at a job list and
decides how work should be shaped (per-worker batches, shared-memory
stream exports) without running anything.  The executors in
:mod:`repro.harness.engine.executor` consume its plans.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, List, Sequence

from repro import runtime
from repro.harness.engine.keys import batch_key, stream_key
from repro.telemetry.metrics import get_registry

log = logging.getLogger(__name__)

__all__ = ["Planner"]


class Planner:
    """Turns a job list into execution shape: worker batches and
    shared-memory stream exports.

    Stateless — every method is a pure function of its arguments — so
    one planner instance can serve every engine and service run in a
    process.
    """

    def plan_batches(self, jobs: Sequence, target: int) -> List[List[int]]:
        """Group job indices by (app, input, machine config) so each
        worker replays one shared access stream across its group's
        policies; large groups are split while workers would sit idle."""
        groups: Dict[Any, List[int]] = {}
        for i, job in enumerate(jobs):
            groups.setdefault(batch_key(job), []).append(i)
        batches = list(groups.values())
        while len(batches) < target:
            largest = max(batches, key=len)
            if len(largest) <= 1:
                break
            batches.remove(largest)
            mid = len(largest) // 2
            batches.extend([largest[:mid], largest[mid:]])
        return batches

    def plan_stream_exports(self, batches: Sequence[Sequence],
                            store) -> Dict[Any, Any]:
        """Export each batch's stream columns over shared memory.

        ``batches`` holds job sequences (one per worker batch).  Only
        traces already present in the store are exported — the parent
        shares what exists, it never computes a missing trace (that
        stays the worker's job).  Returns ``{stream key:
        ExportedStream}``; the caller owns the exports and must close
        (unlink) them after the run.
        """
        from repro.trace.shm import export_stream
        from repro.trace.stream import access_stream_for
        if store is None or not runtime.current().shm:
            return {}
        exports: Dict[Any, Any] = {}
        for batch in batches:
            job = batch[0]
            key = stream_key(job)
            if key in exports:
                continue
            trace = store.get("trace", store.key(
                "trace", app=job.app, input_id=job.input_id,
                length=job.length))
            if trace is None:
                continue
            try:
                stream = access_stream_for(trace, job.btb_config)
                exports[key] = export_stream(stream, job.app,
                                             job.input_id, job.length)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                log.warning("stream export failed for %s/%d (%s: %s); "
                            "workers will rebuild from the store",
                            job.app, job.input_id,
                            type(exc).__name__, exc)
        if exports:
            get_registry().count("engine/shm/exported", len(exports))
            total = sum(e.handle.nbytes for e in exports.values())
            log.info("exported %d shared stream(s) (%.1f MiB) for "
                     "zero-copy worker attach", len(exports),
                     total / (1024 * 1024))
        return exports
