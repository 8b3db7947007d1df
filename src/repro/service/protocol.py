"""The simulation service's line-JSON wire protocol.

One JSON object per ``\\n``-terminated line, both directions — trivially
scriptable (``nc`` + ``jq`` level), no framing beyond newlines, stdlib
only.

Requests
--------

Every request carries an ``op`` and a client-chosen ``id`` (echoed on
every response line for that request, so pipelined requests can share a
connection)::

    {"id": "r1", "op": "simulate", "tenant": "alice",
     "jobs": [{"app": "tomcat", "policy": "lru", "mode": "misses",
               "length": 4000}]}
    {"id": "r2", "op": "sweep", "tenant": "alice",
     "apps": ["tomcat", "kafka"], "policies": ["lru", "srrip"],
     "mode": "misses", "length": 4000}
    {"id": "r3", "op": "profile", "tenant": "alice",
     "apps": ["tomcat"], "length": 4000}
    {"id": "r4", "op": "status"}
    {"id": "r5", "op": "metrics"}
    {"id": "r6", "op": "shutdown"}

``simulate`` runs an explicit job list; ``sweep`` expands an
(apps × policies) matrix with shared settings; ``profile`` builds the
profile-guided artifacts (trace → OPT profile → hint map) for each app
by running the ``thermometer`` policy — afterwards the store serves the
hints to any later request.  All three produce the same thing
downstream: a list of :class:`~repro.harness.engine.SimJob`.

``metrics`` returns the service's live metrics as one Prometheus
text-exposition document (``{"event": "metrics", "text": "..."}``) —
per-tenant SLO latency histograms plus cache/quota/coalescing counters;
see ``docs/OBSERVABILITY.md``.

A request may carry a ``trace`` object (``{"trace_id", "span_id"}``,
as produced by :class:`~repro.telemetry.tracing.TraceContext`); the
service links its request/batch/job spans under it so an exported trace
reaches from the client's root down into pool workers.

Job fields: ``app`` (required), ``policy``, ``input_id``, ``length``,
``mode`` (``misses``/``sim``), ``entries``/``ways`` (BTB geometry),
``thresholds``, ``default_category``, ``warmup_fraction`` — everything
else of the engine's job identity keeps its default.

Responses
---------

Streamed as the run progresses::

    {"id": "r1", "event": "accepted", "jobs": 1}
    {"id": "r1", "event": "result", "index": 0, "row": {...}}
    {"id": "r1", "event": "done", "ok": true, "run_id": "...",
     "coalesced": true, "batch_jobs": 4, "requests": 2, ...}

``result`` rows use the run-manifest row shape
(:func:`repro.telemetry.manifest.job_row`), so a service client sees
*exactly* what the manifest records — the differential tests compare the
two byte for byte.  ``error`` events (bad request, failed run) carry an
``error`` string; a failed run's ``done`` event has ``ok: false``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.btb.config import BTBConfig, DEFAULT_BTB_CONFIG
from repro.harness.engine import SimJob
# Framing (encode/decode, buffering, oversized/torn-frame handling)
# lives in repro.service.framing; re-exported here so protocol consumers
# keep their historical imports.
from repro.service.framing import (ProtocolError, decode_line,
                                   encode_line)

__all__ = ["ProtocolError", "decode_line", "encode_line",
           "job_from_dict", "job_to_dict", "jobs_from_request"]

#: Ops a request may carry.
OPS = ("simulate", "sweep", "profile", "status", "metrics", "shutdown")

_JOB_FIELDS = ("app", "policy", "input_id", "length", "mode",
               "thresholds", "default_category", "warmup_fraction")


def _btb_config(source: Dict[str, Any]) -> BTBConfig:
    entries = source.get("entries")
    ways = source.get("ways")
    if entries is None and ways is None:
        return DEFAULT_BTB_CONFIG
    try:
        return dataclasses.replace(
            DEFAULT_BTB_CONFIG,
            **{k: int(v) for k, v in (("entries", entries),
                                      ("ways", ways)) if v is not None})
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad BTB geometry: {exc}") from None


def job_from_dict(data: Dict[str, Any],
                  defaults: Optional[Dict[str, Any]] = None) -> SimJob:
    """A :class:`SimJob` from its wire dict (``defaults`` fills fields
    the entry omits — the sweep/profile ops' shared settings)."""
    if not isinstance(data, dict):
        raise ProtocolError("each job must be a JSON object")
    merged = dict(defaults or {})
    merged.update(data)
    if not merged.get("app"):
        raise ProtocolError("job missing required field 'app'")
    kwargs: Dict[str, Any] = {}
    for name in _JOB_FIELDS:
        if merged.get(name) is not None:
            kwargs[name] = merged[name]
    if "thresholds" in kwargs:
        kwargs["thresholds"] = tuple(float(t)
                                     for t in kwargs["thresholds"])
    kwargs["btb_config"] = _btb_config(merged)
    try:
        return SimJob(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad job: {exc}") from None


def job_to_dict(job: SimJob) -> Dict[str, Any]:
    """The wire dict for a job (round-trips through
    :func:`job_from_dict`)."""
    return {"app": job.app, "policy": job.policy,
            "input_id": job.input_id, "length": job.length,
            "mode": job.mode, "entries": job.btb_config.entries,
            "ways": job.btb_config.ways,
            "thresholds": list(job.thresholds),
            "default_category": job.default_category,
            "warmup_fraction": job.warmup_fraction}


def jobs_from_request(request: Dict[str, Any]) -> List[SimJob]:
    """Expand a ``simulate``/``sweep``/``profile`` request into jobs."""
    op = request.get("op")
    shared = {name: request.get(name) for name in
              ("input_id", "length", "mode", "entries", "ways",
               "thresholds", "default_category", "warmup_fraction")}
    if op == "simulate":
        jobs = request.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise ProtocolError("'simulate' needs a non-empty 'jobs' "
                                "list")
        return [job_from_dict(entry, defaults=shared) for entry in jobs]
    if op == "sweep":
        apps = request.get("apps")
        policies = request.get("policies")
        if not isinstance(apps, list) or not apps:
            raise ProtocolError("'sweep' needs a non-empty 'apps' list")
        if not isinstance(policies, list) or not policies:
            raise ProtocolError("'sweep' needs a non-empty 'policies' "
                                "list")
        return [job_from_dict({"app": app, "policy": policy},
                              defaults=shared)
                for app in apps for policy in policies]
    if op == "profile":
        apps = request.get("apps")
        if not isinstance(apps, list) or not apps:
            raise ProtocolError("'profile' needs a non-empty 'apps' "
                                "list")
        # Running thermometer in misses mode forces the full artifact
        # chain (trace -> OPT profile -> hint map) through the store.
        shared = dict(shared, mode="misses")
        return [job_from_dict({"app": app, "policy": "thermometer"},
                              defaults=shared) for app in apps]
    raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
