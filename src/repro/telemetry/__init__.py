"""Unified telemetry: metrics, tracing, run manifests, structured logging.

Four pieces, designed to be cheap enough to leave on by default
(a ``MetricsRegistry(enabled=False)`` installed with
:func:`set_registry` turns recording off entirely):

* :mod:`repro.telemetry.metrics` — a process-local
  :class:`MetricsRegistry` (counters / gauges / fixed-bucket histograms
  / per-path span times), with mergeable JSON snapshots for
  cross-process aggregation and a Prometheus text-exposition encoder
  (:func:`to_prometheus_text` — what the service's ``metrics`` op
  serves);
* :mod:`repro.telemetry.tracing` — :func:`span`, the one timing
  primitive (names in :data:`SPAN_NAMES`): it adds each block's time to
  the registry and, inside a :func:`collect_spans` scope, journals it
  with a :class:`TraceContext` — triples that pickle into jobs and
  cross the process-pool boundary, exported by
  ``python -m repro.tools.trace_export``;
* :mod:`repro.telemetry.manifest` — per-run **run manifests**
  (``manifest.jsonl`` + ``summary.json``) written next to the artifact
  store by :class:`~repro.harness.engine.ExperimentEngine`, rendered by
  ``python -m repro.tools.report`` and ``python -m repro.tools.top``;
* :mod:`repro.telemetry.logconfig` — the shared structured-``logging``
  setup behind every CLI's ``--verbose/--quiet`` flags.

See ``docs/TELEMETRY.md`` for metric names and the manifest schema,
``docs/OBSERVABILITY.md`` for tracing and the live-metrics surface, and
``docs/ENGINE.md`` ("Environment variables") for the runtime switches,
including the worker profiler (``REPRO_PROFILE``).
"""

from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging, setup_logging)
from repro.telemetry.manifest import (RunManifest, job_row, new_run_id,
                                      read_run_manifest, read_spans,
                                      render_report, resolve_run_dir,
                                      write_run_manifest)
from repro.telemetry.metrics import (BucketMismatchError, DEFAULT_BUCKETS,
                                     Histogram, LATENCY_BUCKETS,
                                     MetricsRegistry, get_registry,
                                     merge_snapshots, set_registry,
                                     snapshot_delta, to_prometheus_text)
from repro.telemetry.profile_hooks import worker_profile
from repro.telemetry.tracing import (SPAN_NAMES, TraceContext,
                                     collect_spans, span)

__all__ = [
    "BucketMismatchError",
    "DEFAULT_BUCKETS",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "RunManifest",
    "SPAN_NAMES",
    "TraceContext",
    "add_logging_args",
    "collect_spans",
    "emit",
    "get_registry",
    "job_row",
    "merge_snapshots",
    "new_run_id",
    "read_run_manifest",
    "read_spans",
    "render_report",
    "resolve_run_dir",
    "set_registry",
    "setup_cli_logging",
    "setup_logging",
    "snapshot_delta",
    "span",
    "to_prometheus_text",
    "write_run_manifest",
]
