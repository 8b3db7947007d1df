"""Cross-process run manifests for the experiment engine.

Every :meth:`~repro.harness.engine.ExperimentEngine.run` with a cache
directory writes one **run manifest** next to the artifact store::

    <cache root>/runs/<run id>/manifest.jsonl   one line per job
    <cache root>/runs/<run id>/summary.json     merged totals
    <cache root>/runs/<run id>/jobs.json        sweep job index (keys)
    <cache root>/runs/<run id>/events.jsonl     incremental state journal

The JSONL rows carry each job's key fields, cache provenance, wall time,
per-job cache-stats delta, headline BTB/IPC numbers, terminal job state,
and the worker's telemetry snapshot delta; ``summary.json`` holds the
parent-side merge — total wall time, worker utilization, merged cache
stats, the merged telemetry registry (counters ⊕ histograms ⊕ spans),
the run's terminal ``status`` (``completed`` / ``failed`` /
``resumed``), a job-state histogram, and any exceptions.
``python -m repro.tools.report`` renders either back into terminal
tables.

``jobs.json`` and ``events.jsonl`` are written *incrementally* by
:class:`RunJournal` while the run is in flight (flushed per event), so a
sweep killed mid-run still leaves a forensic record of which job was in
which state — and ``events.jsonl`` is how the fault-injection tests
count attempts per job (see ``docs/FAULTS.md``).

The module is deliberately decoupled from the engine's classes: rows are
built by duck-typing :class:`~repro.harness.engine.JobResult`, so the
manifest schema — documented in ``docs/TELEMETRY.md`` — is plain JSON
that external tooling can consume without importing the simulator.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.telemetry.metrics import merge_snapshots


def _format_table(columns, rows) -> str:
    # Imported lazily: repro.harness transitively imports repro.telemetry
    # (for spans), so a module-level import here would be circular.
    from repro.harness.reporting import format_table
    return format_table(columns, rows)

__all__ = ["RunJournal", "RunManifest", "MANIFEST_VERSION",
           "append_spans", "canonical_rows", "job_row", "new_run_id",
           "read_events", "read_jobs_index", "read_run_manifest",
           "read_spans", "render_report", "resolve_run_dir",
           "synthesize_summary", "write_run_manifest"]

#: 2: summary gained ``status`` / ``resumed_from`` / ``job_states``;
#: rows gained ``state`` / ``attempt`` / ``error``; run directories
#: gained the incremental ``jobs.json`` + ``events.jsonl`` journal.
MANIFEST_VERSION = 2

_RUN_COUNTER = itertools.count()


def new_run_id() -> str:
    """A sortable, collision-free (per machine) run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}-{next(_RUN_COUNTER):04d}"


def _cache_stats_dict(stats) -> Dict[str, Any]:
    """A ``CacheStats``-shaped object as plain JSON."""
    if stats is None:
        return {}
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "corrupt": stats.corrupt,
        "digest_failures": getattr(stats, "digest_failures", 0),
        "quarantined": getattr(stats, "quarantined", 0),
        "quota_rejected": getattr(stats, "quota_rejected", 0),
        "bytes_read": stats.bytes_read,
        "bytes_written": stats.bytes_written,
        "stage_seconds": dict(stats.stage_seconds),
        "stage_counts": dict(stats.stage_counts),
    }


def _btb_stats_dict(value) -> Optional[Dict[str, Any]]:
    stats = getattr(value, "btb_stats", None)
    if stats is None and hasattr(value, "accesses"):
        stats = value
    if stats is None or not hasattr(stats, "accesses"):
        return None
    return {
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "bypasses": stats.bypasses,
    }


def job_row(result) -> Dict[str, Any]:
    """One manifest JSONL row from a :class:`JobResult`-shaped object."""
    job = result.job
    row = {
        "app": job.app,
        "policy": job.policy,
        "mode": job.mode,
        "input_id": job.input_id,
        "length": job.length,
        "cached": bool(result.cached),
        "seconds": round(float(result.seconds), 6),
        "state": getattr(result, "state", "succeeded"),
        "attempt": getattr(result, "attempt", 0),
        "cache": _cache_stats_dict(result.stats),
        "telemetry": getattr(result, "telemetry", {}) or {},
    }
    error = getattr(result, "error", None)
    if error:
        row["error"] = error
    btb = _btb_stats_dict(result.value)
    if btb is not None:
        row["btb"] = btb
    ipc = getattr(result.value, "ipc", None)
    if ipc is not None:
        row["ipc"] = round(float(ipc), 6)
    return row


def write_run_manifest(directory: Union[str, Path],
                       results: Sequence,
                       wall_seconds: float,
                       workers: int,
                       run_id: Optional[str] = None,
                       cache_stats=None,
                       telemetry: Optional[dict] = None,
                       exceptions: Optional[List[dict]] = None,
                       status: str = "completed",
                       resumed_from: Optional[str] = None,
                       job_states: Optional[Dict[str, int]] = None,
                       namespaces: Optional[List[dict]] = None) -> Path:
    """Write ``manifest.jsonl`` + ``summary.json`` under
    ``directory/<run_id>``; returns the run directory.

    ``results`` are finished jobs (possibly empty when the run failed);
    ``cache_stats`` is the run-local merged :class:`CacheStats`;
    ``telemetry`` is the run's already-merged registry snapshot — when
    omitted, the per-job deltas carried by the rows are merged instead
    (correct for worker-produced results; a serial caller should pass
    its own parent delta, which already contains the jobs' activity).
    ``status`` is the run's terminal state (``completed`` for a clean
    run, ``failed`` when any job or the run itself did not finish,
    ``resumed`` for a clean run that continued ``resumed_from``);
    ``job_states`` is a state-name → count histogram over the sweep;
    ``namespaces`` lists tenant-namespace summaries (name, quota, usage,
    per-namespace cache stats) for multi-tenant stores.
    """
    run_id = run_id or new_run_id()
    run_dir = Path(directory).expanduser() / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    rows = [job_row(result) for result in results]
    with open(run_dir / "manifest.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    if telemetry is None:
        telemetry = merge_snapshots(
            [row["telemetry"] for row in rows if row["telemetry"]])
    busy = sum(row["seconds"] for row in rows)
    workers = max(1, int(workers))
    summary = {
        "manifest_version": MANIFEST_VERSION,
        "run_id": run_id,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_seconds": round(float(wall_seconds), 6),
        "workers": workers,
        "jobs": len(rows),
        "cached_jobs": sum(1 for row in rows if row["cached"]),
        "busy_seconds": round(busy, 6),
        "worker_utilization": (round(busy / (wall_seconds * workers), 4)
                               if wall_seconds > 0 else 0.0),
        "cache": _cache_stats_dict(cache_stats),
        "telemetry": telemetry,
        "exceptions": list(exceptions or []),
        "status": status,
    }
    if resumed_from is not None:
        summary["resumed_from"] = resumed_from
    if job_states is not None:
        summary["job_states"] = dict(job_states)
    if namespaces:
        summary["namespaces"] = list(namespaces)
    tmp = run_dir / "summary.json.tmp"
    tmp.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, run_dir / "summary.json")
    return run_dir


class RunJournal:
    """Incremental job-state journal for one run directory.

    ``jobs.json`` (the sweep's job index — index, key fields, cache key
    per job) is written once at open; ``events.jsonl`` receives one
    flushed row per state transition, so the journal is readable — and
    meaningful — even after the writing process is SIGKILLed mid-run.
    """

    def __init__(self, run_dir: Union[str, Path],
                 jobs_index: Optional[List[dict]] = None):
        self.run_dir = Path(run_dir).expanduser()
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if jobs_index is not None:
            tmp = self.run_dir / "jobs.json.tmp"
            tmp.write_text(json.dumps(jobs_index, indent=2,
                                      sort_keys=True) + "\n",
                           encoding="utf-8")
            os.replace(tmp, self.run_dir / "jobs.json")
        self._fh = open(self.run_dir / "events.jsonl", "a",
                        encoding="utf-8")

    def event(self, index: int, state: str, **extra) -> None:
        if self._fh is None:
            return
        row = {"t": round(time.time(), 3), "index": index, "state": state}
        row.update({k: v for k, v in extra.items() if v is not None})
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._fh.flush()

    def write_span(self, record: Dict[str, Any]) -> None:
        """Journal one finished trace-span record (see
        :func:`repro.telemetry.tracing.span_record`) next to the state
        rows; span rows carry ``"kind": "span"`` and no ``state`` key,
        so :func:`read_events` keeps its historical state-only view."""
        if self._fh is None:
            return
        row = dict(record)
        row.setdefault("kind", "span")
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _read_journal_rows(run_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every parseable ``events.jsonl`` row (state transitions *and*
    trace spans); an interrupted writer's torn final line is skipped."""
    path = Path(run_dir).expanduser() / "events.jsonl"
    if not path.exists():
        return []
    rows = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return rows


def read_events(run_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """The state-transition journal of a run (empty if never written).

    Trace-span rows (``"kind": "span"``) share the file but are not
    state transitions; read those with :func:`read_spans`."""
    return [row for row in _read_journal_rows(run_dir)
            if row.get("kind", "state") == "state"]


def read_spans(run_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """The trace spans journaled for a run (empty when tracing was off),
    in write order."""
    return [row for row in _read_journal_rows(run_dir)
            if row.get("kind") == "span"]


def append_spans(run_dir: Union[str, Path],
                 records: Sequence[Dict[str, Any]]) -> None:
    """Append finished span records to a run's ``events.jsonl``.

    The engine journals its own and its workers' spans while the run is
    open; this is for spans that finish *after* the journal closes — the
    service's per-request and per-batch spans land here once the run
    summary exists."""
    if not records:
        return
    path = Path(run_dir).expanduser() / "events.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            row = dict(record)
            row.setdefault("kind", "span")
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_jobs_index(run_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """The sweep's job index (empty if never written)."""
    path = Path(run_dir).expanduser() / "jobs.json"
    if not path.exists():
        return []
    return json.loads(path.read_text())


#: The manifest-row fields that identify a job and its *result* — i.e.
#: what must be bit-identical between a faulted-then-resumed sweep and an
#: uninterrupted one (timings, cache provenance, attempts legitimately
#: differ).
CANONICAL_ROW_FIELDS = ("app", "policy", "mode", "input_id", "length",
                        "btb", "ipc")


def canonical_rows(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Project manifest rows onto their result-defining fields, sorted.

    Only successful rows (``succeeded`` / ``skipped``) participate; the
    differential fault tests compare two runs' canonical rows for
    equality.
    """
    projected = []
    for row in rows:
        if row.get("state", "succeeded") not in ("succeeded", "skipped"):
            continue
        projected.append({key: row[key] for key in CANONICAL_ROW_FIELDS
                          if key in row})
    return sorted(projected, key=lambda r: json.dumps(r, sort_keys=True))


@dataclass
class RunManifest:
    """One run read back from disk."""

    path: Path
    summary: Dict[str, Any]
    rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def run_id(self) -> str:
        return self.summary.get("run_id", self.path.name)


#: Files any of which mark a directory as a run directory — an
#: interrupted run may have journal files but no ``summary.json`` yet.
_RUN_DIR_MARKERS = ("summary.json", "events.jsonl", "jobs.json",
                    "manifest.jsonl")


def _run_dir_mtime(run_dir: Path) -> float:
    stamps = []
    for name in _RUN_DIR_MARKERS:
        try:
            stamps.append((run_dir / name).stat().st_mtime)
        except OSError:
            continue
    return max(stamps, default=0.0)


def resolve_run_dir(path: Union[str, Path]) -> Path:
    """Accept a run dir, a ``summary.json`` path, or a cache root whose
    ``runs/`` subdirectory holds runs (latest wins).  A directory with
    only journal files (an in-flight or interrupted run) counts."""
    path = Path(path).expanduser()
    if path.is_file():
        return path.parent
    if any((path / name).exists() for name in _RUN_DIR_MARKERS):
        return path
    runs = path / "runs" if (path / "runs").is_dir() else path
    candidates = [p for p in runs.iterdir()
                  if any((p / name).exists()
                         for name in _RUN_DIR_MARKERS)] \
        if runs.is_dir() else []
    if not candidates:
        raise FileNotFoundError(f"no run manifest under {path}")
    return max(candidates, key=_run_dir_mtime)


#: Backwards-compatible private alias (pre-observability callers).
_resolve_run_dir = resolve_run_dir


def synthesize_summary(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """A best-effort summary for a run whose ``summary.json`` is missing
    or unreadable (in flight, interrupted, or torn mid-write).

    Reconstructed from the incremental journal: the job index gives the
    sweep size, the last state event per job gives the state histogram,
    and the event timestamps bound the wall clock.  The result carries
    ``"partial": True`` plus a ``"missing"`` list naming what could not
    be recovered, so renderers can say so instead of tracebacking.
    """
    run_dir = Path(run_dir).expanduser()
    jobs_index = read_jobs_index(run_dir)
    events = read_events(run_dir)
    if not jobs_index and not events:
        raise FileNotFoundError(
            f"no summary and no journal under {run_dir} — nothing to "
            f"reconstruct")
    states: Dict[int, str] = {}
    for event in events:
        index = event.get("index")
        state = event.get("state")
        if index is not None and state is not None:
            states[index] = state
    total = max(len(jobs_index), len(states))
    job_states: Dict[str, int] = {}
    for i in range(total):
        state = states.get(i, "pending")
        job_states[state] = job_states.get(state, 0) + 1
    stamps = [e["t"] for e in events if "t" in e]
    summary: Dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "run_id": run_dir.name,
        "status": "in-progress",
        "partial": True,
        "missing": ["summary.json"],
        "jobs": total,
        "job_states": job_states,
        "wall_seconds": (round(max(stamps) - min(stamps), 3)
                         if len(stamps) > 1 else 0.0),
    }
    if not jobs_index:
        summary["missing"].append("jobs.json")
    if not events:
        summary["missing"].append("events.jsonl")
    return summary


def read_run_manifest(path: Union[str, Path]) -> RunManifest:
    """Load a manifest from a run directory (or ``summary.json``, or a
    cache root — the most recent run is picked).

    An in-progress or interrupted run — no ``summary.json``, or a torn
    one — degrades to a journal-reconstructed summary (see
    :func:`synthesize_summary`) instead of raising, so operators can
    inspect a run that is still in flight or died mid-write.
    """
    run_dir = _resolve_run_dir(Path(path).expanduser())
    summary: Optional[Dict[str, Any]] = None
    summary_path = run_dir / "summary.json"
    if summary_path.exists():
        try:
            loaded = json.loads(summary_path.read_text())
            if isinstance(loaded, dict):
                summary = loaded
        except (OSError, json.JSONDecodeError):
            summary = None
    if summary is None:
        summary = synthesize_summary(run_dir)
        if summary_path.exists():
            # It was there but unreadable: torn write, not absence.
            summary["missing"] = ["summary.json (corrupt)"] + [
                m for m in summary.get("missing", [])
                if m != "summary.json"]
    rows: List[Dict[str, Any]] = []
    jsonl = run_dir / "manifest.jsonl"
    if jsonl.exists():
        for line in jsonl.read_text().splitlines():
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return RunManifest(path=run_dir, summary=summary, rows=rows)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _span_table(summary: dict, wall: float, top: int) -> str:
    spans = summary.get("telemetry", {}).get("spans", {})
    if not spans:
        stage_seconds = summary.get("cache", {}).get("stage_seconds", {})
        if not stage_seconds:
            return ""
        rows = sorted(stage_seconds.items(), key=lambda kv: -kv[1])[:top]
        counts = summary.get("cache", {}).get("stage_counts", {})
        return _format_table(
            ["stage", "computed", "seconds"],
            [[name, counts.get(name, 0), secs] for name, secs in rows])
    ranked = sorted(spans.items(), key=lambda kv: -kv[1]["seconds"])[:top]
    rows = []
    for path, rec in ranked:
        pct = 100.0 * rec["seconds"] / wall if wall else 0.0
        rows.append([path, rec["count"], rec["seconds"],
                     f"{pct:.1f}%", rec["errors"]])
    return _format_table(["span", "count", "seconds", "of wall", "errors"],
                        rows)


def _policy_table(rows: List[dict]) -> str:
    by_policy: Dict[str, Dict[str, float]] = {}
    for row in rows:
        btb = row.get("btb")
        if btb is None:
            continue
        agg = by_policy.setdefault(row["policy"], {
            "jobs": 0, "seconds": 0.0, "accesses": 0, "misses": 0,
            "evictions": 0, "bypasses": 0})
        agg["jobs"] += 1
        agg["seconds"] += row["seconds"]
        for key in ("accesses", "misses", "evictions", "bypasses"):
            agg[key] += btb.get(key, 0)
    if not by_policy:
        return ""
    table_rows = []
    for policy in sorted(by_policy):
        agg = by_policy[policy]
        accesses = agg["accesses"]
        table_rows.append([
            policy, int(agg["jobs"]), int(accesses), int(agg["misses"]),
            f"{agg['misses'] / accesses:.4f}" if accesses else "-",
            f"{1000.0 * agg['evictions'] / accesses:.1f}" if accesses
            else "-",
            f"{1000.0 * agg['bypasses'] / accesses:.1f}" if accesses
            else "-",
            agg["seconds"]])
    return _format_table(
        ["policy", "jobs", "accesses", "misses", "miss_rate",
         "evict/1k", "bypass/1k", "seconds"], table_rows)


def render_report(manifest: RunManifest, top: int = 12) -> str:
    """A multi-section terminal report for one run manifest."""
    s = manifest.summary
    wall = s.get("wall_seconds", 0.0)
    lines = [
        f"== run {manifest.run_id} ({s.get('created', '?')}) ==",
        f"{s.get('jobs', 0)} jobs ({s.get('cached_jobs', 0)} cached) in "
        f"{wall:.2f}s on {s.get('workers', 1)} worker(s); "
        f"utilization {100.0 * s.get('worker_utilization', 0.0):.0f}%",
    ]
    if s.get("partial"):
        missing = ", ".join(s.get("missing", [])) or "summary.json"
        lines.append(
            f"PARTIAL RUN — reconstructed from the journal; missing: "
            f"{missing}.  Figures below cover only what was journaled "
            f"before the run stopped (or up to now, if still running).")
    status = s.get("status")
    if status:
        line = f"status: {status}"
        if s.get("resumed_from"):
            line += f" (resumed from {s['resumed_from']})"
        states = s.get("job_states") or {}
        if states:
            line += " — " + ", ".join(f"{count} {name}" for name, count
                                      in sorted(states.items()))
        lines.append(line)
    cache = s.get("cache") or {}
    if cache:
        total = cache.get("hits", 0) + cache.get("misses", 0)
        rate = cache.get("hits", 0) / total if total else 0.0
        lines.append(
            f"artifact cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses ({100.0 * rate:.0f}% hit "
            f"rate), {cache.get('corrupt', 0)} corrupt "
            f"({cache.get('digest_failures', 0)} digest failures, "
            f"{cache.get('quarantined', 0)} quarantined, "
            f"{cache.get('quota_rejected', 0)} quota-rejected), "
            f"{cache.get('bytes_read', 0) / 1e6:.1f} MB read, "
            f"{cache.get('bytes_written', 0) / 1e6:.1f} MB written")
    namespaces = s.get("namespaces") or []
    if namespaces:
        lines.extend(["", "-- tenant namespaces --"])
        for entry in namespaces:
            ns_cache = entry.get("cache") or {}
            quota = entry.get("quota_bytes")
            quota_text = (f"{quota / 1e6:.1f} MB quota" if quota
                          else "no quota")
            lines.append(
                f"  {entry.get('namespace', '?')}: "
                f"{entry.get('usage_bytes', 0) / 1e6:.1f} MB used "
                f"({quota_text}), {ns_cache.get('hits', 0)} hits / "
                f"{ns_cache.get('misses', 0)} misses, "
                f"{ns_cache.get('quarantined', 0)} quarantined, "
                f"{ns_cache.get('quota_rejected', 0)} quota-rejected")
    spans = _span_table(s, wall, top)
    if spans:
        lines.extend(["", "-- slowest stages --", spans])
    policies = _policy_table(manifest.rows)
    if policies:
        lines.extend(["", "-- per-policy event rates --", policies])
    exceptions = s.get("exceptions") or []
    if exceptions:
        lines.extend(["", "-- exceptions --"])
        lines.extend(f"  {exc.get('where', '?')}: {exc.get('error', '?')}"
                     for exc in exceptions)
    return "\n".join(lines)
