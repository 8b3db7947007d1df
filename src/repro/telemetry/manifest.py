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
``resumed``), a job-state histogram, any exceptions, and the
``runtime`` switches the run was made under.
``python -m repro.tools.report`` renders either back into terminal
tables.

``jobs.json`` and ``events.jsonl`` are written *incrementally* by
:class:`RunJournal` while the run is in flight (flushed per event), so a
sweep killed mid-run still leaves a forensic record of which job was in
which state — and ``events.jsonl`` is how the fault-injection tests
count attempts per job (see ``docs/FAULTS.md``).  A run that computed
nothing gets no directory: :func:`log_run` appends it as one line to
``runs/hits.jsonl`` (the **run log**), where every reader here finds it
by its address, ``runs/<run id>``.

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
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.telemetry.metrics import merge_snapshots


def _format_table(columns, rows) -> str:
    # Imported lazily: repro.harness transitively imports repro.telemetry
    # (for spans), so a module-level import here would be circular.
    from repro.harness.reporting import format_table
    return format_table(columns, rows)

__all__ = ["RunJournal", "RunManifest", "MANIFEST_VERSION", "RUN_LOG",
           "append_spans", "canonical_rows", "fast_path_coverage",
           "job_row", "log_run", "new_run_id", "read_events",
           "read_jobs_index", "read_run_manifest", "read_spans",
           "render_report", "resolve_run_dir", "run_history",
           "runtime_lines", "synthesize_summary", "write_run_manifest"]

#: 2: summary gained ``status`` / ``resumed_from`` / ``job_states``;
#: rows gained ``state`` / ``attempt`` / ``error``; run directories
#: gained the incremental ``jobs.json`` + ``events.jsonl`` journal.
MANIFEST_VERSION = 2

#: The run log, beside the run directories (see :func:`log_run`).
RUN_LOG = "hits.jsonl"

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
                       namespaces: Optional[List[dict]] = None,
                       runtime: Optional[Dict[str, Any]] = None) -> Path:
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
    per-namespace cache stats) for multi-tenant stores; ``runtime`` is
    the run's runtime config as a dict (see :mod:`repro.runtime`; older
    runs have no ``runtime`` block, so readers must cope).
    """
    run_id = run_id or new_run_id()
    run_dir = Path(directory).expanduser() / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    rows = [job_row(result) for result in results]
    with open(run_dir / "manifest.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    summary = _summary(rows, wall_seconds, workers, run_id, cache_stats,
                       telemetry, exceptions, status, resumed_from,
                       job_states, namespaces, runtime)
    tmp = run_dir / "summary.json.tmp"
    tmp.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, run_dir / "summary.json")
    return run_dir


def _summary(rows, wall_seconds, workers, run_id, cache_stats=None,
             telemetry=None, exceptions=None, status="completed",
             resumed_from=None, job_states=None, namespaces=None,
             runtime=None) -> Dict[str, Any]:
    """``summary.json`` over ``rows``; also a run-log line's body."""
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
    if runtime is not None:
        summary["runtime"] = dict(runtime)
    return summary


def log_run(directory: Union[str, Path], results: Sequence,
            keys: Sequence[str], run_id: str,
            append: Callable[[Path, bytes], None], *,
            spans: Sequence[Dict[str, Any]] = (),
            trace_id: Optional[str] = None, **summary_fields) -> Path:
    """Append a run that computed nothing to ``directory/hits.jsonl``:
    one line holding its summary (``summary_fields`` as for
    :func:`write_run_manifest`), ``kind``, append time ``t``,
    ``trace_id``, ``spans`` and ``rows`` (each with ``index`` and store
    ``key``).  Returns its address, ``directory/<run_id>``."""
    directory = Path(directory).expanduser()
    rows = [dict(job_row(result), key=key, index=i)
            for i, (result, key) in enumerate(zip(results, keys))]
    record = _summary(rows, run_id=run_id, **summary_fields)
    record.update(kind="run", t=round(time.time(), 6), trace_id=trace_id,
                  spans=list(spans), rows=rows)
    directory.mkdir(parents=True, exist_ok=True)
    append(directory / RUN_LOG,
           (json.dumps(record, separators=(",", ":")) + "\n").encode())
    return directory / run_id


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


def _jsonl_objects(path: Path, needle: Optional[str] = None
                   ) -> List[Dict[str, Any]]:
    """Every JSON-object line of ``path`` containing ``needle`` (a cheap
    filter before parsing); torn, garbage and non-object lines skipped."""
    try:
        raw = path.read_bytes()
    except OSError:
        return []
    marker = needle.encode() if needle is not None else None
    rows = []
    for line in raw.splitlines():
        if marker is not None and marker not in line:
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError):
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def _is_name(value: Any) -> bool:
    """True for a string usable as one path component (a run id)."""
    return (isinstance(value, str) and value not in ("", ".", "..")
            and "/" not in value and "\0" not in value)


def _logged_run(run_dir: Path) -> Optional[Dict[str, Any]]:
    """The run-log line of the run ``run_dir`` names, with the span
    lines appended for it since joined onto its ``spans``; None when
    ``run_dir`` is a run directory or the log has no such run."""
    if _run_dir_mtime(run_dir):
        return None
    run_id = run_dir.name
    run: Optional[Dict[str, Any]] = None
    later = []
    for row in _jsonl_objects(run_dir.parent / RUN_LOG, json.dumps(run_id)):
        if row.get("run_id") != run_id:
            continue
        if row.get("kind") == "run":
            run = row
        elif row.get("kind") == "span":
            later.append(row)
    if run is None:
        return None
    for name in ("rows", "spans"):
        items = run[name] if isinstance(run.get(name), list) else []
        run[name] = [item for item in items if isinstance(item, dict)]
    run["spans"] += later
    return run


#: Files any of which mark a directory as a run directory — an
#: interrupted run may have journal files but no ``summary.json`` yet.
_RUN_DIR_MARKERS = ("summary.json", "events.jsonl", "jobs.json",
                    "manifest.jsonl")


def _run_dir_mtime(run_dir: Path) -> float:
    stamps = []
    for name in _RUN_DIR_MARKERS:
        try:
            stamps.append((run_dir / name).stat().st_mtime)
        except (OSError, ValueError):
            continue
    return max(stamps, default=0.0)


def run_history(runs_dir: Union[str, Path]) -> List[Path]:
    """Every run under ``runs_dir``, oldest first: directories by their
    newest marker file, logged runs by ``t``.  The last is "latest" for
    resume, ``report``, ``top``, ``trace_export`` and ``status``."""
    runs_dir = Path(runs_dir).expanduser()
    dated: List[Tuple[float, str]] = [
        (_run_dir_mtime(child), child.name)
        for child in (runs_dir.iterdir() if runs_dir.is_dir() else ())]
    dated = [entry for entry in dated if entry[0]]
    for row in _jsonl_objects(runs_dir / RUN_LOG):
        stamp = row.get("t")
        if (row.get("kind") == "run" and _is_name(row.get("run_id"))
                and isinstance(stamp, (int, float))):
            dated.append((float(stamp), row["run_id"]))
    dated.sort()
    return [runs_dir / name for _, name in dated]


def read_events(run_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """The state-transition journal of a run (empty if never written).

    Trace-span rows (``"kind": "span"``) share the file but are not
    state transitions; read those with :func:`read_spans`."""
    return [row for row in
            _jsonl_objects(Path(run_dir).expanduser() / "events.jsonl")
            if row.get("kind", "state") == "state"]


def read_spans(run_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """The trace spans journaled for a run (empty when tracing was off),
    in write order."""
    run_dir = Path(run_dir).expanduser()
    logged = _logged_run(run_dir)
    if logged is not None:
        return logged["spans"]
    return [row for row in _jsonl_objects(run_dir / "events.jsonl")
            if row.get("kind") == "span"]


def append_spans(run_dir: Union[str, Path],
                 records: Sequence[Dict[str, Any]],
                 append: Callable[[Path, bytes], None]) -> None:
    """Append finished span records to a run's ``events.jsonl`` or, for
    a logged run, to the run log as lines carrying its ``run_id``.

    The engine journals its own and its workers' spans while the run is
    open; this is for spans that finish *after* the run is written — the
    service's per-request and per-batch spans land here."""
    if not records:
        return
    run_dir = Path(run_dir).expanduser()
    logged = not run_dir.is_dir()
    path = run_dir.parent / RUN_LOG if logged else run_dir / "events.jsonl"
    extra = {"run_id": run_dir.name} if logged else {}
    data = "".join(json.dumps({"kind": "span", **record, **extra},
                              sort_keys=True) + "\n"
                   for record in records)
    append(path, data.encode())


def read_jobs_index(run_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """The sweep's job index (empty if never written); a logged run's
    rows carry its fields."""
    path = Path(run_dir).expanduser() / "jobs.json"
    if not path.exists():
        logged = _logged_run(path.parent)
        return logged["rows"] if logged is not None else []
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


def resolve_run_dir(path: Union[str, Path]) -> Path:
    """Accept a run dir or a logged run's address, a ``summary.json``
    path, or a cache root whose ``runs/`` subdirectory holds runs (the
    latest wins).  A directory with only journal files (an in-flight or
    interrupted run) counts."""
    path = Path(path).expanduser()
    if path.is_file():
        return path.parent
    if _run_dir_mtime(path) or _logged_run(path) is not None:
        return path
    runs = path / "runs" if (path / "runs").is_dir() else path
    history = run_history(runs)
    if not history:
        raise FileNotFoundError(f"no run manifest under {path}")
    return history[-1]


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
    logged run's address, or a cache root — the most recent run is
    picked).  A logged run's summary is its run-log line without the
    rows, spans, ``kind`` and ``t``.

    An in-progress or interrupted run — no ``summary.json``, or a torn
    one — degrades to a journal-reconstructed summary (see
    :func:`synthesize_summary`) instead of raising, so operators can
    inspect a run that is still in flight or died mid-write.
    """
    run_dir = resolve_run_dir(Path(path).expanduser())
    logged = _logged_run(run_dir)
    if logged is not None:
        return RunManifest(path=run_dir, rows=logged["rows"], summary={
            k: v for k, v in logged.items()
            if k not in ("kind", "t", "spans", "rows")})
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
    return RunManifest(path=run_dir, summary=summary,
                       rows=_jsonl_objects(run_dir / "manifest.jsonl"))


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


def fast_path_coverage(summary: dict, family: str
                       ) -> Optional[Tuple[float, int, Dict[str, int]]]:
    """``(share of dispatches on the fast path, dispatches, fallback
    counts by reason)`` for ``family`` (``"btb"`` replays or ``"sim"``
    simulations), from the run's ``<family>/fast_path`` and
    ``<family>/fallback/<reason>`` counters; None when nothing was
    dispatched."""
    counters = (summary.get("telemetry") or {}).get("counters") or {}
    prefix = f"{family}/fallback/"
    fallbacks = {name[len(prefix):]: int(n)
                 for name, n in sorted(counters.items())
                 if name.startswith(prefix)}
    fast = int(counters.get(f"{family}/fast_path", 0))
    total = fast + sum(fallbacks.values())
    if not total:
        return None
    return fast / total, total, fallbacks


def _switch_text(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, dict):  # a fault plan
        faults = len(value.get("faults") or ())
        seed = value.get("seed")
        return f"{faults} fault(s)" + (f" seed {seed}"
                                       if seed is not None else "")
    return str(value)


def runtime_lines(summary: dict) -> List[str]:
    """The run's runtime switches, its BTB-replay and simulate fast-path
    coverage, its GC collections and its peak memory, one line each
    (``report`` and ``top``)."""
    switches = summary.get("runtime")
    collections = peak_rss = None
    if isinstance(switches, dict):
        switches = dict(switches)
        collections = switches.pop("gc_collections", None)
        peak_rss = switches.pop("peak_rss_mb", None)
        lines = ["switches: " + ", ".join(
            f"{name}={_switch_text(value)}"
            for name, value in switches.items())]
    else:
        lines = ["switches: not recorded (run predates the runtime block)"]
    for family, label in (("btb", "btb replay"), ("sim", "simulate")):
        coverage = fast_path_coverage(summary, family)
        if coverage is None:
            lines.append(f"{label} fast path: no dispatches")
            continue
        share, total, fallbacks = coverage
        reasons = ", ".join(f"{reason}={n}"
                            for reason, n in fallbacks.items()) or "none"
        lines.append(f"{label} fast path: {share:.2f} of {total} "
                     f"(fallbacks: {reasons})")
    if isinstance(collections, dict):
        lines.append("gc collections: " + ", ".join(
            f"{generation}={n}" for generation, n in collections.items())
            + f" ({sum(collections.values())} total)")
    else:
        lines.append("gc collections: not recorded")
    lines.append(f"peak rss: {peak_rss} MB" if peak_rss is not None
                 else "peak rss: not recorded")
    return lines


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
    lines.extend(["", "-- runtime and fast-path coverage --"])
    lines.extend("  " + line for line in runtime_lines(s))
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
