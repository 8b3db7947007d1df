"""A terminal dashboard for runs and the simulation service.

``top`` for the repro stack: point it at a **running service** and it
polls the ``status`` and ``metrics`` ops (per-tenant request rates and
latency quantiles, open batches, cache effectiveness, recent runs), or
point it at a **run directory / cache root** and it tails the run's
journal (job-state counts, cache stats, runtime switches and fast-path
coverage, slowest spans) — either way the screen refreshes in place
with plain ANSI, no curses::

    python -m repro.tools.top --host 127.0.0.1 --port 7979   # service
    python -m repro.tools.top                                # latest run
    python -m repro.tools.top path/to/runs/20260807-... --once

``--once`` renders a single frame and exits (what the tests and CI
drive); ``--interval`` sets the poll cadence; ``--no-clear`` appends
frames instead of redrawing (useful under ``watch`` or in logs).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import runtime
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.telemetry.manifest import (read_run_manifest, read_spans,
                                      resolve_run_dir, runtime_lines)
from repro.telemetry.metrics import Histogram

__all__ = ["main", "poll_service", "render_run_frame",
           "render_service_frame"]

# Stable name: __name__ is "__main__" under python -m, which
# would escape the repro logger tree.
log = logging.getLogger("repro.tools.top")

#: ANSI "clear screen + home" prefix used between frames.
CLEAR = "\x1b[2J\x1b[H"


def _fmt_bytes(n: Optional[float]) -> str:
    if n is None:
        return "-"
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (f"{value:.0f}{unit}" if unit == "B"
                    else f"{value:.1f}{unit}")
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - unreachable


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def _tenant_histogram(telemetry: Dict[str, Any], name: str,
                      tenant: str) -> Optional[Histogram]:
    payload = (telemetry.get("histograms") or {}).get(
        '%s{tenant="%s"}' % (name, tenant))
    if not payload:
        return None
    try:
        return Histogram.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None


def _hit_rate(cache: Dict[str, Any]) -> str:
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    total = hits + misses
    if total <= 0:
        return "-"
    return f"{100.0 * hits / total:.0f}%"


# ----------------------------------------------------------------------
# Service mode
# ----------------------------------------------------------------------

async def poll_service(host: str, port: int
                       ) -> Tuple[Dict[str, Any], str]:
    """One poll: the service's status document and its Prometheus
    metrics text, over a single short-lived connection."""
    from repro.service.client import ServiceClient
    client = await ServiceClient.connect(host, port)
    try:
        status = (await client.request({"op": "status"}))[-1]
        metrics = (await client.request({"op": "metrics"}))[-1]
    finally:
        await client.close()
    return status, str(metrics.get("text", ""))


def render_service_frame(status: Dict[str, Any], metrics_text: str,
                         previous: Optional[Dict[str, Any]] = None,
                         interval: float = 2.0) -> str:
    """One dashboard frame from a service's status + metrics poll.

    ``previous`` is the prior poll's status (for request *rates*);
    pure — all I/O stays in the caller, so tests feed canned documents.
    """
    telemetry = status.get("telemetry") or {}
    counters = telemetry.get("counters") or {}
    lines = [
        f"repro service  requests={status.get('requests', 0)}  "
        f"coalesced={status.get('coalesced_requests', 0)}  "
        f"tenants={len(status.get('tenants') or {})}  "
        f"metrics_samples={sum(1 for l in metrics_text.splitlines() if l and not l.startswith('#'))}",
        "",
    ]
    rows = []
    prev_counters = ((previous or {}).get("telemetry") or {}) \
        .get("counters") or {}
    for tenant, summary in sorted((status.get("tenants") or {}).items()):
        key = 'service/requests{tenant="%s"}' % tenant
        total = counters.get(key, 0)
        rate = ((total - prev_counters.get(key, 0)) / interval
                if previous is not None and interval > 0 else 0.0)
        hist = _tenant_histogram(telemetry, "service/request_seconds",
                                 tenant)
        p50 = _fmt_seconds(hist.quantile(0.5)) if hist else "-"
        p95 = _fmt_seconds(hist.quantile(0.95)) if hist else "-"
        rows.append([tenant, str(int(total)), f"{rate:.1f}/s",
                     p50, p95,
                     _hit_rate(summary.get("cache") or {}),
                     _fmt_bytes(summary.get("usage_bytes")),
                     _fmt_bytes(summary.get("quota_bytes"))])
    lines += _table(["tenant", "reqs", "rate", "p50", "p95",
                     "cache", "usage", "quota"], rows)
    runs = status.get("runs") or []
    if runs:
        lines += ["", "recent runs:"]
        lines += _table(
            ["tenant", "run", "status", "jobs", "wall"],
            [[str(r.get("tenant", "-")), str(r.get("run_id", "-")),
              str(r.get("status", "-")), str(r.get("jobs", "-")),
              (f"{r.get('wall_seconds'):.2f}s"
               if isinstance(r.get("wall_seconds"), (int, float))
               else "-")]
             for r in runs[-8:]])
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Run-directory mode
# ----------------------------------------------------------------------

def render_run_frame(path: Any, top: int = 8) -> str:
    """One dashboard frame for a run directory (journal-tolerant: an
    in-flight or interrupted run renders from its journal)."""
    run_dir = resolve_run_dir(path)
    manifest = read_run_manifest(run_dir)
    summary = manifest.summary
    states = summary.get("job_states") or {}
    lines = [
        f"run {summary.get('run_id', run_dir.name)}  "
        f"status={summary.get('status', '?')}"
        + ("  [partial]" if summary.get("partial") else "")
        + f"  jobs={summary.get('jobs', '?')}"
        + (f"  wall={summary.get('wall_seconds'):.2f}s"
           if isinstance(summary.get("wall_seconds"), (int, float))
           else ""),
        "states: " + (", ".join(f"{name}={count}" for name, count
                                in sorted(states.items())) or "-"),
    ]
    cache = summary.get("cache") or {}
    if cache:
        lines.append(
            f"cache: hit-rate={_hit_rate(cache)}  "
            f"read={_fmt_bytes(cache.get('bytes_read'))}  "
            f"written={_fmt_bytes(cache.get('bytes_written'))}")
    lines += runtime_lines(summary)
    spans = read_spans(run_dir)
    if spans:
        lines += ["", f"slowest spans (of {len(spans)}):"]
        slowest = sorted(spans, key=lambda s: s.get("dur", 0.0),
                         reverse=True)[:top]
        lines += _table(
            ["span", "dur", "pid", "detail"],
            [[str(s.get("name", "?")),
              _fmt_seconds(float(s.get("dur", 0.0))),
              str(s.get("pid", "-")),
              " ".join(f"{k}={v}" for k, v in sorted(
                  (s.get("args") or {}).items())
                  if k in ("app", "policy", "mode", "tenant",
                           "cached", "hit"))]
             for s in slowest])
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.top",
        description="Live terminal dashboard: poll a running simulation "
                    "service, or tail a run directory's journal.")
    parser.add_argument("path", nargs="?", default=None,
                        help="run directory or cache root (omit with "
                             "--host/--port for service mode; default: "
                             "REPRO_CACHE_DIR or "
                             "~/.cache/repro-thermometer)")
    parser.add_argument("--host", default=None,
                        help="poll a service at this host (service mode)")
    parser.add_argument("--port", type=int, default=None,
                        help="service port (service mode)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between frames (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit")
    parser.add_argument("--no-clear", action="store_true",
                        help="append frames instead of redrawing")
    parser.add_argument("--top", type=int, default=8,
                        help="rows in the slowest-spans table")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    setup_cli_logging(args)

    service_mode = args.host is not None or args.port is not None
    if service_mode and args.port is None:
        log.error("service mode needs --port")
        return 2
    host = args.host or "127.0.0.1"

    previous: Optional[Dict[str, Any]] = None
    while True:
        try:
            if service_mode:
                status, metrics_text = asyncio.run(
                    poll_service(host, args.port))
                frame = render_service_frame(status, metrics_text,
                                             previous, args.interval)
                previous = status
            else:
                path = args.path
                if path is None:
                    path = str(runtime.current().store_root)
                frame = render_run_frame(path, top=args.top)
        except FileNotFoundError as exc:
            log.error("%s", exc)
            return 2
        except (ConnectionError, OSError) as exc:
            log.error("service unreachable: %s", exc)
            return 2
        prefix = "" if (args.no_clear or args.once) else CLEAR
        emit(prefix + frame)
        if args.once:
            return 0
        try:
            time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


if __name__ == "__main__":
    sys.exit(main())
