"""Export a run's journaled trace spans as Chrome trace-event JSON.

Every traced run journals its spans (client request → service batch →
engine run → pool-worker job attempts, store I/O, kernel replays) into
``events.jsonl`` next to the job-state rows; this tool renders them in
the Chrome trace-event format, so the whole causal tree opens in
Perfetto (https://ui.perfetto.dev), ``chrome://tracing``, or anything
else that speaks the format::

    python -m repro.tools.trace_export                    # latest run
    python -m repro.tools.trace_export path/to/runs/20260807-...
    python -m repro.tools.trace_export -o trace.json

Each process that ran spans becomes one ``pid`` track (the service and
every pool worker side by side), and each span carries its ids and args
(job key, tenant, cache hit/miss, ...) so slices can be traced back to
the exact artifact they produced.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import runtime
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.telemetry.manifest import read_spans, resolve_run_dir

__all__ = ["main", "spans_to_chrome_trace"]

# Stable name: __name__ is "__main__" under python -m, which
# would escape the repro logger tree.
log = logging.getLogger("repro.tools.trace_export")


def spans_to_chrome_trace(spans: Sequence[Dict[str, Any]]
                          ) -> Dict[str, Any]:
    """Span records (see :func:`repro.telemetry.tracing.span_record`)
    as one Chrome trace-event document.

    Spans become complete events (``"ph": "X"``, microsecond ``ts`` /
    ``dur``) on their recorded pid/tid track; ``trace_id`` / ``span_id``
    / ``parent_id`` ride in ``args`` next to the span's own arguments,
    so the parent links survive the export and a reader can rebuild the
    tree (the pinned linkage test does exactly that).
    """
    events: List[Dict[str, Any]] = []
    pids = set()
    for span in spans:
        args = dict(span.get("args") or {})
        args["trace_id"] = span.get("trace_id")
        args["span_id"] = span.get("span_id")
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        if span.get("error"):
            args["error"] = True
        pid = int(span.get("pid") or 0)
        pids.add(pid)
        events.append({
            "ph": "X",
            "name": str(span.get("name", "?")),
            "cat": "repro",
            "ts": round(float(span.get("t", 0.0)) * 1e6, 3),
            "dur": round(float(span.get("dur", 0.0)) * 1e6, 3),
            "pid": pid,
            "tid": int(span.get("tid") or 0),
            "args": args,
        })
    # Name the process tracks so Perfetto shows roles, not bare pids.
    for pid in sorted(pids):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0,
                       "args": {"name": f"repro pid {pid}"}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace_export",
        description="Export a run's journaled trace spans as Chrome "
                    "trace-event / Perfetto JSON.")
    parser.add_argument("path", nargs="?", default=None,
                        help="run directory, summary.json, or cache root "
                             "(latest run wins; default: REPRO_CACHE_DIR "
                             "or ~/.cache/repro-thermometer)")
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON here instead of stdout")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    setup_cli_logging(args)

    path = args.path
    if path is None:
        path = str(runtime.current().store_root)
    try:
        run_dir = resolve_run_dir(path)
    except FileNotFoundError as exc:
        log.error("%s", exc)
        return 2
    spans = read_spans(run_dir)
    if not spans:
        log.error("no trace spans under %s (was the run made with a "
                  "disabled telemetry registry?)", run_dir)
        return 2
    document = spans_to_chrome_trace(spans)
    text = json.dumps(document, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        log.info("wrote %d span(s) from %s to %s", len(spans), run_dir,
                 args.output)
    else:
        emit(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
