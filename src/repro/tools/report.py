"""Render experiment run manifests as terminal tables.

Every :class:`~repro.harness.engine.ExperimentEngine` run with a cache
directory writes a manifest under ``<cache root>/runs/<run id>/``; this
tool renders one back — artifact-cache effectiveness, the runtime
switches with BTB-replay and simulate fast-path coverage, slowest
spans, per-policy BTB event rates, and any exceptions::

    python -m repro.tools.report                      # latest run
    python -m repro.tools.report ~/.cache/repro-thermometer
    python -m repro.tools.report path/to/runs/20260806-.../summary.json
    python -m repro.tools.report --jsonl               # raw job rows
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from repro import runtime
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.telemetry.manifest import read_run_manifest, render_report

__all__ = ["main"]

# Stable name: __name__ is "__main__" under python -m, which
# would escape the repro logger tree.
log = logging.getLogger("repro.tools.report")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.report",
        description="Render an experiment run manifest (written by the "
                    "parallel engine) as terminal tables.")
    parser.add_argument("path", nargs="?", default=None,
                        help="run directory, summary.json, or cache root "
                             "(latest run wins; default: REPRO_CACHE_DIR "
                             "or ~/.cache/repro-thermometer)")
    parser.add_argument("--top", type=int, default=12,
                        help="rows in the slowest-spans table")
    parser.add_argument("--jsonl", action="store_true",
                        help="dump the raw per-job manifest rows instead "
                             "of tables")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    setup_cli_logging(args)

    path = args.path
    if path is None:
        path = str(runtime.current().store_root)
    try:
        manifest = read_run_manifest(path)
    except FileNotFoundError as exc:
        log.error("%s", exc)
        return 2
    if args.jsonl:
        for row in manifest.rows:
            emit(json.dumps(row, sort_keys=True))
        return 0
    emit(render_report(manifest, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
