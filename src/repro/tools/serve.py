"""Run the asyncio simulation service (the repo's network front door).

Serve a multi-tenant artifact store on a local socket::

    python -m repro.tools.serve --cache-dir /tmp/repro-cache --port 7979
    python -m repro.tools.serve --cache-dir /tmp/repro-cache \\
        --quota alice=268435456 --quota bob=268435456

Clients speak one JSON object per line (see ``docs/SERVICE.md`` and
:mod:`repro.service.protocol`); concurrent requests for the same
tenant coalesce into one engine run, with identical jobs deduplicated;
misses run in-process, one at a time.

``--smoke`` runs a self-test instead of serving: it binds an ephemeral
port, submits two concurrent coalescible sweep requests plus one under
a different tenant, and asserts that the coalesced pair shared one
deduplicated run while the tenants' namespaces stayed isolated — the CI
service-smoke job runs exactly this.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
from pathlib import Path
from typing import Dict, List, Optional

from repro.service.client import request_once
from repro.service.server import SimulationService, serve
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.telemetry.manifest import read_run_manifest, read_spans

__all__ = ["main"]

# Stable name: __name__ is "__main__" under python -m, which
# would escape the repro logger tree.
log = logging.getLogger("repro.tools.serve")


def _parse_quotas(entries: List[str]) -> Dict[str, int]:
    quotas: Dict[str, int] = {}
    for entry in entries:
        name, _, raw = entry.partition("=")
        if not name or not raw:
            raise ValueError(f"--quota wants TENANT=BYTES, got {entry!r}")
        quotas[name] = int(raw)
    return quotas


async def _smoke(cache_dir: str) -> int:
    """Self-test: coalescing + tenant isolation over a real socket."""
    service = SimulationService(cache_dir, coalesce_window=0.25)
    server = await service.start("127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    emit(f"smoke: service on {host}:{port}")
    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        emit(f"smoke: {'ok' if ok else 'FAIL'} - {what}")
        if not ok:
            failures.append(what)

    try:
        sweep = {"op": "sweep", "tenant": "alice", "apps": ["tomcat"],
                 "policies": ["lru", "srrip"], "mode": "misses",
                 "length": 4000}
        events_a, events_b = await asyncio.gather(
            request_once(host, port, sweep),
            request_once(host, port, sweep))
        done_a, done_b = events_a[-1], events_b[-1]
        check(done_a.get("ok") is True and done_b.get("ok") is True,
              "both coalescible requests completed")
        check(done_a.get("coalesced") is True
              and done_b.get("coalesced") is True,
              "requests were coalesced into one batch")
        check(done_a.get("run_id") == done_b.get("run_id"),
              "coalesced requests shared one engine run")
        ran = (read_run_manifest(done_a["manifest"]).summary["runtime"]
               if done_a.get("manifest") else {})
        check((ran.get("executor"), ran.get("jobs")) == ("serial", 1),
              "coalesced run recorded executor serial, jobs 1")
        check(done_a.get("batch_jobs") == 2,
              f"identical jobs deduplicated to 2 batch jobs "
              f"(got {done_a.get('batch_jobs')})")
        results_a = [e for e in events_a if e.get("event") == "result"]
        check(len(results_a) == 2,
              f"both results streamed back (got {len(results_a)})")

        other = dict(sweep, tenant="bob", policies=["lru"])
        events_c = await request_once(host, port, other)
        done_c = events_c[-1]
        check(done_c.get("ok") is True, "distinct-tenant request "
                                        "completed")
        check(done_c.get("run_id") != done_a.get("run_id"),
              "distinct tenant ran in its own engine run")
        root = Path(cache_dir)
        check((root / "tenants" / "alice" / "misses").is_dir()
              and (root / "tenants" / "bob" / "misses").is_dir(),
              "tenants have separate artifact roots")

        status = (await request_once(host, port, {"op": "status"}))[-1]
        tenants = status.get("tenants", {})
        check(set(tenants) >= {"alice", "bob"},
              f"status reports both namespaces (got {sorted(tenants)})")
        alice_cache = tenants.get("alice", {}).get("cache", {})
        bob_cache = tenants.get("bob", {}).get("cache", {})
        check(alice_cache.get("misses", 0) > 0
              and bob_cache.get("misses", 0) > 0
              and alice_cache != bob_cache,
              "per-namespace cache stats are tracked independently")

        metrics = (await request_once(host, port, {"op": "metrics"}))[-1]
        text = metrics.get("text", "")
        check(metrics.get("event") == "metrics" and bool(text),
              "metrics op returns a text exposition document")
        check("repro_service_request_seconds_bucket" in text,
              "metrics expose the per-tenant request-latency histogram")
        check('tenant="alice"' in text and 'tenant="bob"' in text,
              "metrics carry per-tenant labels for both tenants")
        check("repro_service_requests_total" in text,
              "metrics expose the per-tenant request counter")

        if done_a.get("manifest"):
            emit(f"smoke: run manifest at {done_a['manifest']}")
            from repro.telemetry.metrics import get_registry
            if get_registry().enabled:
                spans = read_spans(done_a["manifest"])
                check(any(s.get("name") == "engine.job" for s in spans)
                      and any(s.get("name") == "service.request"
                              for s in spans),
                      f"trace spans journaled with the run "
                      f"({len(spans)} span(s))")
    finally:
        server.close()
        await server.wait_closed()
    emit(f"smoke: {'PASS' if not failures else 'FAIL'} "
         f"({len(failures)} failure(s))")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.serve",
        description="Serve simulate/profile/sweep requests over "
                    "line-JSON with request coalescing and "
                    "multi-tenant artifact stores.")
    parser.add_argument("--cache-dir", required=True,
                        help="root of the multi-tenant artifact store")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks a free port (announced on stdout)")
    parser.add_argument("--window", type=float, default=0.05,
                        help="request-coalescing window in seconds")
    parser.add_argument("--quota", action="append", default=[],
                        metavar="TENANT=BYTES",
                        help="per-tenant store quota (repeatable)")
    parser.add_argument("--max-retries", type=int, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="run the coalescing/tenancy self-test and "
                             "exit instead of serving")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    setup_cli_logging(args)
    try:
        quotas = _parse_quotas(args.quota)
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    if args.smoke:
        return asyncio.run(_smoke(args.cache_dir))
    try:
        asyncio.run(serve(args.cache_dir, host=args.host, port=args.port,
                          coalesce_window=args.window, quotas=quotas,
                          max_retries=args.max_retries))
    except KeyboardInterrupt:
        emit("interrupted; shutting down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
