"""Replay a trace under a replacement policy (hardware side, step 4).

Single-trace mode replays one trace file::

    python -m repro.tools.simulate t.btrc.gz --policy srrip
    python -m repro.tools.simulate t.btrc --policy thermometer \\
        --hints hints.json --baseline lru
    python -m repro.tools.simulate t.btrc --policy opt --ipc

Sweep mode fans an (apps × policies) matrix out through the parallel
experiment engine, with every artifact cached in the persistent store
(so a re-run is near-instant)::

    python -m repro.tools.simulate --apps cassandra,drupal,kafka,tomcat \\
        --policies lru,srrip,thermometer --jobs 4 --ipc
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from typing import List, Optional

from repro import runtime
from repro.btb.btb import BTB, run_btb
from repro.btb.config import BTBConfig
from repro.btb.replacement.registry import make_policy, policy_names
from repro.core.hints import HintMap
from repro.frontend.simulator import simulate as run_timing
from repro.harness.reporting import format_table
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.telemetry.manifest import span_table
from repro.trace.formats import read_trace
from repro.trace.stream import access_stream_for
from repro.workloads import app_names

__all__ = ["main"]

# Stable name: __name__ is "__main__" under python -m, which
# would escape the repro logger tree.
log = logging.getLogger("repro.tools.simulate")


def _build_policy(name: str, trace, hints_path: Optional[str],
                  config: BTBConfig):
    if name == "opt":
        # The shared stream is memoized per (trace, config): the policy,
        # the miss replay, and the optional timing run all reuse it.
        return make_policy("opt", stream=access_stream_for(trace, config))
    if name in ("thermometer", "thermometer-dueling"):
        if not hints_path:
            raise ValueError(f"--policy {name} requires --hints "
                             "(from repro.tools.profile)")
        return make_policy(name, hints=HintMap.from_json(hints_path))
    return make_policy(name)


def _run_sweep(args) -> int:
    """(apps × policies) matrix through the parallel experiment engine."""
    from repro.harness.engine import (ExperimentEngine, ExperimentError,
                                      SimJob)
    apps = [a for a in args.apps.split(",") if a]
    policies = [p for p in args.policies.split(",") if p]
    known_apps = set(app_names())
    known_policies = set(policy_names()) | {"thermometer-7979"}
    for app in apps:
        if app not in known_apps:
            log.error("unknown app %r; available: %s", app,
                      ", ".join(sorted(known_apps)))
            return 2
    for policy in policies:
        if policy not in known_policies:
            log.error("unknown policy %r; available: %s", policy,
                      ", ".join(sorted(known_policies)))
            return 2
    config = BTBConfig(entries=args.entries, ways=args.ways)
    mode = "sim" if args.ipc else "misses"
    jobs = [SimJob(app=app, policy=policy, length=args.length,
                   input_id=args.input_id, mode=mode, btb_config=config)
            for app in apps for policy in policies]
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(runtime.current().store_root)
    if args.resume and not cache_dir:
        log.error("--resume needs the artifact store; drop --no-cache")
        return 2
    engine = ExperimentEngine(cache_dir=cache_dir, jobs=args.jobs,
                              max_retries=args.max_retries,
                              job_timeout=args.job_timeout)
    start = time.perf_counter()
    try:
        results = engine.run(jobs, resume=args.resume)
    except ExperimentError as exc:
        log.error("%s", exc)
        if exc.run_id:
            log.error("completed jobs are cached; continue with "
                      "--resume %s (or --resume latest)", exc.run_id)
        return 1
    except ValueError as exc:
        # e.g. an unknown --resume run id.
        log.error("%s", exc)
        return 2
    elapsed = time.perf_counter() - start

    columns = ["app", "policy", "accesses", "misses", "hit_rate", "cached"]
    if args.ipc:
        columns.insert(5, "ipc")
    rows = []
    for res in results:
        stats = res.value.btb_stats if args.ipc else res.value
        row = [res.job.app, res.job.policy, stats.accesses, stats.misses,
               f"{stats.hit_rate:.4f}"]
        if args.ipc:
            row.append(f"{res.value.ipc:.3f}")
        row.append("hit" if res.cached else "miss")
        rows.append(row)
    emit(format_table(columns, rows))
    emit(f"\n{len(jobs)} jobs in {elapsed:.1f}s "
         f"({args.jobs} worker{'s' if args.jobs != 1 else ''})")
    if cache_dir:
        emit(engine.stats.render())
    spans = span_table(engine.last_run_telemetry, elapsed)
    if spans:
        emit(spans)
    if engine.last_manifest is not None:
        log.info("run manifest: %s (render with "
                 "python -m repro.tools.report %s)",
                 engine.last_manifest, engine.last_manifest)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.simulate",
        description="Replay a branch trace through the BTB (and optionally "
                    "the frontend timing model).")
    parser.add_argument("trace", nargs="?", default=None,
                        help="trace file (.btrc/.btxt[.gz]); omit when "
                             "using --apps sweep mode")
    parser.add_argument("--policy", default="lru",
                        help=f"one of: {', '.join(policy_names())}")
    parser.add_argument("--hints", default=None,
                        help="hint JSON (required for thermometer)")
    parser.add_argument("--entries", type=int, default=8192)
    parser.add_argument("--ways", type=int, default=4)
    parser.add_argument("--baseline", default=None, metavar="POLICY",
                        help="also run POLICY and report relative numbers")
    parser.add_argument("--ipc", action="store_true",
                        help="run the frontend timing model too")
    sweep = parser.add_argument_group(
        "sweep mode (parallel engine + artifact cache)")
    sweep.add_argument("--apps", default=None,
                       help="comma-separated application names; runs an "
                            "(apps x policies) matrix through the engine")
    sweep.add_argument("--policies", default="lru",
                       help="comma-separated policy names for --apps mode")
    sweep.add_argument("--length", type=int, default=None,
                       help="per-app trace length for --apps mode")
    sweep.add_argument("--input-id", type=int, default=0,
                       help="workload input configuration for --apps mode")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes for --apps mode")
    sweep.add_argument("--cache-dir", default=None,
                       help="artifact store location (default: "
                            "REPRO_CACHE_DIR or ~/.cache/repro-thermometer)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the persistent artifact store")
    sweep.add_argument("--resume", default=None, metavar="RUN_ID",
                       help="continue an interrupted sweep: skip jobs "
                            "whose artifacts verify in the store "
                            "('latest' picks the most recent run)")
    sweep.add_argument("--max-retries", type=int, default=None,
                       help="retry a failed/timed-out job up to N times "
                            "with backoff (default: REPRO_MAX_RETRIES "
                            "or 1)")
    sweep.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-attempt wall-clock budget; a job past "
                            "it is timed out and retried (default: "
                            "REPRO_JOB_TIMEOUT or unbounded)")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    setup_cli_logging(args)

    if args.apps:
        if args.trace:
            parser.error("give either a trace file or --apps, not both")
        return _run_sweep(args)
    if not args.trace:
        parser.error("a trace file (or --apps) is required")

    trace = read_trace(args.trace)
    config = BTBConfig(entries=args.entries, ways=args.ways)

    def run(policy_name: str):
        policy = _build_policy(policy_name, trace, args.hints, config)
        stats = run_btb(trace, BTB(config, policy))
        timing = None
        if args.ipc:
            policy = _build_policy(policy_name, trace, args.hints, config)
            timing = run_timing(trace, btb=BTB(config, policy))
        return stats, timing

    try:
        stats, timing = run(args.policy)
    except ValueError as exc:
        parser.error(str(exc))
    emit(f"{args.policy}: accesses={stats.accesses} hits={stats.hits} "
         f"misses={stats.misses} bypasses={stats.bypasses} "
         f"hit_rate={stats.hit_rate:.4f}")
    if timing is not None:
        emit(f"  IPC {timing.ipc:.3f} "
             f"({timing.instructions} instructions, "
             f"{timing.cycles:.0f} cycles)")

    if args.baseline:
        base_stats, base_timing = run(args.baseline)
        reduction = (100.0 * (base_stats.misses - stats.misses)
                     / base_stats.misses if base_stats.misses else 0.0)
        emit(f"{args.baseline} (baseline): misses={base_stats.misses} "
             f"hit_rate={base_stats.hit_rate:.4f}")
        emit(f"  miss reduction vs {args.baseline}: {reduction:.2f}%")
        if timing is not None and base_timing is not None:
            speedup = 100.0 * timing.speedup_over(base_timing)
            emit(f"  IPC speedup vs {args.baseline}: {speedup:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
