"""Fabric CLI: distributed sweeps over local (or remote) worker hosts.

Three subcommands::

    # Self-contained: coordinator + N local worker-host processes.
    python -m repro.tools.fabric sweep --apps all --policies all \\
        --hosts 3 --differential --chaos-seed 1234 --rate 0.12

    # A coordinator waiting for externally launched workers.
    python -m repro.tools.fabric coordinator --port 7700 --apps tomcat

    # One worker host, pointed at a coordinator.
    python -m repro.tools.fabric worker --connect 127.0.0.1:7700 \\
        --cache-dir /tmp/shard0

``sweep --differential`` first runs the identical job list through the
serial engine (separate store, no faults) and then checks the fabric
run against it: result values, canonical manifest rows, and the
sha256 digests of every artifact (serial store vs the union of the
coordinator store and all host shards) must match exactly.
``--chaos-seed`` additionally runs the fabric leg under a seeded
:meth:`~repro.testing.faults.FaultPlan.random` plan of ``raise`` /
``die`` / ``partition`` faults — worker hosts crash and partition
mid-sweep, and the differential must *still* hold bit-for-bit.  The
seed is echoed so a red CI run replays locally from the log alone.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import pickle
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import runtime
from repro.btb.config import BTBConfig
from repro.btb.replacement.registry import policy_names
from repro.fabric import FabricCoordinator, run_fabric_sweep, worker_main
from repro.harness.engine import ExperimentEngine, SimJob
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.telemetry.manifest import canonical_rows, read_run_manifest
from repro.testing.faults import FaultPlan
from repro.workloads.datacenter import app_names

__all__ = ["main"]

log = logging.getLogger("repro.tools.fabric")

DEFAULT_APPS = "tomcat,kafka"
DEFAULT_POLICIES = "lru,srrip,thermometer"

#: Chaos kinds for fabric sweeps: transport/host faults plus plain
#: failures.  ``corrupt`` needs a verify/resume pass to converge (that
#: is :mod:`repro.tools.chaos`'s job) and ``hang`` only adds wall clock.
CHAOS_KINDS = ("raise", "die", "partition")

#: Store subtrees that are not artifacts (manifests, quarantined bytes,
#: worker shards, tenant namespaces).
NON_ARTIFACT_DIRS = ("runs", ".quarantine", "hosts", "tenants")


def _job_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--apps", default=DEFAULT_APPS,
                        help="comma list, or 'all' for the paper's 13")
    parser.add_argument("--policies", default=DEFAULT_POLICIES,
                        help="comma list, or 'all' for every policy")
    parser.add_argument("--input-ids", default="0",
                        help="comma list of trace input ids")
    parser.add_argument("--length", type=int, default=8_000)
    parser.add_argument("--entries", type=int, default=2048)
    parser.add_argument("--ways", type=int, default=4)


def _fabric_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hosts", type=int, default=3)
    parser.add_argument("--partition-seed", type=int, default=0,
                        help="seed for the group-to-host partition")
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument("--job-timeout", type=float, default=60.0)
    parser.add_argument("--heartbeat-timeout", type=float, default=5.0)
    parser.add_argument("--grace", type=float, default=20.0,
                        help="seconds to wait for a replacement when "
                             "every host is lost")
    parser.add_argument("--cache-dir", default=None)


def _build_jobs(args) -> Optional[List[SimJob]]:
    """The sweep's job list, or ``None`` after logging a usage error."""
    apps = (app_names() if args.apps.strip() == "all"
            else [a for a in args.apps.split(",") if a])
    policies = (policy_names() if args.policies.strip() == "all"
                else [p for p in args.policies.split(",") if p])
    known_apps = set(app_names())
    for app in apps:
        if app not in known_apps:
            log.error("unknown app %r; available: %s", app,
                      ", ".join(sorted(known_apps)))
            return None
    known_policies = set(policy_names()) | {"thermometer-7979"}
    for policy in policies:
        if policy not in known_policies:
            log.error("unknown policy %r; available: %s", policy,
                      ", ".join(sorted(known_policies)))
            return None
    input_ids = [int(i) for i in args.input_ids.split(",") if i != ""]
    config = BTBConfig(entries=args.entries, ways=args.ways)
    return [SimJob(app=app, policy=policy, input_id=input_id,
                   length=args.length, mode="misses", btb_config=config)
            for app in apps for policy in policies
            for input_id in input_ids]


def _resolve_root(args, prefix: str) -> Path:
    if args.cache_dir:
        return Path(args.cache_dir).expanduser()
    cache_dir = runtime.current().cache_dir
    if cache_dir is not None:
        return cache_dir / prefix
    import tempfile
    return Path(tempfile.mkdtemp(prefix=f"repro-{prefix}-"))


def artifact_digests(root: Path) -> Dict[str, str]:
    """``relative path → sha256`` over a store's artifact files."""
    digests: Dict[str, str] = {}
    if not root.is_dir():
        return digests
    for path in sorted(root.rglob("*.pkl")):
        rel = path.relative_to(root)
        if rel.parts[0] in NON_ARTIFACT_DIRS:
            continue
        digests[str(rel)] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return digests


def _merged_fabric_digests(coordinator_root: Path
                           ) -> Tuple[Dict[str, str], List[str]]:
    """The union of coordinator-store and host-shard artifact digests,
    plus any cross-host conflicts (same key, different bytes)."""
    sources = [coordinator_root]
    shards = coordinator_root / "hosts"
    if shards.is_dir():
        sources.extend(sorted(p for p in shards.iterdir()
                              if p.is_dir()))
    merged: Dict[str, str] = {}
    conflicts: List[str] = []
    for source in sources:
        for rel, digest in artifact_digests(source).items():
            if rel in merged and merged[rel] != digest:
                conflicts.append(rel)
            merged.setdefault(rel, digest)
    return merged, conflicts


def _counters(engine: ExperimentEngine, prefix: str) -> Dict[str, int]:
    counters = engine.last_run_telemetry.get("counters", {})
    return {name: count for name, count in sorted(counters.items())
            if name.startswith(prefix)}


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def _cmd_sweep(args) -> int:
    root = _resolve_root(args, "fabric")
    jobs = _build_jobs(args)
    if jobs is None:
        return 2
    emit(f"fabric sweep: {len(jobs)} job(s) over {args.hosts} host(s) "
         f"under {root}")

    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        emit(f"  {'ok' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    # Under --differential both legs run fault-free but for the
    # --chaos-seed plan on the fabric leg; otherwise the fabric leg keeps
    # whatever plan the runtime config already carries.
    plan = None if args.differential else runtime.current().fault_plan
    serial: Optional[ExperimentEngine] = None
    ref_results = None
    if args.differential:
        # The reference leg runs first: it is the ground truth the
        # fabric must reproduce bit-for-bit.
        serial = ExperimentEngine(cache_dir=root / "serial", jobs=1)
        start = time.perf_counter()
        with runtime.override(fault_plan=None):
            ref_results = serial.run(jobs)
        emit(f"serial reference: {len(ref_results)} job(s) in "
             f"{time.perf_counter() - start:.1f}s")

    if args.chaos_seed is not None:
        plan = FaultPlan.random(args.chaos_seed, len(jobs),
                                rate=args.rate, kinds=CHAOS_KINDS)
        emit(f"chaos seed {args.chaos_seed}: {len(plan)} fault(s) over "
             f"{len(jobs)} job(s)")
        emit(f"fault plan: {plan.to_json()}")

    coordinator = FabricCoordinator(
        cache_dir=root / "coordinator", hosts=args.hosts,
        partition_seed=args.partition_seed,
        max_retries=args.max_retries, job_timeout=args.job_timeout,
        heartbeat_timeout=args.heartbeat_timeout, grace=args.grace)
    start = time.perf_counter()
    with runtime.override(fault_plan=plan):
        results = run_fabric_sweep(jobs, coordinator=coordinator)
    emit(f"fabric sweep: {len(results)} job(s) in "
         f"{time.perf_counter() - start:.1f}s")
    emit(f"fabric counters: {_counters(coordinator.engine, 'fabric/')}")
    emit(f"manifest: {coordinator.engine.last_manifest}")

    if not args.differential:
        return 0

    assert serial is not None and ref_results is not None
    check(all(pickle.dumps(got.value) == pickle.dumps(ref.value)
              for got, ref in zip(results, ref_results)),
          "every result value matches the serial reference")
    ref_rows = canonical_rows(
        read_run_manifest(serial.last_manifest).rows)
    got_rows = canonical_rows(
        read_run_manifest(coordinator.engine.last_manifest).rows)
    check(ref_rows == got_rows,
          "canonical manifest rows match the serial reference")
    ref_digests = artifact_digests(root / "serial")
    got_digests, conflicts = _merged_fabric_digests(root / "coordinator")
    check(not conflicts,
          f"no cross-host artifact divergence ({len(conflicts)} "
          f"conflict(s))")
    check(got_digests == ref_digests,
          f"artifact digests match the serial store "
          f"({len(ref_digests)} artifact(s))")
    if failures:
        seed_note = (f" (replay with --chaos-seed {args.chaos_seed})"
                     if args.chaos_seed is not None else "")
        log.error("fabric sweep diverged from the serial "
                  "reference%s", seed_note)
        return 1
    emit("fabric sweep is bit-identical to the serial reference")
    return 0


# ----------------------------------------------------------------------
# coordinator / worker
# ----------------------------------------------------------------------

def _cmd_coordinator(args) -> int:
    root = _resolve_root(args, "fabric")
    jobs = _build_jobs(args)
    if jobs is None:
        return 2
    coordinator = FabricCoordinator(
        cache_dir=root / "coordinator", hosts=args.hosts,
        partition_seed=args.partition_seed,
        max_retries=args.max_retries, job_timeout=args.job_timeout,
        heartbeat_timeout=args.heartbeat_timeout, grace=args.grace,
        host=args.host, port=args.port)
    address = coordinator.bind()
    emit(f"fabric coordinator at {address}: {len(jobs)} job(s), "
         f"waiting for {args.hosts} worker host(s)")
    coordinator.start()
    try:
        results = coordinator.run(jobs)
    finally:
        coordinator.finish()
        coordinator.close()
    emit(f"sweep complete: {len(results)} job(s); manifest "
         f"{coordinator.engine.last_manifest}")
    emit(f"fabric counters: {_counters(coordinator.engine, 'fabric/')}")
    return 0


def _cmd_worker(args) -> int:
    emit(f"fabric worker {args.host_id or '(coordinator-named)'} -> "
         f"{args.connect}, shard at {args.cache_dir}")
    return worker_main(args.connect, args.cache_dir,
                       host_id=args.host_id, linger=args.linger)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.fabric",
        description="Distributed sweeps: coordinator/worker hosts with "
                    "work-stealing and peer artifact fetch.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="coordinator + N local worker-host processes")
    _job_args(sweep)
    _fabric_args(sweep)
    sweep.add_argument("--differential", action="store_true",
                       help="also run the serial engine and require "
                            "bit-identical results")
    sweep.add_argument("--chaos-seed", type=int, default=None,
                       help="install a seeded raise/die/partition "
                            "fault plan")
    sweep.add_argument("--rate", type=float, default=0.12,
                       help="per-job fault probability under "
                            "--chaos-seed")
    add_logging_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    coordinator = sub.add_parser(
        "coordinator", help="serve a sweep to external worker hosts")
    _job_args(coordinator)
    _fabric_args(coordinator)
    coordinator.add_argument("--host", default="127.0.0.1")
    coordinator.add_argument("--port", type=int, default=0)
    add_logging_args(coordinator)
    coordinator.set_defaults(func=_cmd_coordinator)

    worker = sub.add_parser(
        "worker", help="one worker host, pointed at a coordinator")
    worker.add_argument("--connect", required=True,
                        help="coordinator address, host:port")
    worker.add_argument("--cache-dir", required=True,
                        help="this host's shard store root")
    worker.add_argument("--host-id", default=None)
    worker.add_argument("--linger", type=float, default=1.0)
    add_logging_args(worker)
    worker.set_defaults(func=_cmd_worker)

    args = parser.parse_args(argv)
    setup_cli_logging(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
