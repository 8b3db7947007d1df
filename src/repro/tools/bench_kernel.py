"""Branch-event-kernel benchmark: per-job replay vs. shared-stream sweep.

Runs the same (apps × policies) miss sweep twice:

* **isolated** — one fresh :class:`~repro.harness.runner.Harness` per job
  with the stream memo cleared between jobs, so every replay rebuilds its
  trace columns and next-use distances (the pre-kernel cost model, where
  each layer re-walked the trace independently);
* **shared** — one harness per app replaying one memoized
  :class:`~repro.trace.stream.AccessStream` across every policy (the
  kernel's sweep path).

Both modes run with telemetry disabled.  A separate replay-only sweep
(traces/hints/streams precomputed, ~0.5 s off/on/traced passes interleaved
over at least 60 rounds, compared by their median per-round ratio) measures
the metrics registry's cost on the hot path as
``telemetry_overhead_pct`` and the trace-span machinery's cost (a
collection scope plus one journaled ``span`` per replay — the worker
job path's instrumentation) as ``tracing_overhead_pct``.
``--max-overhead-pct`` (default 3) turns both budgets into an exit code
so CI fails when instrumentation creeps into the replay hot loop.

Writes a ``BENCH_kernel.json`` record so CI tracks the perf trajectory::

    python -m repro.tools.bench_kernel --length 60000 --output BENCH_kernel.json

``--replay-output`` additionally runs the per-policy fast-vs-reference
replay breakdown (the kernels of ``repro.btb.kernels`` against the
reference per-access loop, traces/hints/streams precomputed, passes
interleaved — every kernelized policy by default) and writes a
``BENCH_replay.json`` record.  When that file already exists its
recorded ``floors`` become the gate: the run exits 1 if any policy's
measured speedup drops below its floor.

``--sim-output`` runs the per-app fast-vs-reference ``simulate``
breakdown (the stage-decoupled frontend kernel of
``repro.frontend.kernels`` against the reference ``_replay_region``
loop, traces/streams precomputed, passes interleaved) and writes a
``BENCH_sim.json`` record with per-app floors plus a ``geomean`` floor,
gated the same way.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import statistics
import sys
import time
from typing import Dict, List, Optional

from repro import runtime
from repro.btb import kernels
from repro.btb.btb import BTB, run_btb
from repro.btb.config import DEFAULT_BTB_CONFIG
from repro.frontend import kernels as sim_kernels
from repro.frontend.simulator import FrontendSimulator
from repro.harness.runner import Harness, HarnessConfig
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.telemetry.metrics import (MetricsRegistry, get_registry,
                                     set_registry)
from repro.trace.stream import access_stream_for, clear_stream_cache
from repro.workloads import make_app_trace
from repro.workloads.datacenter import app_names

__all__ = ["main", "run_benchmark", "run_replay_benchmark",
           "run_sim_benchmark", "check_replay_floors", "check_sim_floors"]

# Stable name: __name__ is "__main__" under python -m, which
# would escape the repro logger tree.
log = logging.getLogger("repro.tools.bench_kernel")

DEFAULT_APPS = ("tomcat", "python")
DEFAULT_POLICIES = ("lru", "srrip", "thermometer", "opt")

#: Every registry policy with a fast-path kernel — the default coverage
#: of the per-policy replay breakdown.
KERNEL_POLICIES = tuple(kernels.kernel_policy_names())

#: Seed speedup floors for the replay breakdown, used when no committed
#: ``BENCH_replay.json`` supplies its own ``floors``.  Each sits 23-39%
#: under the speedup that file records.
REPLAY_FLOORS = {
    "lru": 2.8, "opt": 4.3, "thermometer": 2.0,
    "mru": 2.6, "fifo": 2.1, "srrip": 2.7, "plru": 3.9,
    "dip": 2.2, "ship": 2.1, "ghrp": 4.4, "hawkeye": 2.1,
    "thermometer-dueling": 2.0, "thermometer-online": 1.8,
    "random": 2.3, "brrip": 2.3,
}

#: Seed speedup floors for the stage-decoupled ``simulate`` fast path
#: (``repro.frontend.kernels``) against the reference ``_replay_region``
#: loop, used when no committed ``BENCH_sim.json`` supplies its own
#: ``floors``.  Measured speedups sit around 3.8-5.6x per app; the
#: per-app floor keeps headroom for CI-runner noise and the ``geomean``
#: entry enforces a >= 3.6x bar across the full sweep.
SIM_FLOORS = dict({app: 2.8 for app in app_names()}, geomean=3.6)

#: Shortest timing per side and round of :func:`_measure_overhead`.
OVERHEAD_UNIT_SECONDS = 0.5


def _hints_for(harness: Harness, app: str, policy: str):
    if policy in ("thermometer", "thermometer-dueling"):
        return harness.hints(app)
    return None


def _run_isolated(apps, policies, length: int) -> float:
    """Every job on its own harness, stream memo cleared between jobs."""
    start = time.perf_counter()
    for app in apps:
        for policy in policies:
            clear_stream_cache()
            harness = Harness(HarnessConfig(apps=(app,), length=length))
            trace = harness.trace(app)
            harness.run_misses(trace, policy,
                               hints=_hints_for(harness, app, policy))
    return time.perf_counter() - start


def _run_shared(apps, policies, length: int) -> float:
    """One harness per app; every policy replays the shared stream."""
    clear_stream_cache()
    start = time.perf_counter()
    for app in apps:
        harness = Harness(HarnessConfig(apps=(app,), length=length))
        trace = harness.trace(app)
        for policy in policies:
            harness.run_misses(trace, policy,
                               hints=_hints_for(harness, app, policy))
    return time.perf_counter() - start


def _measure_overhead(apps, policies, length: int,
                      rounds: int) -> tuple:
    """Median seconds of a replay-only sweep with telemetry off, on and
    traced over ``rounds`` interleaved rounds, and the on and traced
    overhead percentages from the median per-round ratios to off.

    Traces, hints, and the shared streams are precomputed outside the
    timed region: the isolated/shared modes deliberately include that
    build work (it is what the kernel amortizes), but it is far too
    noisy to resolve a few-percent instrumentation cost.  The overhead
    budget guards the replay hot path, so that is what gets timed —
    with off/on/traced passes interleaved so clock drift hits all three
    equally.  The enabled side is read from its own ``engine.run``
    span so the span machinery is part of the measurement; the traced
    side additionally opens one
    :func:`~repro.telemetry.tracing.collect_spans` scope and a
    per-replay ``engine.job`` span — exactly what the worker's job path
    adds.  A sweep is too short to time against host noise, so a round
    sums each side over interleaved sweeps filling
    :data:`OVERHEAD_UNIT_SECONDS`; the returned seconds are per sweep.
    """
    from repro.telemetry.tracing import collect_spans, span
    prepared = []
    for app in apps:
        harness = Harness(HarnessConfig(apps=(app,), length=length))
        trace = harness.trace(app)
        for policy in policies:
            prepared.append((harness, trace, policy,
                             _hints_for(harness, app, policy)))

    def sweep():
        start = time.perf_counter()
        for harness, trace, policy, hints in prepared:
            harness.run_misses(trace, policy, hints=hints)
        return time.perf_counter() - start

    def on_sweep():
        with span("engine.run"):
            sweep()
        return get_registry().span_seconds("engine.run")

    def traced_sweep():
        with collect_spans():
            start = time.perf_counter()
            for harness, trace, policy, hints in prepared:
                with span("engine.job", policy=policy):
                    harness.run_misses(trace, policy, hints=hints)
            return time.perf_counter() - start

    sweep()  # warm the stream memo and first-touch allocations
    reps = max(1, math.ceil(OVERHEAD_UNIT_SECONDS / max(sweep(), 1e-9)))
    sides = [sweep, on_sweep, traced_sweep]
    seconds: Dict[object, List[float]] = {side: [] for side in sides}
    for r in range(rounds):
        total = dict.fromkeys(sides, 0.0)
        for k in range(r * reps, (r + 1) * reps):
            for side in sides[k % 3:] + sides[:k % 3]:
                gc.collect()
                set_registry(MetricsRegistry(enabled=side is not sweep))
                total[side] += side()
        for side in sides:
            seconds[side].append(total[side])
    off, on, traced = (seconds[side] for side in sides)
    median = statistics.median
    return (median(off) / reps, median(on) / reps, median(traced) / reps,
            100.0 * (median(a / b for a, b in zip(on, off)) - 1.0),
            100.0 * (median(a / b for a, b in zip(traced, off)) - 1.0))


def run_benchmark(apps=DEFAULT_APPS, policies=DEFAULT_POLICIES,
                  length: int = 60000, repeats: int = 1) -> dict:
    """Best-of-``repeats`` timings for both modes, as a JSON-ready dict.

    The isolated/shared modes run with a disabled registry and measure
    the kernel speedup; a replay-only off/on/traced comparison (see
    :func:`_measure_overhead`) yields both overhead percentages.
    """
    previous = set_registry(MetricsRegistry(enabled=False))
    try:
        isolated = min(_run_isolated(apps, policies, length)
                       for _ in range(repeats))
        shared = min(_run_shared(apps, policies, length)
                     for _ in range(repeats))
        (replay_off, replay_on, replay_traced, overhead,
         tracing_overhead) = _measure_overhead(
            apps, policies, length, max(60, repeats))
    finally:
        set_registry(previous)
    return {
        "bench": "kernel",
        "apps": list(apps),
        "policies": list(policies),
        "length": length,
        "jobs": len(apps) * len(policies),
        "isolated_seconds": round(isolated, 4),
        "shared_seconds": round(shared, 4),
        "replay_seconds": round(replay_off, 4),
        "telemetry_replay_seconds": round(replay_on, 4),
        "telemetry_overhead_pct": round(overhead, 2),
        "tracing_replay_seconds": round(replay_traced, 4),
        "tracing_overhead_pct": round(tracing_overhead, 2),
        "speedup": round(isolated / shared, 3) if shared else 0.0,
    }


def run_replay_benchmark(apps, policies=DEFAULT_POLICIES,
                         length: int = 60000, repeats: int = 3) -> dict:
    """Per-policy replay-only timings: fast-path kernels vs. the
    reference per-access loop.

    Traces, hints, and the shared streams (including the set partition
    and next-use columns) are precomputed, so the timed region is the
    replay itself — the fast path's dispatch plus kernel loop against
    the reference ``BTB.access`` loop over the same pristine BTB.  The
    two paths are interleaved per (app, policy) pass so clock drift
    hits both equally, and each pass runs with the cyclic GC paused, so
    no policy's timing depends on its place in ``policies``.  Each
    policy's seconds are summed across apps and the best-of-``repeats``
    sums are reported.
    """
    previous = set_registry(MetricsRegistry(enabled=False))
    try:
        prepared = []
        for app in apps:
            harness = Harness(HarnessConfig(apps=(app,), length=length))
            trace = harness.trace(app)
            stream = harness.stream(trace)
            stream.next_use  # noqa: B018 - forces the Belady column
            stream.partition()
            for policy in policies:
                prepared.append((harness, trace, policy,
                                 _hints_for(harness, app, policy)))

        def timed_pass(harness, trace, policy, hints,
                       fast_enabled: bool) -> float:
            btb = harness.build_btb(policy, trace, hints=hints)
            # As timeit does: a cyclic collection set off by the
            # previous pass's garbage would land on this pass's clock,
            # making a policy's speedup depend on which pass precedes it.
            gc.disable()
            try:
                with runtime.override(fast_replay=fast_enabled):
                    start = time.perf_counter()
                    run_btb(trace, btb)
                    return time.perf_counter() - start
            finally:
                gc.enable()

        for job in prepared:  # warm allocations on both paths
            timed_pass(*job, True)
            timed_pass(*job, False)
        fast = {p: float("inf") for p in policies}
        reference = {p: float("inf") for p in policies}
        for _ in range(max(1, repeats)):
            gc.collect()
            round_fast = {p: 0.0 for p in policies}
            round_ref = {p: 0.0 for p in policies}
            for harness, trace, policy, hints in prepared:
                round_fast[policy] += timed_pass(harness, trace, policy,
                                                 hints, True)
                round_ref[policy] += timed_pass(harness, trace, policy,
                                                hints, False)
            for p in policies:
                fast[p] = min(fast[p], round_fast[p])
                reference[p] = min(reference[p], round_ref[p])
    finally:
        set_registry(previous)
    per_policy: Dict[str, dict] = {}
    for p in policies:
        speedup = reference[p] / fast[p] if fast[p] else 0.0
        per_policy[p] = {
            "reference_seconds": round(reference[p], 4),
            "fast_seconds": round(fast[p], 4),
            "speedup": round(speedup, 3),
        }
    return {
        "bench": "replay",
        "apps": list(apps),
        "length": length,
        "repeats": repeats,
        "policies": per_policy,
    }


def check_replay_floors(record: dict,
                        floors: Dict[str, float]) -> List[str]:
    """Policies whose measured speedup fell below their recorded floor."""
    breaches = []
    for policy, floor in sorted(floors.items()):
        measured = record["policies"].get(policy)
        if measured is not None and measured["speedup"] < floor:
            breaches.append(policy)
    return breaches


def run_sim_benchmark(apps, length: int = 60000, repeats: int = 3) -> dict:
    """Per-app ``simulate`` timings: the stage-decoupled fast path of
    :mod:`repro.frontend.kernels` vs. the reference ``_replay_region``
    loop.

    Traces and the shared access streams (set partitions included) are
    precomputed, so the timed region is ``simulate`` itself — dispatch,
    the columnar passes, and the ordered reduction against the
    per-record interpreter loop.  The shared-pass memo is emptied before
    every pass, so the direction and I-cache passes always run.  Each pass runs on a fresh simulator
    and pristine default-geometry BTB; fast and reference passes are
    interleaved per app so clock drift hits both equally, and the
    best-of-``repeats`` seconds are reported per app together with the
    geomean speedup.
    """
    previous = set_registry(MetricsRegistry(enabled=False))
    try:
        prepared = []
        for app in apps:
            trace = make_app_trace(app, length=length)
            stream = access_stream_for(trace, DEFAULT_BTB_CONFIG)
            stream.partition()
            prepared.append((app, trace))

        def timed_pass(trace, fast_enabled: bool) -> float:
            sim = FrontendSimulator(btb=BTB(DEFAULT_BTB_CONFIG))
            # Every pass repeats the same trace; timing the shared-pass
            # memo's hits instead of the kernel would inflate the speedup.
            sim_kernels.clear_pass_memo()
            with runtime.override(fast_sim=fast_enabled):
                start = time.perf_counter()
                sim.simulate(trace)
                return time.perf_counter() - start

        for _, trace in prepared:  # warm allocations on both paths
            timed_pass(trace, True)
            timed_pass(trace, False)
        fast = {app: float("inf") for app in apps}
        reference = {app: float("inf") for app in apps}
        for _ in range(max(1, repeats)):
            gc.collect()
            for app, trace in prepared:
                fast[app] = min(fast[app], timed_pass(trace, True))
                reference[app] = min(reference[app],
                                     timed_pass(trace, False))
    finally:
        set_registry(previous)
    per_app: Dict[str, dict] = {}
    log_speedups = 0.0
    for app in apps:
        speedup = reference[app] / fast[app] if fast[app] else 0.0
        log_speedups += math.log(speedup) if speedup > 0 else 0.0
        per_app[app] = {
            "reference_seconds": round(reference[app], 4),
            "fast_seconds": round(fast[app], 4),
            "speedup": round(speedup, 3),
        }
    geomean = math.exp(log_speedups / len(apps)) if apps else 0.0
    return {
        "bench": "sim",
        "length": length,
        "repeats": repeats,
        "apps": per_app,
        "geomean_speedup": round(geomean, 3),
    }


def check_sim_floors(record: dict, floors: Dict[str, float]) -> List[str]:
    """Apps (or ``geomean``) whose simulate speedup fell below their
    recorded floor."""
    breaches = []
    for name, floor in sorted(floors.items()):
        if name == "geomean":
            if record["geomean_speedup"] < floor:
                breaches.append(name)
            continue
        measured = record["apps"].get(name)
        if measured is not None and measured["speedup"] < floor:
            breaches.append(name)
    return breaches


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.bench_kernel",
        description="Benchmark per-job replay vs. the shared branch-event "
                    "kernel on a small miss sweep.")
    parser.add_argument("--apps", default=",".join(DEFAULT_APPS),
                        help="comma-separated application names")
    parser.add_argument("--policies", default=",".join(DEFAULT_POLICIES),
                        help="comma-separated policy names")
    parser.add_argument("--length", type=int, default=60000,
                        help="per-app trace length")
    parser.add_argument("--repeats", type=int, default=1,
                        help="repetitions per mode (best-of is reported)")
    parser.add_argument("--max-overhead-pct", type=float, default=3.0,
                        help="fail (exit 1) when telemetry overhead "
                             "exceeds this percentage; <= 0 disables the "
                             "check")
    parser.add_argument("--output", default="BENCH_kernel.json",
                        help="where to write the JSON record ('-' = stdout "
                             "only)")
    parser.add_argument("--replay-output", default="",
                        help="also run the per-policy fast-vs-reference "
                             "replay breakdown and write its record here "
                             "(e.g. BENCH_replay.json; '-' = stdout only; "
                             "empty skips the breakdown).  An existing "
                             "file's recorded floors gate the run.")
    parser.add_argument("--replay-apps", default="all",
                        help="comma-separated apps for the replay "
                             "breakdown; 'all' = the full datacenter sweep")
    parser.add_argument("--replay-policies",
                        default=",".join(KERNEL_POLICIES),
                        help="comma-separated policies for the replay "
                             "breakdown (default: every kernelized "
                             "policy)")
    parser.add_argument("--sim-output", default="",
                        help="also run the per-app fast-vs-reference "
                             "simulate breakdown and write its record "
                             "here (e.g. BENCH_sim.json; '-' = stdout "
                             "only; empty skips it).  An existing file's "
                             "recorded floors gate the run.")
    parser.add_argument("--sim-apps", default="all",
                        help="comma-separated apps for the simulate "
                             "breakdown; 'all' = the full datacenter "
                             "sweep")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    setup_cli_logging(args)

    apps = [a for a in args.apps.split(",") if a]
    policies = [p for p in args.policies.split(",") if p]
    record = run_benchmark(apps, policies, args.length,
                           repeats=max(1, args.repeats))
    rendered = json.dumps(record, indent=2)
    emit(rendered)
    if args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        log.info("wrote %s", args.output)
    failed = False
    if (args.max_overhead_pct > 0
            and record["telemetry_overhead_pct"] > args.max_overhead_pct):
        log.error("telemetry overhead %.2f%% exceeds budget %.2f%%",
                  record["telemetry_overhead_pct"], args.max_overhead_pct)
        failed = True
    if (args.max_overhead_pct > 0
            and record.get("tracing_overhead_pct", 0.0)
            > args.max_overhead_pct):
        log.error("tracing overhead %.2f%% exceeds budget %.2f%%",
                  record["tracing_overhead_pct"], args.max_overhead_pct)
        failed = True
    if args.replay_output:
        replay_apps = (list(app_names()) if args.replay_apps == "all"
                       else [a for a in args.replay_apps.split(",") if a])
        replay_policies = [p for p in args.replay_policies.split(",") if p]
        replay = run_replay_benchmark(replay_apps, replay_policies,
                                      args.length,
                                      repeats=max(1, args.repeats))
        floors = dict(REPLAY_FLOORS)
        if args.replay_output != "-" and os.path.exists(args.replay_output):
            try:
                with open(args.replay_output, encoding="utf-8") as fh:
                    floors.update(json.load(fh).get("floors") or {})
            except (OSError, ValueError):
                log.warning("ignoring unreadable %s", args.replay_output)
        replay["floors"] = floors
        rendered = json.dumps(replay, indent=2)
        emit(rendered)
        if args.replay_output != "-":
            with open(args.replay_output, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
            log.info("wrote %s", args.replay_output)
        for policy in check_replay_floors(replay, floors):
            log.error("fast-path speedup %.3fx for %s is below the "
                      "recorded floor %.2fx",
                      replay["policies"][policy]["speedup"], policy,
                      floors[policy])
            failed = True
    if args.sim_output:
        sim_apps = (list(app_names()) if args.sim_apps == "all"
                    else [a for a in args.sim_apps.split(",") if a])
        sim = run_sim_benchmark(sim_apps, args.length,
                                repeats=max(1, args.repeats))
        floors = dict(SIM_FLOORS)
        if args.sim_output != "-" and os.path.exists(args.sim_output):
            try:
                with open(args.sim_output, encoding="utf-8") as fh:
                    floors.update(json.load(fh).get("floors") or {})
            except (OSError, ValueError):
                log.warning("ignoring unreadable %s", args.sim_output)
        sim["floors"] = floors
        rendered = json.dumps(sim, indent=2)
        emit(rendered)
        if args.sim_output != "-":
            with open(args.sim_output, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
            log.info("wrote %s", args.sim_output)
        for name in check_sim_floors(sim, floors):
            measured = (sim["geomean_speedup"] if name == "geomean"
                        else sim["apps"][name]["speedup"])
            log.error("simulate fast-path speedup %.3fx for %s is below "
                      "the recorded floor %.2fx", measured, name,
                      floors[name])
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
