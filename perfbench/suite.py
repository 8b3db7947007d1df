"""The benchmark's three workloads, their goldens, and their metrics.

Import :func:`pin_env` and call it before anything imports ``repro``:
several ``REPRO_*`` switches are read once, at import time.

Run as a script, this module is one set-up of a workload in a fresh
interpreter (see :meth:`Workload.setup`):

    python3 perfbench/suite.py <workload> <scale> <seed> <snapshot dir>
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: On the workloads that take an input, the seed gives the application
#: at position ``i`` the input ``(seed + i) % GOLDEN_INPUTS``, so every
#: pass mixes inputs and the work per pass varies little between seeds.
#: Goldens are committed for each ``seed % GOLDEN_INPUTS``.
GOLDEN_INPUTS = 8

#: Every ``REPRO_*`` switch that changes which code path runs, pinned to
#: the shipped default (None = unset) so that an inherited switch cannot
#: move a run onto a reference loop or a process pool.
PINNED_ENV: Dict[str, Optional[str]] = {
    "REPRO_FAST_REPLAY": "1",
    "REPRO_FAST_SIM": "1",
    "REPRO_MULTI_REPLAY": "1",
    "REPRO_SHM": "1",
    "REPRO_TELEMETRY": "1",
    "REPRO_TRACING": "1",
    "REPRO_PROFILE": None,
    "REPRO_PROFILE_DIR": None,
    "REPRO_JOBS": "1",
    "REPRO_FAULT_PLAN": None,
    "REPRO_MAX_RETRIES": "0",
    "REPRO_JOB_TIMEOUT": None,
    "REPRO_TEST_FAST": None,
}

#: The sweep-cold policy set: every registry name plus the iso-storage
#: Thermometer variant (16 names).
SWEEP_POLICIES = (
    "brrip", "dip", "fifo", "ghrp", "hawkeye", "lru", "mru", "opt", "plru",
    "random", "ship", "srrip", "thermometer", "thermometer-dueling",
    "thermometer-online", "thermometer-7979",
)

#: serve-warm's two request shapes: the ``r1`` sweep and ``r2``
#: simulate examples of ``docs/SERVICE.md``, as written there.  The repo
#: keeps no record of real traffic; these are the requests its service
#: documentation shows a client sending.
SERVE_SWEEP = {"op": "sweep", "tenant": "alice",
               "apps": ["tomcat", "kafka"], "policies": ["lru", "srrip"],
               "mode": "misses", "length": 4000}
SERVE_SIMULATE = {"op": "simulate", "tenant": "alice",
                  "jobs": [{"app": "tomcat", "policy": "thermometer",
                            "mode": "sim", "length": 4000}]}

#: Simulations behind each fig11 row: the LRU baseline plus six columns.
FIG11_SIMS_PER_APP = 7

#: The speed probe (see :class:`SpeedProbe`): a fixed pure-Python loop
#: of this many iterations, timed every PROBE_INTERVAL_S of wall time.
PROBE_ITERATIONS = 5000
PROBE_INTERVAL_S = 0.05
#: The probe's duration at the reference speed.  Timed metrics are host
#: seconds scaled to that speed.  0.4 ms is the probe's median duration
#: on the 2-vCPU Xeon VM this benchmark was built on.
PROBE_REFERENCE_S = 0.0004


def pin_env(cache_root: Optional[Path] = None) -> List[str]:
    """Pin :data:`PINNED_ENV` (and the store root) in ``os.environ``;
    returns ``NAME=value`` lines for the run's echo."""
    for name, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    if cache_root is not None:
        os.environ["REPRO_CACHE_DIR"] = str(cache_root)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return [f"{name}={os.environ.get(name, '<unset>')}"
            for name in [*PINNED_ENV, "REPRO_CACHE_DIR"]]


@dataclass(frozen=True)
class Scale:
    """Workload sizes; :data:`FULL` is what the benchmark runs."""

    name: str
    #: None runs the quick preset's own 13 applications.
    fig11_apps: Optional[Tuple[str, ...]]
    #: None sweeps all 13 applications.
    sweep_apps: Optional[Tuple[str, ...]]
    sweep_length: int
    #: Requests per serve-warm round (every round starts from the same
    #: store snapshot).
    serve_round: int
    #: Rounds continue until at least this many latency samples exist.
    serve_min_samples: int
    #: Set-up repetitions whose median is ``setup_s``.
    setup_repeats: int


FULL = Scale(name="full", fig11_apps=None, sweep_apps=None,
             sweep_length=50_000, serve_round=250, serve_min_samples=2000,
             setup_repeats=5)
TINY = Scale(name="tiny", fig11_apps=("drupal",), sweep_apps=("drupal",),
             sweep_length=4000, serve_round=20, serve_min_samples=20,
             setup_repeats=1)
SCALES = {scale.name: scale for scale in (FULL, TINY)}


@dataclass
class Pass:
    """One measured pass of a workload."""

    wall_s: float
    #: Simulated branch records that the pass's results cover.
    records: int
    #: Latency samples as ``(start, end)`` perf_counter times (see
    #: each workload's docstring).
    spans: List[Tuple[float, float]]
    #: Results, in the shape the golden stores.
    table: dict
    attempted: int
    failed: int
    store_root: Path
    notes: List[str] = field(default_factory=list)
    #: Files in the pass's store when it ended (traced runs only).
    files_end: int = 0
    #: Host seconds -> reference seconds, from the pass's speed probe:
    #: for the whole pass, and for each latency sample's span.
    speed_scale: float = 1.0
    span_speed_scales: List[float] = field(default_factory=list)

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.speed_scale

    def latencies(self) -> List[float]:
        """Latency samples in reference seconds."""
        return [(end - start) * k for (start, end), k
                in zip(self.spans, self.span_speed_scales)]


class SpeedProbe:
    """Samples the host's speed while a block runs.

    Every :data:`PROBE_INTERVAL_S` of wall time a ``SIGALRM`` handler
    times :data:`PROBE_ITERATIONS` iterations of a fixed loop, in the
    measured thread, between two of its bytecodes.  The host this
    benchmark was built on changes speed by up to 1.6x within seconds
    (other tenants' load; no steal time is reported), and the loop slows
    with the workload.  :meth:`scale` turns host seconds measured inside
    the block into seconds at the probe's reference speed.  The loop
    runs no ``repro`` code, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: perf_counter time at which each sample ended.
        self.stamps: List[float] = []

    def _probe(self, *_) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERATIONS):
            x += i * i % 7
        end = time.perf_counter()
        self.samples.append(end - start)
        self.stamps.append(end)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        if not self.samples:
            self._probe()
        return PROBE_REFERENCE_S / statistics.mean(self.samples)

    def local_scales(self, spans: List[Tuple[float, float]]) -> List[float]:
        """A scale per ``(start, end)`` span, from the samples taken
        during it or within one probe interval of it.  A short request
        that meets a burst of host slowness is scaled by that burst, and
        the time to a result halfway through a pass by the speed of that
        half, not by the pass's average speed."""
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(self.stamps, start - PROBE_INTERVAL_S)
            hi = bisect.bisect_right(self.stamps, end + PROBE_INTERVAL_S)
            near = self.samples[lo:hi]
            out.append(PROBE_REFERENCE_S / statistics.mean(near) if near
                       else self.scale())
        return out


def probed_pass(workload: "Workload", span=nullcontext) -> Pass:
    """One pass under a :class:`SpeedProbe`, with its scale set."""
    with SpeedProbe() as probe:
        p = workload.run_pass(span=span)
    p.speed_scale = probe.scale()
    p.span_speed_scales = probe.local_scales(p.spans)
    return p


@contextmanager
def scratch_root(prefix: str):
    """A fresh directory under ``.perfbench_tmp/`` in the checkout,
    removed (with ``.perfbench_tmp/`` once empty) on exit."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass


def digest(table: dict) -> str:
    blob = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def count_files(root: Path) -> int:
    return sum(len(files) for _, _, files in os.walk(root))


class Workload:
    name = ""
    #: Modules a command-line user of the workload imports.
    modules: Tuple[str, ...] = ()

    def __init__(self, scale: Scale, seed: int, tmp: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.tmp = tmp
        self.snapshot: Optional[Path] = None

    def input_id(self, position: int) -> int:
        return (self.seed + position) % GOLDEN_INPUTS

    @property
    def golden_key(self) -> str:
        return str(self.seed % GOLDEN_INPUTS)

    def fill(self, snapshot: Path) -> None:
        """Set-up work beyond the import (none for cold workloads)."""

    def setup(self, repeats: int) -> Tuple[float, float]:
        """Set up ``repeats`` times; returns the median wall time in
        reference seconds and in host seconds.

        One set-up is one fresh interpreter (this module run as a
        script) that imports the workload's modules, as every
        command-line invocation of it does first, and runs :meth:`fill`.
        The benchmark process itself never fills, so its peak memory
        covers the measured passes only.  The last set-up's snapshot is
        kept.
        """
        scaled, host = [], []
        for _ in range(repeats):
            if self.snapshot is not None:
                shutil.rmtree(self.snapshot)
            self.snapshot = self.fresh_store()
            start = time.perf_counter()
            child = subprocess.run(
                [sys.executable, __file__, self.name, self.scale.name,
                 str(self.seed), str(self.snapshot)],
                check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            host.append(time.perf_counter() - start)
            scaled.append(host[-1] * float(child.stdout.split()[-1]))
        return statistics.median(scaled), statistics.median(host)

    def fresh_store(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=self.name + "-",
                                     dir=self.tmp))

    def run_pass(self, span=nullcontext) -> Pass:
        raise NotImplementedError

    def enough(self, passes: List[Pass]) -> bool:
        return True


class Fig11Cold(Workload):
    """``run_experiments(["fig11"])`` at the quick preset on an empty
    store.  The figure is defined on each application's input #0, so the
    seed does not change its inputs.  Latency samples are the times from
    the start of the pass until each artifact it stored (trace, OPT
    profile, hint map, LRU baseline) was written, by the artifact's
    modification time: ``run_experiments`` hands its rows over only at
    the end."""

    name = "fig11-cold"
    modules = ("repro.harness.reproduce",)

    @property
    def golden_key(self) -> str:
        return "fig11"

    def run_pass(self, span=nullcontext) -> Pass:
        from repro.harness.reproduce import PRESETS, run_experiments
        from repro.harness.validate import validate_results
        from repro.workloads.datacenter import app_names
        store = self.fresh_store()
        apps = self.scale.fig11_apps
        n_apps = len(apps) if apps else len(app_names())
        attempted = n_apps + 2 + 1  # app rows, two average rows, claims
        epoch = time.time()
        start = time.perf_counter()
        try:
            results = run_experiments(
                ["fig11"], preset="quick",
                apps=list(apps) if apps else None, stream=io.StringIO(),
                jobs=1, cache_dir=store, max_retries=0)
        except Exception as exc:  # the pass failed; report, don't crash
            wall = time.perf_counter() - start
            return Pass(wall, 0, [(start, start + wall)], {}, attempted,
                        attempted, store, [f"run_experiments raised {exc!r}"])
        wall = time.perf_counter() - start
        fig = results["fig11"]
        table = {
            "rows": {str(row[0]): [float(v) for v in row[1:]]
                     for row in fig.rows},
            # Claim outcomes are compared with the golden's, so a claim
            # that fails at the quick preset is reported, and a change
            # of any outcome fails the run.
            "claims": {o.claim.name: o.status
                       for o in validate_results(results)
                       if o.status != "SKIP"},
        }
        records = (n_apps * FIG11_SIMS_PER_APP
                   * PRESETS["quick"]["length"])
        spans = [(start, start + os.stat(path).st_mtime - epoch)
                 for path in store.rglob("*.pkl")]
        return Pass(wall, records, sorted(spans), table, attempted, 0,
                    store)


class SweepCold(Workload):
    """An engine misses sweep, applications x 16 policy names, on an
    empty store.  Latency samples are the times from the start of the
    sweep until each job's result reached the caller."""

    name = "sweep-cold"
    modules = ("repro.harness.engine",)

    def jobs(self):
        from repro.harness.engine import SimJob
        from repro.workloads.datacenter import app_names
        apps = self.scale.sweep_apps or tuple(app_names())
        return [SimJob(app=app, policy=policy, input_id=self.input_id(i),
                       length=self.scale.sweep_length, mode="misses")
                for i, app in enumerate(apps) for policy in SWEEP_POLICIES]

    def run_pass(self, span=nullcontext) -> Pass:
        from repro.harness.engine import ExperimentEngine, ExperimentError
        store = self.fresh_store()
        jobs = self.jobs()
        engine = ExperimentEngine(cache_dir=store, jobs=1, max_retries=0)
        spans: List[Tuple[float, float]] = []
        start = time.perf_counter()
        try:
            results = engine.run(jobs, on_result=lambda r: spans.append(
                (start, time.perf_counter())))
        except ExperimentError as exc:
            wall = time.perf_counter() - start
            return Pass(wall, 0, spans or [(start, start + wall)], {},
                        len(jobs), len(jobs), store, [f"sweep failed: {exc}"])
        wall = time.perf_counter() - start
        table = {f"{r.job.app}/{r.job.policy}":
                 [r.value.accesses, r.value.misses] for r in results}
        failed = sum(1 for r in results if r.state != "succeeded")
        return Pass(wall, len(jobs) * self.scale.sweep_length, spans,
                    table, len(jobs), failed, store)


class ServeWarm(Workload):
    """A closed loop of one client on one connection against an
    in-process ``SimulationService`` (``coalesce_window=0``, ``jobs=1``)
    whose every job is a store hit.  A round alternates
    :data:`SERVE_SWEEP` and :data:`SERVE_SIMULATE`; pair ``k`` of a round
    asks for input ``(seed + k) % GOLDEN_INPUTS``.  Set-up fills the
    store once and snapshots it; each round starts from an identical
    copy, because each request adds a run directory that later manifest
    writes rescan.  Latency samples are per request, send to ``done``."""

    name = "serve-warm"
    modules = ("repro.service",)

    def __init__(self, scale: Scale, seed: int, tmp: Path) -> None:
        super().__init__(scale, seed, tmp)
        self.requests = [
            dict(shape, input_id=self.input_id(k))
            for k in range(scale.serve_round // 2)
            for shape in (SERVE_SWEEP, SERVE_SIMULATE)]

    @property
    def golden_key(self) -> str:
        # Every round covers all inputs; the seed only rotates them.
        return "all"

    def fill(self, snapshot: Path) -> None:
        from repro.harness.engine import ArtifactStore, ExperimentEngine
        from repro.service import jobs_from_request
        jobs = {}
        for request in self.requests:
            for job in jobs_from_request(request):
                jobs[job.cache_key()] = job
        store = ArtifactStore(snapshot).namespace(SERVE_SWEEP["tenant"])
        ExperimentEngine(store=store, jobs=1, max_retries=0).run(
            list(jobs.values()))

    def enough(self, passes: List[Pass]) -> bool:
        return sum(len(p.spans) for p in passes) >= \
            self.scale.serve_min_samples

    def run_pass(self, span=nullcontext) -> Pass:
        store = self.fresh_store()
        shutil.rmtree(store)
        shutil.copytree(self.snapshot, store)
        return asyncio.run(self._round(store, span))

    async def _round(self, store: Path, span) -> Pass:
        from repro.service import ServiceClient, SimulationService
        service = SimulationService(store, jobs=1, coalesce_window=0.0,
                                    max_retries=0)
        server = await service.start("127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        client = await ServiceClient.connect(host, port)
        spans: List[Tuple[float, float]] = []
        table: Dict[str, str] = {}
        failed = 0
        records = 0
        notes: List[str] = []
        try:
            start = time.perf_counter()
            for request in self.requests:
                sent = time.perf_counter()
                with span("service.request"):
                    events = await client.request(request)
                spans.append((sent, time.perf_counter()))
                rows = [e["row"] for e in events if e["event"] == "result"]
                expected = (len(request["apps"]) * len(request["policies"])
                            if request["op"] == "sweep" else 1)
                ok = (events[-1].get("event") == "done"
                      and events[-1].get("ok") and len(rows) == expected)
                if not ok:
                    notes.append(f"request {len(spans)} ended with "
                                 f"{len(rows)}/{expected} rows: "
                                 f"{events[-1]}")
                for row in rows:
                    key = (f"{row['app']}/{row['policy']}/{row['mode']}"
                           f"/{row['input_id']}")
                    value = digest({"btb": row.get("btb"),
                                    "ipc": row.get("ipc")})[:16]
                    if not row.get("cached"):
                        ok = False
                        notes.append(f"store miss on {key}")
                    if table.setdefault(key, value) != value:
                        ok = False
                        notes.append(f"{key} answered two ways")
                    records += row.get("length") or 0
                failed += not ok
            wall = time.perf_counter() - start
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        return Pass(wall, records, spans, table, len(self.requests),
                    failed, store, notes[:5])


WORKLOADS = {cls.name: cls for cls in (Fig11Cold, SweepCold, ServeWarm)}


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN_PATH.read_text())
    except FileNotFoundError:
        return {}


def percentile(samples: List[float], pct: int) -> float:
    """Nearest-rank percentile, ``pct`` a whole number."""
    ordered = sorted(samples)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Tuple[int, int]:
    """The highest whole percentile, at most 99, with at least 10 of
    ``n`` samples beyond it, and how many are beyond it."""
    for pct in range(99, 50, -1):
        beyond = n - -(-pct * n // 100)
        if beyond >= 10:
            return pct, beyond
    return 50, n - -(-50 * n // 100)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one invocation prints: the contract fields plus echo lines."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    lines: List[str]

    def result_json(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()}})


def check_golden(workload: Workload, passes: List[Pass], golden: dict,
                 lines: List[str]) -> int:
    """Failed operations over ``passes``: a pass whose table differs
    from the golden counts every one of its operations as failed."""
    expected = golden.get(workload.name, {}).get(workload.golden_key)
    if expected is None:
        lines.append(f"golden: none for {workload.name} "
                     f"{workload.golden_key}")
        return sum(p.attempted for p in passes)
    failed = 0
    for p in passes:
        if p.table != expected:
            lines.append(f"golden: MISMATCH digest {digest(p.table)[:16]}"
                         f" != {digest(expected)[:16]}")
            failed += p.attempted
        else:
            failed += p.failed
    return failed


def measure(workload: Workload, seconds: float, golden: dict) -> Outcome:
    """The untraced run: set up, then passes for ``seconds``."""
    lines: List[str] = []
    setup_s, setup_host_s = workload.setup(workload.scale.setup_repeats)
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(probed_pass(workload))
        shutil.rmtree(passes[-1].store_root, ignore_errors=True)
        if time.perf_counter() - start >= seconds \
                and workload.enough(passes):
            break
    rss = peak_rss_mb()
    attempted = sum(p.attempted for p in passes)
    failed = check_golden(workload, passes, golden, lines)
    busy = sum(p.scaled_wall_s for p in passes)
    latencies = [x for p in passes for x in p.latencies()]
    tail, beyond = tail_percentile(len(latencies))
    lines.append(f"passes={len(passes)} latency samples={len(latencies)} "
                 f"latency_p99_ms carries p{tail} ({beyond} beyond it)")
    lines.append(f"failed_frac={failed / attempted:.4f} "
                 f"({failed}/{attempted}) digest={digest(passes[0].table)}")
    for p in passes:
        lines.extend(p.notes)
    claims = passes[0].table.get("claims")
    if claims:
        lines.append("claims: " + " ".join(
            f"{name}={status}" for name, status in sorted(claims.items())))
    lines.append(
        f"host seconds: setup_s={setup_host_s:.4f} wall_s="
        f"{statistics.median(p.wall_s for p in passes):.4f}; speed scale "
        f"median {statistics.median(p.speed_scale for p in passes):.4f}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.scaled_wall_s for p in passes), "s"),
        "peak_rss_mb": (rss, "MB"),
        "records_per_s": (sum(p.records for p in passes) / busy, "1/s"),
        "requests_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p99_ms": (percentile(latencies, tail) * 1e3, "ms"),
    }
    return Outcome(failed == 0, attempted, failed, metrics, lines)


def measure_traced(workload: Workload, golden: dict) -> Outcome:
    """One untraced and one traced pass; per-layer metrics from the
    traced one.  Both must match the golden, each other's result digest,
    and each other's fast-path ratios.  The traced pass runs second on
    even seeds and first on odd ones, so that over many runs the order
    does not bias ``tracing_overhead_pct``."""
    from layertrace import LayerTrace
    lines: List[str] = []
    workload.setup(1)
    legs = {}
    order = (False, True) if workload.seed % 2 == 0 else (True, False)
    for timed in order:
        trace = LayerTrace(timed=timed)
        with trace:
            p = probed_pass(workload,
                            span=trace.span if timed else nullcontext)
        p.files_end = count_files(p.store_root)
        shutil.rmtree(p.store_root, ignore_errors=True)
        legs[timed] = (trace, p)
    (plain, p0), (traced, p1) = legs[False], legs[True]
    attempted = p0.attempted + p1.attempted
    failed = check_golden(workload, [p0, p1], golden, lines)
    for name in ("btb.fast_path", "frontend.fast_path"):
        if plain.ratio(name) != traced.ratio(name):
            lines.append(f"{name} ratio changed under tracing: "
                         f"{plain.ratio(name)} -> {traced.ratio(name)}")
            failed = attempted
    if digest(p0.table) != digest(p1.table):
        lines.append("result digest changed under tracing")
        failed = attempted
    lines.append(f"digest={digest(p1.table)} host seconds: untraced "
                 f"wall={p0.wall_s:.3f}s traced wall={p1.wall_s:.3f}s "
                 f"traced pass {'second' if order[1] else 'first'}")
    metrics = traced.layer_metrics(p1.wall_s)
    gets = traced.counts["store.get.attempts"]
    metrics["store.hit_ratio"] = (
        traced.counts["store.get.accepted"] / gets if gets else 0.0,
        "ratio")
    metrics["store.files_end"] = (p1.files_end, "count")
    metrics["tracing_overhead_pct"] = (
        100.0 * (p1.scaled_wall_s - p0.scaled_wall_s) / p0.scaled_wall_s,
        "%")
    return Outcome(failed == 0, attempted, failed, metrics, lines)


def _setup_child(argv: List[str]) -> int:
    """One set-up in this fresh interpreter: import the workload's
    modules, then fill the snapshot directory.  Prints the speed scale
    of the set-up for the parent."""
    name, scale, seed, snapshot = argv
    with SpeedProbe() as probe:
        pin_env()
        workload = WORKLOADS[name](SCALES[scale], int(seed),
                                   Path(snapshot).parent)
        for module in workload.modules:
            importlib.import_module(module)
        workload.fill(Path(snapshot))
    print(probe.scale())
    return 0


if __name__ == "__main__":
    sys.exit(_setup_child(sys.argv[1:]))
