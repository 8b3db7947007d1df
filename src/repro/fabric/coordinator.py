"""The fabric coordinator: lease groups to worker hosts, steal, heal.

The coordinator is the distributed sweep's brain, built *around* the
existing engine rather than beside it: it owns a normal
:class:`~repro.harness.engine.core.ExperimentEngine` and installs a
:class:`FabricExecutor` into it, so run ids, journals, manifests,
retries, resume, and the :class:`ExperimentError` contract all work
unchanged — only the "run pending jobs to termination" step is
distributed.  Worker hosts (:mod:`repro.fabric.worker`) connect over a
single line-JSON socket each and drive a worker-initiated protocol:
register, lease, report, heartbeat.

Scheduling: pending jobs are grouped into their natural *batch groups*
(one per (app, input, machine config) — the same
:func:`~repro.harness.engine.keys.batch_key` the process pool's
batches use, never split), shuffled by ``partition_seed``, and dealt
round-robin into one bucket per expected host.  A host leases from the
front of its own bucket; a host whose bucket has drained **steals**
from the tail of the largest other bucket.  Because every group runs
whole on exactly one host, per-job cache-stat deltas — and therefore
the merged manifest — are byte-identical to a serial run of the same
job list.

Failure handling: a host is *lost* when its socket drops or its
heartbeats go stale.  Every unreported job of its open leases is
ghost-failed (the same ``worker died`` pattern the process pool uses
for a broken pool), re-queued through the normal retry budget, and
re-leased to surviving hosts (``fabric/releases`` counts one per
released lease, ``fabric/hosts_lost`` one per host).  If *every* host
is gone the run keeps waiting one grace period for a replacement (the
launcher's supervisor respawns dead hosts) and only then fails with
:class:`FabricError`.
"""

from __future__ import annotations

import logging
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.fabric.wire import pack, unpack, unpack_bytes
from repro.harness.engine.context import RunContext
from repro.harness.engine.core import ExperimentEngine
from repro.harness.engine.executor import Executor
from repro.harness.engine.jobs import JobResult, JobState, backoff_delay
from repro.harness.engine.keys import batch_key
from repro.harness.engine.store import ArtifactStore
from repro.service.framing import (ProtocolError, SocketFrameReader,
                                   send_frame)
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import span_record

log = logging.getLogger(__name__)

__all__ = ["FabricCoordinator", "FabricError", "FabricExecutor"]


class FabricError(RuntimeError):
    """The fabric itself failed the run (e.g. every worker host died
    and none replaced them within the grace period)."""


@dataclass
class _Group:
    """One schedulable unit: a whole batch group (or a retry singleton),
    eligible to lease once ``not_before`` has passed."""

    indices: Tuple[int, ...]
    not_before: float = 0.0


@dataclass
class _Host:
    """One registered worker host (its socket is owned by the serve
    thread; the coordinator only closes it to force an unblock)."""

    name: str
    conn: socket.socket
    artifact: str
    slot: int
    last_seen: float
    lost: bool = False
    #: Whether ``fabric/hosts_registered`` has counted this host.  A host
    #: that registers while no run is installed is counted when the next
    #: run installs, so the count lands inside that run's telemetry
    #: delta however the registration raced the run's start.
    counted: bool = False


@dataclass
class _Lease:
    """One outstanding lease: a group granted to one host, open until
    every index reports (or the host is lost)."""

    id: str
    host: str
    indices: Tuple[int, ...]
    unreported: Set[int]
    started_epoch: float


@dataclass
class _RunState:
    """The coordinator's view of one active engine run."""

    ctx: RunContext
    pending: List[int]
    buckets: List[List[_Group]]
    leases: Dict[str, _Lease] = field(default_factory=dict)
    complete: bool = False
    error: Optional[BaseException] = None
    #: Monotonic deadline for the zero-live-hosts grace period (None
    #: while at least one host is live, or before the run starts).
    grace_deadline: Optional[float] = None


class FabricExecutor(Executor):
    """The engine-side face of the fabric: hand the run's pending jobs
    to the coordinator and block until they are terminal.

    ``uses_workers`` is True because attempts run in worker-host
    processes whose telemetry registries die with them — exactly the
    process-pool situation — so the engine merges each result's
    telemetry delta into the manifest.
    """

    name = "fabric"
    uses_workers = True

    def __init__(self, engine, coordinator: "FabricCoordinator") -> None:
        super().__init__(engine)
        self.coordinator = coordinator

    def execute(self, ctx: RunContext, pending: Sequence[int]) -> None:
        self.coordinator._execute(ctx, pending)


class FabricCoordinator:
    """Coordinator host: owns the engine, the listener, and the leases.

    Lifecycle: :meth:`bind` (allocate the address — *before* forking
    local workers, so their connects queue in the TCP backlog),
    :meth:`start` (accept + monitor threads), :meth:`run` (one engine
    run distributed over whoever registers), :meth:`finish` (tell
    workers to exit), :meth:`close`.
    """

    def __init__(self, cache_dir: Union[str, Path, None] = None, *,
                 hosts: int = 3, partition_seed: int = 0,
                 max_retries: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 heartbeat_timeout: float = 5.0, grace: float = 20.0,
                 host: str = "127.0.0.1", port: int = 0,
                 store: Optional[ArtifactStore] = None,
                 manifest_dir: Union[str, Path, None] = None):
        self.hosts_expected = max(1, int(hosts))
        self.partition_seed = int(partition_seed)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.grace = float(grace)
        self.engine = ExperimentEngine(
            cache_dir=cache_dir, jobs=self.hosts_expected,
            max_retries=max_retries, job_timeout=job_timeout,
            store=store, manifest_dir=manifest_dir)
        self.engine.set_executor(FabricExecutor(self.engine, self))
        self._bind_host = host
        self._bind_port = int(port)
        self.address: Optional[str] = None
        self._listener: Optional[socket.socket] = None
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._hosts: Dict[str, _Host] = {}
        self._run: Optional[_RunState] = None
        self._finished = False
        self._started = False
        self._closed = threading.Event()
        self._next_host = 0
        self._next_slot = 0
        self._next_lease = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self) -> str:
        """Bind the listening socket and return ``host:port``."""
        if self._listener is None:
            self._listener = socket.create_server(
                (self._bind_host, self._bind_port))
            bound_host, bound_port = self._listener.getsockname()[:2]
            self.address = f"{bound_host}:{bound_port}"
        return self.address

    def start(self) -> None:
        """Start the accept and liveness-monitor threads (daemons)."""
        self.bind()
        if self._started:
            return
        self._started = True
        threading.Thread(target=self._accept_loop, daemon=True,
                         name="fabric-accept").start()
        threading.Thread(target=self._monitor_loop, daemon=True,
                         name="fabric-monitor").start()

    def run(self, jobs, resume: Optional[str] = None,
            on_result=None) -> List[JobResult]:
        """One engine run, distributed over the registered hosts (the
        full :meth:`ExperimentEngine.run` contract, resume included)."""
        return self.engine.run(jobs, resume=resume, on_result=on_result)

    def reopen(self) -> None:
        """Allow further runs after a :meth:`finish` (resume legs)."""
        with self._cond:
            self._finished = False

    def finish(self) -> None:
        """Tell every worker the sweep is over (their next lease poll
        answers ``done``)."""
        with self._cond:
            self._finished = True
            self._cond.notify_all()

    def close(self) -> None:
        self._closed.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._cond:
            for host in self._hosts.values():
                try:
                    host.conn.close()
                except OSError:
                    pass
            self._cond.notify_all()

    def run_active(self) -> bool:
        """True while a run is installed and still needs hosts (the
        launcher's supervisor respawns dead workers only then)."""
        with self._lock:
            state = self._run
            return (state is not None and not state.complete
                    and state.error is None and not self._finished)

    def live_hosts(self) -> List[str]:
        with self._lock:
            return [name for name, h in self._hosts.items()
                    if not h.lost]

    # ------------------------------------------------------------------
    # Executor seam
    # ------------------------------------------------------------------
    def _execute(self, ctx: RunContext, pending: Sequence[int]) -> None:
        self._install_run(ctx, pending)
        try:
            self._wait_run()
        finally:
            self._clear_run()

    def _install_run(self, ctx: RunContext,
                     pending: Sequence[int]) -> None:
        groups: Dict[Tuple, List[int]] = {}
        for i in pending:
            groups.setdefault(batch_key(ctx.jobs[i]), []).append(i)
        ordered = list(groups.values())
        # The seeded shuffle is the sweep's host-partition: any seed
        # must converge to the same manifest (pinned by the property
        # test), the seed only decides who computes what.
        random.Random(self.partition_seed).shuffle(ordered)
        buckets: List[List[_Group]] = \
            [[] for _ in range(self.hosts_expected)]
        for k, indices in enumerate(ordered):
            buckets[k % self.hosts_expected].append(
                _Group(indices=tuple(indices)))
        with self._cond:
            state = _RunState(ctx=ctx, pending=list(pending),
                              buckets=buckets)
            if not state.pending:
                state.complete = True
            self._run = state
            for host in self._hosts.values():
                if not host.counted:
                    self._count_registered(host)
            self._cond.notify_all()
        log.info("fabric run %s: %d job(s) in %d group(s) over %d host "
                 "bucket(s)", ctx.run_id, len(state.pending),
                 len(ordered), self.hosts_expected)

    def _wait_run(self) -> None:
        with self._cond:
            while True:
                state = self._run
                assert state is not None
                if state.error is not None:
                    raise state.error
                if state.complete:
                    return
                self._cond.wait(0.5)

    def _clear_run(self) -> None:
        with self._cond:
            self._run = None
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_conn, args=(conn,),
                             daemon=True, name="fabric-conn").start()

    def _serve_conn(self, conn: socket.socket) -> None:
        reader = SocketFrameReader(conn)
        name: Optional[str] = None
        try:
            while True:
                try:
                    frame = reader.read_frame()
                except ProtocolError as exc:
                    log.warning("fabric: protocol error from %s: %s",
                                name or "unregistered peer", exc)
                    break
                if frame is None:
                    break
                op = frame.get("op")
                if op == "register":
                    name, reply = self._register(conn, frame)
                elif name is None:
                    reply = {"event": "error",
                             "error": "register first"}
                elif op == "heartbeat":
                    self._touch(name)
                    continue
                elif op == "lease":
                    self._touch(name)
                    reply = self._lease(name)
                elif op == "result":
                    self._touch(name)
                    reply = self._result(name, frame)
                else:
                    reply = {"event": "error",
                             "error": f"unknown op {op!r}"}
                try:
                    send_frame(conn, reply)
                except OSError:
                    break
        finally:
            if name is not None:
                self._host_lost(name, "connection closed")
            try:
                conn.close()
            except OSError:
                pass

    def _register(self, conn: socket.socket,
                  frame: dict) -> Tuple[str, dict]:
        with self._cond:
            requested = frame.get("host")
            name = str(requested) if requested else f"h{self._next_host}"
            self._next_host += 1
            base, k = name, 2
            while name in self._hosts:
                name, k = f"{base}-{k}", k + 1
            host = _Host(name=name, conn=conn,
                         artifact=str(frame.get("artifact") or ""),
                         slot=self._next_slot % self.hosts_expected,
                         last_seen=time.monotonic())
            self._next_slot += 1
            self._hosts[name] = host
            if self._run is not None:
                # A replacement host arrived: the zero-live-hosts clock
                # stops ticking.
                self._run.grace_deadline = None
                self._count_registered(host)
            log.info("fabric: host %s registered (slot %d, artifacts at "
                     "%s)", name, host.slot, host.artifact or "-")
            interval = min(2.0, max(0.2, self.heartbeat_timeout / 4.0))
            reply = {"event": "registered", "host": name,
                     "salt": self.engine.salt,
                     "job_timeout": self.engine.job_timeout,
                     "heartbeat": interval,
                     "peers": self._peer_map(exclude=name)}
            self._cond.notify_all()
            return name, reply

    @staticmethod
    def _count_registered(host: _Host) -> None:
        get_registry().count("fabric/hosts_registered")
        host.counted = True

    def _touch(self, name: str) -> None:
        with self._lock:
            host = self._hosts.get(name)
            if host is not None:
                host.last_seen = time.monotonic()

    def _peer_map(self, exclude: str) -> Dict[str, str]:
        return {n: h.artifact for n, h in self._hosts.items()
                if not h.lost and h.artifact and n != exclude}

    # ------------------------------------------------------------------
    # Leasing and stealing
    # ------------------------------------------------------------------
    def _lease(self, name: str) -> dict:
        with self._cond:
            host = self._hosts.get(name)
            if host is None or host.lost or self._finished:
                return {"event": "done"}
            state = self._run
            if state is None or state.complete:
                return {"event": "drain", "delay": 0.05}
            if state.error is not None:
                return {"event": "done"}
            now = time.monotonic()
            group = self._pop_group(state, host.slot, now)
            if group is None:
                return {"event": "drain",
                        "delay": self._drain_delay(state, now)}
            ctx = state.ctx
            lease_id = f"L{self._next_lease}"
            self._next_lease += 1
            entries = []
            for i in group.indices:
                ctx.start_attempt(i)
                entries.append({"index": i,
                                "attempt": ctx.attempts[i] - 1,
                                "app": ctx.jobs[i].app,
                                "policy": ctx.jobs[i].policy,
                                "job": pack(ctx.jobs[i])})
            state.leases[lease_id] = _Lease(
                id=lease_id, host=name, indices=group.indices,
                unreported=set(group.indices),
                started_epoch=time.time())
            get_registry().count("fabric/leases")
            log.debug("fabric: lease %s -> %s (%d job(s))", lease_id,
                      name, len(entries))
            return {"event": "lease", "lease": lease_id,
                    "jobs": entries, "runtime": ctx.runtime.to_dict(),
                    "peers": self._peer_map(exclude=name)}

    def _pop_group(self, state: _RunState, slot: int,
                   now: float) -> Optional[_Group]:
        """The next eligible group for ``slot``: front of its own
        bucket, else stolen from the tail of the largest other one."""
        own = state.buckets[slot]
        for pos, group in enumerate(own):
            if group.not_before <= now:
                return own.pop(pos)
        victims = sorted(
            (k for k in range(len(state.buckets)) if k != slot),
            key=lambda k: len(state.buckets[k]), reverse=True)
        for k in victims:
            bucket = state.buckets[k]
            for pos in range(len(bucket) - 1, -1, -1):
                if bucket[pos].not_before <= now:
                    get_registry().count("fabric/steals")
                    return bucket.pop(pos)
        return None

    def _drain_delay(self, state: _RunState, now: float) -> float:
        deadlines = [group.not_before for bucket in state.buckets
                     for group in bucket]
        if not deadlines:
            return 0.05
        return min(0.25, max(0.01, min(deadlines) - now))

    def _requeue(self, state: _RunState, index: int) -> None:
        """Put a retried job back as a singleton group, backed off, in
        the least-loaded bucket (the next free host picks it up)."""
        ctx = state.ctx
        delay = backoff_delay(ctx.attempts[index] - 1,
                              base=self.engine.backoff_base,
                              cap=self.engine.backoff_cap, rng=ctx.rng)
        target = min(range(len(state.buckets)),
                     key=lambda k: len(state.buckets[k]))
        state.buckets[target].append(
            _Group(indices=(index,),
                   not_before=time.monotonic() + delay))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _result(self, name: str, frame: dict) -> dict:
        try:
            result: JobResult = unpack(frame["result"])
            blob = unpack_bytes(frame.get("artifact"))
            index = int(frame["index"])
            lease_id = str(frame.get("lease"))
        except (KeyError, TypeError, ValueError) as exc:
            return {"event": "error", "error": f"bad result frame: {exc}"}
        # Mirror the artifact envelope byte-verbatim into the
        # coordinator store *before* any staleness decision: the store
        # is content-addressed, so adopting twice (or adopting for a
        # lease that was re-run elsewhere) replaces like with like.
        if (blob is not None and self.engine.store is not None
                and result.state == JobState.SUCCEEDED):
            key = result.job.cache_key(self.engine.salt)
            if not self.engine.store.path(result.job.mode, key).exists():
                self.engine.store.adopt_blob(result.job.mode, key, blob)
                get_registry().count("fabric/mirrored")
        with self._cond:
            state = self._run
            lease = state.leases.get(lease_id) if state else None
            if (lease is None or lease.host != name
                    or index not in lease.unreported):
                get_registry().count("fabric/results/stale")
                return {"event": "ok", "stale": True}
            lease.unreported.discard(index)
            if state.ctx.record_outcome(index, result):
                self._requeue(state, index)
            if not lease.unreported:
                self._close_lease(state, lease, error=False)
            self._check_complete(state)
            return {"event": "ok"}

    def _close_lease(self, state: _RunState, lease: _Lease,
                     error: bool) -> None:
        state.leases.pop(lease.id, None)
        ctx = state.ctx
        if ctx.trace is None or ctx.journal is None:
            return
        # The lease span crosses the fabric boundary: it parents the
        # per-attempt job spans the host shipped home inside its
        # results, so an exported trace shows which host ran what.
        ctx.journal.write_span(span_record(
            "fabric.lease", ctx.trace.child_context(),
            lease.started_epoch, time.time() - lease.started_epoch,
            args={"lease": lease.id, "host": lease.host,
                  "jobs": len(lease.indices)},
            error=error))

    def _check_complete(self, state: _RunState) -> None:
        if state.complete:
            return
        if all(state.ctx.results[i] is not None
               for i in state.pending):
            state.complete = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Host loss
    # ------------------------------------------------------------------
    def _host_lost(self, name: str, reason: str) -> None:
        with self._cond:
            host = self._hosts.get(name)
            if host is None or host.lost:
                return
            host.lost = True
            try:
                host.conn.close()
            except OSError:
                pass
            state = self._run
            active = (state is not None and not state.complete
                      and state.error is None and not self._finished)
            if not active:
                # A worker leaving after the sweep (or between runs) is
                # a graceful exit, not a loss.
                log.debug("fabric: host %s disconnected (%s)", name,
                          reason)
                self._cond.notify_all()
                return
            get_registry().count("fabric/hosts_lost")
            log.warning("fabric: host %s lost (%s)", name, reason)
            affected = [lease for lease in state.leases.values()
                        if lease.host == name and lease.unreported]
            for lease in affected:
                get_registry().count("fabric/releases")
                log.warning("fabric: re-leasing %d orphaned job(s) of "
                            "lease %s", len(lease.unreported), lease.id)
                for i in sorted(lease.unreported):
                    if state.ctx.results[i] is not None:
                        continue
                    # The pool executor's ghost pattern: the attempt is
                    # charged, the error names the dead host, and the
                    # normal retry budget decides what happens next.
                    ghost = JobResult(
                        job=state.ctx.jobs[i], value=None, cached=False,
                        seconds=0.0, state=JobState.FAILED,
                        attempt=state.ctx.attempts[i] - 1, index=i,
                        error=f"worker host {name} lost: {reason}")
                    if state.ctx.record_outcome(i, ghost):
                        self._requeue(state, i)
                lease.unreported.clear()
                self._close_lease(state, lease, error=True)
            if not any(not h.lost for h in self._hosts.values()):
                state.grace_deadline = time.monotonic() + self.grace
            self._check_complete(state)
            self._cond.notify_all()

    def _monitor_loop(self) -> None:
        while not self._closed.wait(0.25):
            now = time.monotonic()
            with self._cond:
                stale = [name for name, h in self._hosts.items()
                         if not h.lost
                         and now - h.last_seen > self.heartbeat_timeout]
            for name in stale:
                self._host_lost(name, "heartbeat timeout")
            with self._cond:
                state = self._run
                if (state is None or state.complete
                        or state.error is not None):
                    continue
                if any(not h.lost for h in self._hosts.values()):
                    state.grace_deadline = None
                    continue
                if state.grace_deadline is None:
                    state.grace_deadline = now + self.grace
                elif now >= state.grace_deadline:
                    remaining = sum(
                        1 for i in state.pending
                        if state.ctx.results[i] is None)
                    state.error = FabricError(
                        f"no live worker hosts for {self.grace:.0f}s "
                        f"with {remaining} job(s) still pending")
                    self._cond.notify_all()
