"""One span primitive: registry timings and journaled trace records.

:func:`span` times a block once and reports it twice:

* into the process :class:`~repro.telemetry.metrics.MetricsRegistry`,
  under the block's hierarchical path (``engine.job/harness.misses``) —
  what the run manifest, ``report``, ``top`` and the Prometheus span
  families read;
* when a :func:`collect_spans` scope is open, as one JSON-ready journal
  record carrying a **trace context** — what ``events.jsonl`` and
  ``python -m repro.tools.trace_export`` read.

A trace context is the ``(trace_id, span_id, parent_id)`` triple that
names one node of a request's causality tree.  Contexts are created at
the edge (a :class:`~repro.service.client.ServiceClient` request), carried
through the service and the engine, and pickled into
:class:`~repro.harness.engine.SimJob` so a process-pool worker's spans
link back to the client that caused them::

    client root span
      └─ service.request          (server-side, per wire request)
           └─ engine.job          (worker-side, span_id == the job's
              ├─ store.get         pickled context)
              ├─ harness.misses
              └─ store.put

Both the path and the ambient context live in contextvars, so
concurrent asyncio tasks and executor threads can neither nest under
nor steal each other's spans.  Workers ship their collected records
home in ``JobResult.span_records``; the parent journals them into the
run's ``events.jsonl`` next to the job-state rows.  Regions timed after
the fact (the engine run, a service request or batch, a fabric lease)
build their record with :func:`span_record`.

Every span name is in :data:`SPAN_NAMES`.  The one on/off gate is the
process registry's ``enabled`` flag (a ``MetricsRegistry(enabled=False)``
installed with :func:`~repro.telemetry.metrics.set_registry`); with it
off, :func:`span` is a cheap no-op.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.telemetry.metrics import get_registry

__all__ = ["SPAN_NAMES", "Span", "TraceContext", "child_context",
           "collect_spans", "new_root_context", "new_span_id",
           "new_trace_id", "span", "span_record"]

#: Every span name in the tree.  A name shared with a benchmark layer
#: (``engine.run``, ``service.request``, ``store.*``,
#: ``frontend.simulate``) times the same region as that layer.
SPAN_NAMES = (
    "engine.run",         # one engine run (journal record)
    "engine.job",         # one job attempt in whichever process runs it
    "service.request",    # one wire request (journal record)
    "service.batch",      # one coalesced batch (journal record)
    "fabric.lease",       # one lease on a fabric host (journal record)
    "store.get",          # a job's result lookup
    "store.put",          # a job's result write
    "store.fetch",        # get-or-compute of an intermediate artifact
    "harness.trace",      # trace generation (store miss)
    "harness.profile",    # OPT profiling (store miss)
    "harness.hints",      # temperature quantization (store miss)
    "harness.sim",        # one timing simulation
    "harness.misses",     # one BTB-only replay
    "core.opt_replay",    # the OPT replay inside profiling
    "frontend.simulate",  # the frontend model's simulate
    "frontend.warmup",    # the reference loop's warmup region
    "frontend.measure",   # its measured region (fast path: the reduction)
    "frontend.direction",  # fast path: the direction pass (or memo hit)
    "frontend.icache",    # fast path: the I-cache pass (or memo hit)
    "frontend.btb",       # fast path: the BTB pass
    "frontend.fdip",      # fast path: the FDIP pass
)


def new_trace_id() -> str:
    """A 128-bit random trace id (hex, W3C-sized)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A 64-bit random span id (hex)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One node of a trace: ``span_id`` under ``trace_id``, caused by
    ``parent_id`` (None for a root).  Frozen and field-only, so it
    pickles into :class:`~repro.harness.engine.SimJob` and crosses the
    process-pool boundary intact."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child_context(self) -> "TraceContext":
        return TraceContext(self.trace_id, new_span_id(), self.span_id)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"trace_id": self.trace_id,
                                "span_id": self.span_id}
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        return data

    @classmethod
    def from_dict(cls, data: Any) -> Optional["TraceContext"]:
        """A context from its wire/journal dict, or None when the dict
        is missing the identifying fields (tolerant by design: a trace
        field from an older client must never fail a request)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not trace_id or not span_id:
            return None
        parent = data.get("parent_id")
        return cls(str(trace_id), str(span_id),
                   str(parent) if parent else None)


def new_root_context() -> TraceContext:
    return TraceContext(new_trace_id(), new_span_id(), None)


#: Ambient context of the innermost journaled span (contextvar: safe
#: across asyncio tasks and executor threads).
_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_current", default=None)
#: Registry path of the innermost open span ("" at the top level).
_PATH: ContextVar[str] = ContextVar("repro_span_path", default="")
#: The innermost collection scope's sink (None: spans are dropped).
_SINK: ContextVar[Optional[List[dict]]] = ContextVar(
    "repro_trace_sink", default=None)


def child_context(parent: Optional[TraceContext] = None) -> TraceContext:
    """A child of ``parent`` — or of the ambient context — or, with
    neither, a fresh root."""
    base = parent if parent is not None else _CURRENT.get()
    return base.child_context() if base is not None else new_root_context()


@contextmanager
def collect_spans() -> Iterator[List[dict]]:
    """Open a collection scope: spans finished inside the block are
    appended to the yielded list (innermost scope wins).  Workers wrap a
    job attempt in one scope and ship the list home in
    ``JobResult.span_records``."""
    sink: List[dict] = []
    token = _SINK.set(sink)
    try:
        yield sink
    finally:
        _SINK.reset(token)


def span_record(name: str, context: TraceContext, start_epoch: float,
                duration: float, args: Optional[Dict[str, Any]] = None,
                error: bool = False) -> Dict[str, Any]:
    """One finished span as the JSON-ready journal record shape."""
    record: Dict[str, Any] = {
        "kind": "span",
        "name": name,
        "trace_id": context.trace_id,
        "span_id": context.span_id,
        "t": round(start_epoch, 6),
        "dur": round(duration, 6),
        "pid": os.getpid(),
        "tid": threading.get_ident() % 1_000_000,
    }
    if context.parent_id is not None:
        record["parent_id"] = context.parent_id
    if args:
        record["args"] = dict(args)
    if error:
        record["error"] = True
    return record


class _NullSpan:
    """The inert span yielded when no collection scope is open."""

    __slots__ = ()
    context = None

    def set(self, **args: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


@dataclass
class Span:
    """A journaled span in flight; ``args`` may be amended
    (``span.set(...)``) until the block exits."""

    context: TraceContext
    args: Dict[str, Any] = field(default_factory=dict)

    def set(self, **args: Any) -> None:
        self.args.update(args)


@contextmanager
def span(name: str, *, context: Optional[TraceContext] = None,
         parent: Optional[TraceContext] = None, **args: Any):
    """Time a block as one span named ``name`` (from :data:`SPAN_NAMES`).

    The time, and an error when the block raises, is added to the
    process registry under the span's path: its name below the
    innermost open span's path.  Inside a :func:`collect_spans` scope
    the span is also appended there as a journal record: ``context``
    pins its identity (the worker-side job span's identity is the
    context pickled into the job); otherwise it is a child of
    ``parent`` or of the ambient context, and nested spans link up
    automatically.  Outside a scope, or with the registry disabled, an
    inert span is yielded and ``args`` are dropped.
    """
    registry = get_registry()
    if not registry.enabled:
        yield _NULL_SPAN
        return
    outer = _PATH.get()
    path = f"{outer}/{name}" if outer else name
    path_token = _PATH.set(path)
    sink = _SINK.get()
    live: Any = _NULL_SPAN
    if sink is not None:
        live = Span(context if context is not None
                    else child_context(parent), dict(args))
        context_token = _CURRENT.set(live.context)
        start_epoch = time.time()
    start = time.perf_counter()
    failed = False
    try:
        yield live
    except BaseException:
        failed = True
        raise
    finally:
        duration = time.perf_counter() - start
        _PATH.reset(path_token)
        registry.add_span(path, duration, errors=int(failed))
        if sink is not None:
            _CURRENT.reset(context_token)
            sink.append(span_record(name, live.context, start_epoch,
                                    duration, args=live.args,
                                    error=failed))
