"""End-to-end request tracing: contexts, spans, cross-process linkage.

A **trace context** is the ``(trace_id, span_id, parent_id)`` triple that
names one node of a request's causality tree.  Contexts are created at
the edge (a :class:`~repro.service.client.ServiceClient` request), carried
through the service and the engine, and pickled into
:class:`~repro.harness.engine.SimJob` so a process-pool worker's spans
link back to the client that caused them::

    client root span
      └─ service/request          (server-side, per wire request)
           └─ job                 (worker-side, span_id == the job's
              ├─ store/get         pickled context)
              ├─ replay
              └─ store/put

Spans are **records**, not live objects: :func:`trace_span` times a block
and appends one JSON-ready dict to the innermost :func:`collect_spans`
scope (a contextvar, so concurrent asyncio tasks and worker threads
cannot steal each other's spans).  Workers ship their collected spans
home in ``JobResult.trace_spans``; the parent journals them into the
run's ``events.jsonl`` next to the job-state rows, and
``python -m repro.tools.trace_export`` renders the whole tree as Chrome
trace-event / Perfetto JSON.

Tracing rides the ``REPRO_TELEMETRY`` kill switch and has its own
``REPRO_TRACING`` override; with either off, every entry point here is a
cheap no-op.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.telemetry.metrics import telemetry_enabled

__all__ = ["Span", "TraceContext", "child_context", "collect_spans",
           "current_context", "new_root_context", "new_span_id",
           "new_trace_id", "record_span", "span_record", "trace_span",
           "tracing_enabled"]


def tracing_enabled() -> bool:
    """Trace spans on/off: requires ``REPRO_TELEMETRY`` (the master
    switch) and honors ``REPRO_TRACING=0`` to turn tracing alone off
    while keeping metrics."""
    if not telemetry_enabled():
        return False
    raw = os.environ.get("REPRO_TRACING", "1").strip().lower()
    return raw not in ("0", "off", "false", "no", "")


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


#: Ambient context of the innermost open span (contextvar: safe across
#: asyncio tasks and executor threads).
_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_current", default=None)
#: The innermost collection scope's sink (None: spans are dropped).
_SINK: ContextVar[Optional[List[dict]]] = ContextVar(
    "repro_trace_sink", default=None)


def current_context() -> Optional[TraceContext]:
    """The context of the innermost open :func:`trace_span` (or None)."""
    return _CURRENT.get()


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
    ``JobResult.trace_spans``."""
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


def record_span(record: Dict[str, Any]) -> None:
    """Append an already-built span record to the active collection
    scope (no-op outside one)."""
    sink = _SINK.get()
    if sink is not None:
        sink.append(record)


class _NullSpan:
    """The inert span yielded when tracing is off or uncollected."""

    __slots__ = ()
    context = None

    def set(self, **args: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


@dataclass
class Span:
    """A span in flight; ``args`` may be amended (``span.set(...)``)
    until the block exits."""

    name: str
    context: TraceContext
    args: Dict[str, Any] = field(default_factory=dict)

    def set(self, **args: Any) -> None:
        self.args.update(args)


@contextmanager
def trace_span(name: str, *, context: Optional[TraceContext] = None,
               parent: Optional[TraceContext] = None, **args: Any):
    """Time a block as one span and record it into the active
    :func:`collect_spans` scope.

    ``context`` pins the span's identity (used for the worker-side job
    span, whose identity is the context pickled into the job); otherwise
    the span is a child of ``parent`` or of the ambient context.  The
    block's ambient context becomes this span, so nested spans link up
    automatically.  With tracing disabled — or no collection scope open
    — the block runs untimed and an inert span is yielded.
    """
    sink = _SINK.get()
    if sink is None or not tracing_enabled():
        yield _NULL_SPAN
        return
    ctx = context if context is not None else child_context(parent)
    span = Span(name=name, context=ctx, args=dict(args))
    token = _CURRENT.set(ctx)
    start_epoch = time.time()
    start = time.perf_counter()
    failed = False
    try:
        yield span
    except BaseException:
        failed = True
        raise
    finally:
        duration = time.perf_counter() - start
        _CURRENT.reset(token)
        sink.append(span_record(span.name, ctx, start_epoch, duration,
                                args=span.args, error=failed))
