"""Minimal client for the simulation service's line-JSON protocol.

Stdlib-asyncio only, like the server.  The client is deliberately thin:
it frames requests, demultiplexes response lines by request ``id``, and
hands events back in arrival order — policy (retries, pools, TLS) is
the caller's business.

::

    client = await ServiceClient.connect(host, port)
    events = await client.request({"op": "sweep", "tenant": "alice",
                                   "apps": ["tomcat"],
                                   "policies": ["lru", "srrip"],
                                   "mode": "misses", "length": 4000})
    done = events[-1]            # the "done" summary event
    await client.close()

For scripts and tests, :func:`request_once` wraps
connect → request → close into one call, and both entry points accept
an ``on_event`` callback that sees every event (``accepted`` /
``result`` / ``done`` / ``error``) as it arrives, preserving the
server's incremental streaming.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.service.framing import LineFrameBuffer, encode_line
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import new_root_context

__all__ = ["ServiceClient", "request_once"]

#: Event names that end a request's wait.
TERMINAL_EVENTS = ("done", "status", "metrics", "bye", "error")

#: Bytes per ``StreamReader.read`` — chunked reads through the shared
#: frame buffer, so response lines are not capped by asyncio's default
#: 64 KiB ``readline`` limit.
_READ_CHUNK = 256 * 1024


class ServiceClient:
    """One connection to a running simulation service."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 max_frame_bytes: Optional[int] = None):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._frames: Deque[Dict[str, Any]] = deque()
        self._buffer = (LineFrameBuffer() if max_frame_bytes is None
                        else LineFrameBuffer(max_frame_bytes))

    async def _next_event(self) -> Dict[str, Any]:
        """The next response frame, via the shared line-frame buffer
        (oversized frames raise
        :class:`~repro.service.framing.FrameTooLargeError`, a
        connection severed mid-line raises
        :class:`~repro.service.framing.TornFrameError`)."""
        while not self._frames:
            data = await self._reader.read(_READ_CHUNK)
            if not data:
                self._buffer.eof()
                raise ConnectionError("service closed the connection")
            self._frames.extend(self._buffer.feed(data))
        return self._frames.popleft()

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, request: Dict[str, Any],
                      on_event: Optional[Callable[[Dict[str, Any]],
                                                  None]] = None
                      ) -> List[Dict[str, Any]]:
        """Send one request and collect its events until the terminal
        one (``done``, ``status``, ``metrics``, ``bye``, or
        ``error``).

        With telemetry on (see :mod:`repro.telemetry.tracing`) every job
        request is stamped with a fresh root trace context — the
        client's node in the trace the service and its workers link
        their spans under.  Callers propagate an outer trace by
        supplying their own ``trace`` field.
        """
        request = dict(request)
        request.setdefault("id", f"c{next(self._ids)}")
        if get_registry().enabled and request.get("op") in (
                "simulate", "sweep", "profile"):
            request.setdefault("trace", new_root_context().to_dict())
        self._writer.write(encode_line(request))
        await self._writer.drain()
        events: List[Dict[str, Any]] = []
        while True:
            event = await self._next_event()
            event_id = event.get("id")
            if event_id != request["id"]:
                # Another pipelined request's event is not ours to
                # handle; a connection-level error (id null — the
                # server could not parse some line) is surfaced through
                # on_event but never ends this request's wait.
                if event_id is None and on_event is not None:
                    on_event(event)
                continue
            events.append(event)
            if on_event is not None:
                on_event(event)
            if event.get("event") in TERMINAL_EVENTS:
                return events

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


async def request_once(host: str, port: int, request: Dict[str, Any],
                       on_event: Optional[Callable[[Dict[str, Any]],
                                                   None]] = None
                       ) -> List[Dict[str, Any]]:
    """connect → request → close, returning the request's events."""
    client = await ServiceClient.connect(host, port)
    try:
        return await client.request(request, on_event=on_event)
    finally:
        await client.close()
