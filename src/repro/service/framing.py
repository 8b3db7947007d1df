"""Line-JSON framing for the simulation service's wire.

One JSON object per ``\\n``-terminated line is the repo's only wire
format — the simulation service (:mod:`repro.service`) and its client
speak it.  This module owns the *transport-agnostic* mechanics both
endpoints need: encoding, decoding, incremental buffering of partial
reads, oversized-frame protection, and torn-frame detection at EOF.

:class:`LineFrameBuffer` is the core: feed it whatever byte chunks the
transport produced (asyncio ``read()``, a test's hand-cut slices) and
it hands back complete decoded frames, buffering torn lines until their
remainder arrives.  A line longer than
``max_frame_bytes`` raises :class:`FrameTooLargeError` and the buffer
*resynchronizes* at the next newline, so one oversized frame cannot
wedge the connection; a connection that closes with a partial line still
buffered is a torn frame (:meth:`LineFrameBuffer.eof`).

The asyncio :class:`~repro.service.client.ServiceClient` drives the
buffer from ``StreamReader.read`` chunks; the server reads each request
line from a ``StreamReader`` whose limit is :data:`MAX_FRAME_BYTES`
(dropping and reporting a longer one) and decodes it with
:func:`decode_line`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

__all__ = ["FrameTooLargeError", "LineFrameBuffer", "MAX_FRAME_BYTES",
           "ProtocolError", "TornFrameError", "decode_line",
           "encode_line"]

#: Default per-frame ceiling.  Generous — a legitimate event line (one
#: job's result, a run's ``done`` summary with its merged telemetry) is
#: orders of magnitude smaller, so the bound never limits a real
#: response — while still bounding what one malformed or hostile line
#: can make an endpoint buffer.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A line the receiver cannot act on (reported, not fatal: the
    buffer has already consumed the bad line, so the connection can
    keep serving subsequent frames)."""


class FrameTooLargeError(ProtocolError):
    """A line exceeded the buffer's ``max_frame_bytes`` ceiling.

    The oversized bytes are discarded and the buffer resynchronizes at
    the next newline — the caller decides whether that is fatal (a
    client mid-request) or survivable (a server skipping one bad line).
    """


class TornFrameError(ProtocolError):
    """The transport closed with a partial line still buffered — the
    peer died (or was severed) mid-frame."""


def encode_line(obj: Dict[str, Any]) -> bytes:
    """One frame as a compact, key-sorted JSON line."""
    return (json.dumps(obj, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one frame (must be a JSON object)."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from None
    except RecursionError:
        raise ProtocolError("not a JSON line: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ProtocolError("frame must be a JSON object")
    return obj


class LineFrameBuffer:
    """Incremental line-JSON decoder over arbitrary byte chunks.

    ``feed(data)`` appends ``data`` and returns every frame completed by
    it (empty list when the bytes end mid-line: the partial line stays
    buffered for the next feed).  Errors — an oversized line, an
    undecodable line — raise *after the offending line has been
    consumed*, so a caller that survives the exception keeps a usable
    buffer; frames decoded before the error are not lost, the next
    ``feed`` (even ``feed(b"")``) returns them first.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = int(max_frame_bytes)
        self._buf = bytearray()
        #: Leading bytes of ``_buf`` searched and holding no newline: a
        #: frame fed in many chunks is scanned once, not once per chunk.
        self._scanned = 0
        self._ready: List[Dict[str, Any]] = []
        self._discarding = False

    @property
    def pending_bytes(self) -> int:
        """Bytes of the current partial (torn) line."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume ``data``; return the frames it completed."""
        self._buf += data
        while True:
            newline = self._buf.find(b"\n", self._scanned)
            if newline < 0:
                if self._discarding:
                    # Still inside the oversized line: drop and wait.
                    self._buf.clear()
                self._scanned = len(self._buf)
                if len(self._buf) > self.max_frame_bytes:
                    self._buf.clear()
                    self._scanned = 0
                    self._discarding = True
                    raise FrameTooLargeError(
                        f"frame exceeds {self.max_frame_bytes} bytes "
                        f"(discarding until the next newline)")
                break
            line = bytes(self._buf[:newline])
            del self._buf[:newline + 1]
            self._scanned = 0
            if self._discarding:
                # The tail of the oversized line; resynchronized now.
                self._discarding = False
                continue
            if len(line) > self.max_frame_bytes:
                raise FrameTooLargeError(
                    f"frame of {len(line)} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte ceiling")
            if not line.strip():
                continue
            self._ready.append(decode_line(line))
        out = self._ready
        self._ready = []
        return out

    def eof(self) -> None:
        """Declare end-of-stream; raises :class:`TornFrameError` if a
        partial line is still buffered."""
        if self._buf or self._discarding:
            torn = len(self._buf)
            self._buf.clear()
            self._scanned = 0
            self._discarding = False
            raise TornFrameError(
                f"connection closed mid-frame ({torn} byte(s) of a "
                f"partial line buffered)")
