"""The line-JSON framing layer of the simulation service's wire.

:mod:`repro.service.framing` is the one wire format in the repo — the
asyncio service client decodes through :class:`LineFrameBuffer`.  These
are the regression tests for its failure modes: torn reads
reassembling, oversized frames raising *and resynchronizing*, and a
connection dying mid-line being reported as a torn frame on the
:class:`~repro.service.client.ServiceClient` path.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.client import ServiceClient
from repro.service.framing import (FrameTooLargeError, LineFrameBuffer,
                                   ProtocolError, TornFrameError,
                                   decode_line, encode_line)


class TestLineFrameBuffer:
    def test_torn_chunks_reassemble(self):
        buf = LineFrameBuffer()
        assert buf.feed(b'{"a": ') == []
        assert buf.pending_bytes > 0
        assert buf.feed(b'1}\n{"b": 2}\n{"c"') == [{"a": 1}, {"b": 2}]
        assert buf.feed(b": 3}\n") == [{"c": 3}]
        buf.eof()

    def test_single_byte_feeds_reassemble(self):
        buf = LineFrameBuffer()
        frames = []
        for byte in b'{"x": 42}\n':
            frames.extend(buf.feed(bytes([byte])))
        assert frames == [{"x": 42}]

    def test_blank_lines_are_skipped(self):
        buf = LineFrameBuffer()
        assert buf.feed(b'\n  \n{"a": 1}\n\n') == [{"a": 1}]

    def test_oversized_line_raises_and_resynchronizes(self):
        buf = LineFrameBuffer(max_frame_bytes=16)
        with pytest.raises(FrameTooLargeError):
            buf.feed(b"x" * 40)
        # The tail of the oversized line is discarded up to its newline;
        # the next frame decodes normally.
        assert buf.feed(b'yyy\n{"ok": 1}\n') == [{"ok": 1}]
        buf.eof()

    def test_oversized_line_with_newline_in_one_feed(self):
        buf = LineFrameBuffer(max_frame_bytes=16)
        with pytest.raises(FrameTooLargeError):
            buf.feed(b"x" * 40 + b'\n{"ok": 1}\n')
        # The good frame after the bad line is not lost.
        assert buf.feed(b"") == [{"ok": 1}]

    def test_frames_decoded_before_an_error_are_not_lost(self):
        buf = LineFrameBuffer()
        with pytest.raises(ProtocolError):
            buf.feed(b'{"a": 1}\nnot json\n{"b": 2}\n')
        assert buf.feed(b"") == [{"a": 1}, {"b": 2}]

    def test_non_object_frame_is_a_protocol_error(self):
        buf = LineFrameBuffer()
        with pytest.raises(ProtocolError):
            buf.feed(b"[1, 2, 3]\n")

    def test_eof_with_a_partial_line_is_a_torn_frame(self):
        buf = LineFrameBuffer()
        buf.feed(b'{"partial": ')
        with pytest.raises(TornFrameError):
            buf.eof()
        # eof() drained the partial line: the buffer is reusable.
        assert buf.pending_bytes == 0
        buf.eof()

    def test_eof_mid_oversized_discard_is_a_torn_frame(self):
        buf = LineFrameBuffer(max_frame_bytes=16)
        with pytest.raises(FrameTooLargeError):
            buf.feed(b"x" * 40)
        with pytest.raises(TornFrameError):
            buf.eof()

    def test_encode_decode_round_trip(self):
        frame = {"op": "fetch", "kind": "trace", "key": "ab" * 8}
        line = encode_line(frame)
        assert line.endswith(b"\n")
        assert decode_line(line[:-1]) == frame

    def test_deeply_nested_line_is_a_protocol_error(self):
        buf = LineFrameBuffer()
        with pytest.raises(ProtocolError):
            buf.feed(b"[" * 100_000 + b"\n")
        assert buf.feed(b'{"ok": 1}\n') == [{"ok": 1}]

    def test_a_frame_fed_in_many_chunks_is_scanned_once(self):
        """Each feed searches only the bytes it brought: a long frame's
        newline search is linear in its length, not quadratic."""
        frame = encode_line({"blob": "x" * 400_000})
        buf = LineFrameBuffer()
        frames = []
        for i in range(0, len(frame), 1024):
            frames += buf.feed(frame[i:i + 1024])
            if len(frames) == 0:
                assert buf._scanned == buf.pending_bytes
        assert frames == [{"blob": "x" * 400_000}]


# ----------------------------------------------------------------------
# Fuzzing: any chunking, any garbage
# ----------------------------------------------------------------------

_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(max_size=8))
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
_FRAMES = st.lists(st.dictionaries(st.text(max_size=6), _VALUES,
                                   max_size=4), max_size=6)
#: The fuzzers' frame ceiling: big enough for every generated frame.
_CEILING = 4096


def _chunks(data: bytes, cuts) -> list:
    """``data`` cut at the (sorted, in-range) offsets ``cuts``."""
    bounds = [0] + sorted(c % (len(data) + 1) for c in cuts) + [len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def _feed_all(buf: LineFrameBuffer, chunks) -> tuple:
    """Feed every chunk, then empty feeds until one raises nothing (an
    error leaves the lines after it buffered); returns (frames, errors
    raised)."""
    frames, errors = [], []
    pending = list(chunks)
    while True:
        chunk = pending.pop(0) if pending else b""
        try:
            frames += buf.feed(chunk)
        except ProtocolError as exc:
            errors.append(exc)
            continue
        if not pending:
            return frames, errors


class TestFramingFuzz:
    @given(frames=_FRAMES, cuts=st.lists(st.integers(0, 10 ** 6),
                                         max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_decodes_the_same_frames(self, frames, cuts):
        data = b"".join(encode_line(frame) for frame in frames)
        buf = LineFrameBuffer(max_frame_bytes=_CEILING)
        got, errors = _feed_all(buf, _chunks(data, cuts))
        assert errors == []
        assert got == frames
        buf.eof()

    @given(before=_FRAMES, after=_FRAMES,
           junk=st.binary(min_size=65, max_size=400),
           cuts=st.lists(st.integers(0, 10 ** 6), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_an_oversized_line_raises_once_then_resyncs(self, before,
                                                        after, junk,
                                                        cuts):
        ceiling = 64
        before = [f for f in before if len(encode_line(f)) <= ceiling]
        after = [f for f in after if len(encode_line(f)) <= ceiling]
        oversized = junk.replace(b"\n", b"x")
        data = (b"".join(encode_line(f) for f in before) + oversized
                + b"\n" + b"".join(encode_line(f) for f in after))
        buf = LineFrameBuffer(max_frame_bytes=ceiling)
        got, errors = _feed_all(buf, _chunks(data, cuts))
        assert [type(e) for e in errors] == [FrameTooLargeError]
        assert got == before + after
        buf.eof()

    @given(frames=_FRAMES, partial=st.binary(min_size=1, max_size=40),
           cuts=st.lists(st.integers(0, 10 ** 6), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_a_partial_line_at_eof_is_torn(self, frames, partial, cuts):
        data = (b"".join(encode_line(f) for f in frames)
                + partial.replace(b"\n", b"x"))
        buf = LineFrameBuffer(max_frame_bytes=_CEILING)
        got, errors = _feed_all(buf, _chunks(data, cuts))
        assert errors == [] and got == frames
        with pytest.raises(TornFrameError):
            buf.eof()
        buf.eof()  # drained: the buffer is reusable

    @given(junk=st.lists(st.binary(max_size=60)
                         | st.sampled_from([b"\n", b"[" * 3000,
                                            b'{"a":' * 800, b"{}",
                                            b"\xff\xfe", b"[1]", b"null"]),
                         max_size=10),
           ceiling=st.sampled_from([16, 256, _CEILING]),
           cuts=st.lists(st.integers(0, 10 ** 6), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_garbage_only_ever_raises_protocol_errors(self, junk,
                                                      ceiling, cuts):
        buf = LineFrameBuffer(max_frame_bytes=ceiling)
        got, _errors = _feed_all(buf, _chunks(b"".join(junk), cuts))
        assert all(isinstance(frame, dict) for frame in got)
        try:
            buf.eof()
        except TornFrameError:
            pass


def _scripted_server(payload: bytes):
    """An asyncio server that answers any one request line with
    ``payload`` and closes the connection."""

    async def handler(reader, writer):
        await reader.readline()
        writer.write(payload)
        await writer.drain()
        writer.close()

    return asyncio.start_server(handler, "127.0.0.1", 0)


async def _client_request(payload: bytes, max_frame_bytes: int):
    server = await _scripted_server(payload)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        reader, writer = await asyncio.open_connection(host, port)
        client = ServiceClient(reader, writer,
                               max_frame_bytes=max_frame_bytes)
        try:
            return await asyncio.wait_for(
                client.request({"op": "status"}), timeout=30)
        finally:
            await client.close()
    finally:
        server.close()
        await server.wait_closed()


class TestServiceClientFraming:
    """The asyncio client rides the same buffer: the same oversized and
    torn failure modes must surface as the same framing errors."""

    def test_oversized_response_line_raises(self):
        payload = b'{"pad": "' + b"x" * 4096 + b'"}\n'
        with pytest.raises(FrameTooLargeError):
            asyncio.run(_client_request(payload, max_frame_bytes=256))

    def test_connection_severed_mid_line_is_torn(self):
        with pytest.raises(TornFrameError):
            asyncio.run(_client_request(b'{"event": "done", ',
                                        max_frame_bytes=1 << 20))

    def test_intact_response_still_round_trips(self):
        events = asyncio.run(_client_request(
            b'{"id": "c1", "event": "status", "ok": true}\n',
            max_frame_bytes=1 << 20))
        assert events == [{"id": "c1", "event": "status", "ok": True}]
