"""Zero-copy shared-memory transfer of columnar access streams.

The engine's parallel path groups jobs by (app, input, machine config)
and ships each group to a pool worker, which then rebuilds the group's
:class:`~repro.trace.record.BranchTrace` and
:class:`~repro.trace.stream.AccessStream` from the on-disk store — one
multi-megabyte unpickle plus a full column build (set indices, Belady
next-use, set partition) per worker per group.  This module moves that
work to the parent, once: every column is laid out in one
``multiprocessing.shared_memory`` block, and workers receive a small
picklable :class:`StreamHandle` naming the block and the per-column
offsets.  Attaching maps the block and wraps numpy views around it —
no bytes are copied or re-derived for the numpy columns.

Lifecycle (see docs/ARCHITECTURE.md, "Fast-path kernels"):

* the parent :func:`export_stream`'s each group's stream before
  dispatching round-0 batches and keeps the returned
  :class:`ExportedStream` open until the whole run finishes, then
  closes **and unlinks** it — the parent is the only unlinker;
* workers :func:`attach_stream` read-only views, adopt the resulting
  stream into the per-process stream memo
  (:func:`~repro.trace.stream.adopt_stream`), and keep the mapping open
  for the life of the process (pool workers exit with their pool);
* attach failures degrade silently to the store path — the handle is a
  cache hint, never a correctness dependency.

The runtime config's ``shm`` switch (``REPRO_SHM=0``) disables the
export side entirely.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.trace.record import BranchTrace
from repro.trace.stream import AccessStream, SetPartition

log = logging.getLogger(__name__)

__all__ = ["ColumnSpec", "ExportedStream", "StreamHandle",
           "attach_stream", "export_stream"]

#: Column starting offsets are aligned for clean vector loads.
_ALIGN = 64


@dataclass(frozen=True)
class ColumnSpec:
    """Location of one column inside the shared block."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class StreamHandle:
    """Picklable recipe for attaching one exported stream.

    A handle is a few hundred bytes regardless of trace size — this is
    what crosses the process boundary instead of the arrays.
    """

    shm_name: str
    app: str
    input_id: int
    length: Optional[int]
    config: object  # BTBConfig (picklable frozen dataclass)
    trace_name: str
    columns: Dict[str, ColumnSpec]
    nbytes: int


class ExportedStream:
    """Parent-side ownership of one exported stream's shared block."""

    def __init__(self, handle: StreamHandle,
                 shm: shared_memory.SharedMemory):
        self.handle = handle
        self._shm: Optional[shared_memory.SharedMemory] = shm

    def close(self) -> None:
        """Close and unlink the block (idempotent).  Workers that are
        already attached keep their mappings; new attaches fail and fall
        back to the store."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        try:
            shm.close()
        except OSError:  # pragma: no cover - platform-specific teardown
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ExportedStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _columns_of(stream: AccessStream) -> Dict[str, np.ndarray]:
    """Every array a worker needs, keyed by its attach-side role.

    ``next_use`` and the set partition are forced here so the expensive
    derivations happen once, in the parent, and ride along zero-copy.
    """
    trace = stream.trace
    part = stream.partition()
    return {
        "trace/pcs": trace.pcs,
        "trace/targets": trace.targets,
        "trace/kinds": trace.kinds,
        "trace/taken": trace.taken,
        "trace/ilens": trace.ilens,
        "stream/trace_positions": stream.trace_positions,
        "stream/pcs": stream.pcs,
        "stream/targets": stream.targets,
        "stream/kinds": stream.kinds,
        "stream/set_indices": stream.set_indices,
        "stream/next_use": stream.next_use,
        "part/order": part.order,
        "part/starts": part.starts,
        "part/set_ids": part.set_ids,
    }


def export_stream(stream: AccessStream, app: str, input_id: int,
                  length: Optional[int]) -> ExportedStream:
    """Lay ``stream``'s columns out in one shared-memory block.

    The caller owns the returned :class:`ExportedStream` and must
    :meth:`~ExportedStream.close` it (close + unlink) when no more
    workers will attach — the engine does so in its run teardown.
    """
    arrays = {name: np.ascontiguousarray(arr)
              for name, arr in _columns_of(stream).items()}
    specs: Dict[str, ColumnSpec] = {}
    offset = 0
    for name, arr in arrays.items():
        offset = -(-offset // _ALIGN) * _ALIGN  # round up
        specs[name] = ColumnSpec(offset=offset, shape=arr.shape,
                                 dtype=arr.dtype.str)
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for name, arr in arrays.items():
        spec = specs[name]
        view = np.ndarray(spec.shape, dtype=spec.dtype, buffer=shm.buf,
                          offset=spec.offset)
        view[...] = arr
    handle = StreamHandle(shm_name=shm.name, app=app, input_id=input_id,
                          length=length, config=stream.config,
                          trace_name=stream.trace.name, columns=specs,
                          nbytes=max(1, offset))
    return ExportedStream(handle, shm)


#: Blocks this process has attached, kept open for the process lifetime
#: (numpy views alias their buffers; pool workers die with their pool).
_attached: Dict[str, shared_memory.SharedMemory] = {}


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach a block without ceding its lifetime to this process.

    Python < 3.13 registers every attach with the resource tracker.
    Harmless when the tracker is *inherited* (fork workers share the
    parent's tracker, so the re-register is an idempotent no-op and
    un-registering would strip the parent's own entry).  But a process
    that starts a fresh tracker on this attach (spawn workers) would
    have that tracker unlink the block at exit — destroying the
    parent's data — so there, and only there, the registration is
    immediately undone: the parent is the sole unlinker.
    """
    tracker = resource_tracker._resource_tracker
    fresh_tracker = getattr(tracker, "_pid", None) is None
    shm = shared_memory.SharedMemory(name=name)
    if fresh_tracker:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return shm


def attach_stream(handle: StreamHandle) -> AccessStream:
    """Rebuild an :class:`AccessStream` over the exported block.

    Numpy columns are read-only views straight into shared memory; only
    the partition's plain-int list mirrors are materialized locally
    (kernel loops iterate python ints).  Raises ``FileNotFoundError``
    if the parent already unlinked the block — callers treat any
    exception as "fall back to the store".
    """
    shm = _attached.get(handle.shm_name)
    if shm is None:
        shm = _attach_block(handle.shm_name)
        _attached[handle.shm_name] = shm

    def view(name: str) -> np.ndarray:
        spec = handle.columns[name]
        arr = np.ndarray(spec.shape, dtype=spec.dtype, buffer=shm.buf,
                         offset=spec.offset)
        arr.flags.writeable = False
        return arr

    trace = BranchTrace(pcs=view("trace/pcs"),
                        targets=view("trace/targets"),
                        kinds=view("trace/kinds"),
                        taken=view("trace/taken"),
                        ilens=view("trace/ilens"),
                        name=handle.trace_name)
    stream = AccessStream.__new__(AccessStream)
    stream.trace = trace
    stream.config = handle.config
    stream.trace_positions = view("stream/trace_positions")
    mask = np.zeros(len(trace.pcs), dtype=np.bool_)
    mask[stream.trace_positions] = True
    stream.access_mask = mask
    stream.pcs = view("stream/pcs")
    stream.targets = view("stream/targets")
    stream.kinds = view("stream/kinds")
    stream.set_indices = view("stream/set_indices")
    stream._next_use = view("stream/next_use")
    part = SetPartition.__new__(SetPartition)
    part.order = view("part/order")
    part.starts = view("part/starts")
    part.set_ids = view("part/set_ids")
    part.pcs = stream.pcs[part.order].tolist()
    part.targets = stream.targets[part.order].tolist()
    part.positions = part.order.tolist()
    stream._partition = part
    stream._occurrences = None
    stream._pcs_list = None
    stream._targets_list = None
    stream._sets_list = None
    stream._trace_columns = None
    return stream
