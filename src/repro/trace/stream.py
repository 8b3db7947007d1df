"""The branch-event kernel's columnar access stream.

Every consumer of a trace replay — the OPT profiler, the BTB miss replay,
the frontend timing model, and the characterization analyses — walks the
same sequence of BTB demand accesses: the taken, non-return branches of a
:class:`~repro.trace.record.BranchTrace`.  Before this module each layer
re-derived that sequence (and its per-access set indices and next-use
distances) with its own per-record Python loop; :class:`AccessStream`
computes the columns once, vectorized, and every layer shares them.

Columns (all numpy, one entry per BTB demand access):

* ``pcs`` / ``targets`` / ``kinds`` — the access-stream records;
* ``set_indices`` — each access's BTB set under one
  :class:`~repro.btb.config.BTBConfig` (a stream is config-specific);
* ``trace_positions`` — index of each access in the originating trace;
* ``next_use`` (lazy) — Belady next-use distances with the :data:`NEVER`
  sentinel, shared by OPT replacement and the OPT profiler.

Python-list mirrors (``pcs_list`` etc.) are materialized lazily because
scalar replay loops iterate plain ints 3-4× faster than numpy scalars.

:func:`access_stream_for` memoizes streams per ``(trace, config)`` so a
sweep over many policies builds each stream exactly once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple
import threading
import weakref

import numpy as np

from repro.trace.record import INSTRUCTION_BYTES, BranchKind, BranchTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (btb -> trace)
    from repro.btb.config import BTBConfig

__all__ = ["AccessStream", "NEVER", "SetPartition", "TraceMemo",
           "access_stream_for", "clear_stream_cache",
           "compute_next_use_indices", "compute_set_indices"]

#: Sentinel next-use index meaning "never accessed again" (shared with
#: :mod:`repro.btb.replacement.opt`).
NEVER = np.iinfo(np.int64).max


def compute_next_use_indices(pcs: np.ndarray) -> np.ndarray:
    """For each position ``i``, the next ``j > i`` with ``pcs[j] ==
    pcs[i]``, or :data:`NEVER`.

    Fully vectorized: a stable argsort groups positions by pc in ascending
    order, so each position's successor within its group *is* its next use
    (O(n log n), no per-record Python loop).
    """
    pcs = np.asarray(pcs, dtype=np.int64)
    n = len(pcs)
    next_use = np.full(n, NEVER, dtype=np.int64)
    if n < 2:
        return next_use
    order = np.argsort(pcs, kind="stable")
    grouped = pcs[order]
    same = grouped[:-1] == grouped[1:]
    next_use[order[:-1][same]] = order[1:][same]
    return next_use


def compute_set_indices(pcs: np.ndarray, config: "BTBConfig") -> np.ndarray:
    """Vectorized ``config.set_index`` over an array of branch pcs."""
    from repro.btb.config import BTBConfig
    pcs = np.asarray(pcs, dtype=np.int64)
    if type(config).set_index is BTBConfig.set_index:
        return (pcs >> 2) % config.num_sets
    # A subclass overrode the mapping: fall back to the scalar definition.
    return np.fromiter((config.set_index(int(pc)) for pc in pcs),
                       dtype=np.int64, count=len(pcs))


class SetPartition:
    """A stream re-partitioned into contiguous per-set sub-streams.

    BTB sets are architecturally independent: no access in set *s* can
    influence the outcome of an access in set *t*.  A stable argsort of
    the stream's ``set_indices`` therefore yields, for each set, its
    accesses *in original stream order* as one contiguous slice — the
    layout the fast-path replay kernels (:mod:`repro.btb.kernels`)
    iterate, with plain-int list mirrors so the per-access loop never
    touches a numpy scalar.

    Attributes:

    * ``order`` — permutation mapping partition position → original
      stream position (``np.argsort(set_indices, kind="stable")``);
    * ``set_ids`` / ``starts`` — the sets that actually appear, in
      ascending order, with ``starts[g]:starts[g+1]`` delimiting set
      ``set_ids[g]``'s slice of the sorted columns;
    * ``pcs`` / ``targets`` / ``positions`` — sorted-column list
      mirrors (``positions`` are original stream indices).
    """

    def __init__(self, stream: "AccessStream"):
        set_indices = stream.set_indices
        n = len(set_indices)
        self.order = np.argsort(set_indices, kind="stable")
        sorted_sets = set_indices[self.order]
        if n:
            change = np.flatnonzero(sorted_sets[:-1] != sorted_sets[1:]) + 1
            self.starts = np.concatenate(
                ([0], change, [n])).astype(np.int64)
            self.set_ids = sorted_sets[self.starts[:-1]]
        else:
            self.starts = np.zeros(1, dtype=np.int64)
            self.set_ids = np.zeros(0, dtype=np.int64)
        self.pcs: List[int] = stream.pcs[self.order].tolist()
        self.targets: List[int] = stream.targets[self.order].tolist()
        self.positions: List[int] = self.order.tolist()

    @property
    def num_populated_sets(self) -> int:
        return len(self.set_ids)

    def __len__(self) -> int:
        return len(self.pcs)


class AccessStream:
    """Columnar view of one trace's BTB demand-access stream under one
    BTB geometry.

    Build directly, or through :func:`access_stream_for` to share one
    instance across every replay consumer of a ``(trace, config)`` pair.
    """

    def __init__(self, trace: BranchTrace, config: "BTBConfig"):
        self.trace = trace
        self.config = config
        mask = trace.taken & (trace.kinds != int(BranchKind.RETURN))
        self.access_mask = mask
        self.trace_positions = np.flatnonzero(mask)
        self.pcs = trace.pcs[mask]
        self.targets = trace.targets[mask]
        self.kinds = trace.kinds[mask]
        self.set_indices = compute_set_indices(self.pcs, config)
        # Lazily materialized derivatives.
        self._next_use: Optional[np.ndarray] = None
        self._partition: Optional[SetPartition] = None
        self._occurrences: Optional[Dict[int, List[int]]] = None
        self._pcs_list: Optional[List[int]] = None
        self._targets_list: Optional[List[int]] = None
        self._sets_list: Optional[List[int]] = None
        self._trace_columns = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def next_use(self) -> np.ndarray:
        """Belady next-use index per access (:data:`NEVER` = dead)."""
        if self._next_use is None:
            self._next_use = compute_next_use_indices(self.pcs)
        return self._next_use

    def partition(self) -> SetPartition:
        """The per-set partition of this stream, memoized like
        :attr:`next_use` so every fast-path replay of a sweep shares one
        stable sort."""
        if self._partition is None:
            self._partition = SetPartition(self)
        return self._partition

    def occurrences(self) -> Dict[int, List[int]]:
        """pc → ascending stream positions (prefetch-fill OPT fallback)."""
        if self._occurrences is None:
            occ: Dict[int, List[int]] = {}
            for i, pc in enumerate(self.pcs_list):
                positions = occ.get(pc)
                if positions is None:
                    occ[pc] = [i]
                else:
                    positions.append(i)
            self._occurrences = occ
        return self._occurrences

    def next_use_of(self, pc: int, index: int) -> int:
        """Next use of ``pc`` strictly after stream position ``index``.

        Demand accesses (``pc`` is the stream record at ``index``) answer
        from the precomputed column; other pcs (prefetch fills) bisect the
        occurrence lists.
        """
        if self.pcs_list[index] == pc:
            return int(self.next_use[index])
        positions = self.occurrences().get(pc)
        if not positions:
            return NEVER
        j = bisect_right(positions, index)
        return positions[j] if j < len(positions) else NEVER

    # -- scalar-loop mirrors -------------------------------------------
    @property
    def pcs_list(self) -> List[int]:
        if self._pcs_list is None:
            self._pcs_list = self.pcs.tolist()
        return self._pcs_list

    @property
    def targets_list(self) -> List[int]:
        if self._targets_list is None:
            self._targets_list = self.targets.tolist()
        return self._targets_list

    @property
    def sets_list(self) -> List[int]:
        if self._sets_list is None:
            self._sets_list = self.set_indices.tolist()
        return self._sets_list

    def trace_columns(self) -> Tuple[List[int], List[int], List[int],
                                     List[bool], List[int]]:
        """The *full* trace as plain-int columns ``(pcs, targets, kinds,
        taken, ilens)`` — the frontend simulator's per-record feed."""
        if self._trace_columns is None:
            t = self.trace
            self._trace_columns = (t.pcs.tolist(), t.targets.tolist(),
                                   t.kinds.tolist(), t.taken.tolist(),
                                   t.ilens.tolist())
        return self._trace_columns

    @property
    def fallthroughs(self) -> np.ndarray:
        """Fall-through address of every *trace* record."""
        return self.trace.pcs + INSTRUCTION_BYTES

    def __repr__(self) -> str:
        return (f"AccessStream({self.trace.name!r}, accesses={len(self)}, "
                f"sets={self.config.num_sets}x{self.config.ways})")


# ----------------------------------------------------------------------
# Per-trace memos
# ----------------------------------------------------------------------

#: Every live :class:`TraceMemo`, so :func:`clear_stream_cache` can empty
#: memos owned by layers this module must not import.
_trace_memos: "weakref.WeakSet[TraceMemo]" = weakref.WeakSet()


class TraceMemo:
    """A small LRU of values derived from one in-memory trace.

    Keyed on trace *identity* plus a caller key, with a liveness weakref
    so a recycled ``id()`` can never alias a dead trace.  Safe to share
    between threads.  :func:`clear_stream_cache` empties every instance.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Tuple[object, object]]" \
            = OrderedDict()
        self._lock = threading.Lock()
        _trace_memos.add(self)

    def get(self, trace: BranchTrace, key) -> Optional[object]:
        """The value stored for ``(trace, key)``, or None."""
        full_key = (id(trace), len(trace), key)
        with self._lock:
            entry = self._entries.get(full_key)
            if entry is None:
                return None
            ref, value = entry
            if ref() is not trace:
                del self._entries[full_key]
                return None
            self._entries.move_to_end(full_key)
            return value

    def put(self, trace: BranchTrace, key, value) -> None:
        """Store ``value`` for ``(trace, key)``, evicting the least
        recently used entries beyond capacity."""
        full_key = (id(trace), len(trace), key)
        with self._lock:
            self._entries[full_key] = (weakref.ref(trace), value)
            self._entries.move_to_end(full_key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Streams kept alive by the memo; a sweep over many policies touches one
#: or two (trace, config) pairs at a time, so a small LRU suffices.
_streams = TraceMemo(capacity=16)


def access_stream_for(trace: BranchTrace,
                      config: "BTBConfig") -> AccessStream:
    """The shared :class:`AccessStream` for ``(trace, config)``.

    Memoized per trace identity, so every policy replayed over the same
    in-memory trace reuses one set of columns.
    """
    stream = _streams.get(trace, config)
    if stream is None:
        stream = AccessStream(trace, config)
        _streams.put(trace, config, stream)
    return stream


def clear_stream_cache() -> None:
    """Drop every memoized stream, and every other :class:`TraceMemo`
    entry (tests and benchmarks)."""
    for memo in list(_trace_memos):
        memo.clear()
