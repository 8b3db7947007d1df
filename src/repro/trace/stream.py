"""The branch-event kernel's columnar access stream.

Every consumer of a trace replay — the OPT profiler, the BTB miss replay,
the frontend timing model, and the characterization analyses — walks the
same sequence of BTB demand accesses: the taken, non-return branches of a
:class:`~repro.trace.record.BranchTrace`.  Before this module each layer
re-derived that sequence (and its per-access set indices and next-use
distances) with its own per-record Python loop; :class:`AccessStream`
computes the columns once, vectorized, and every layer shares them.

A stream has two layers:

* one read-only :class:`AccessCore` per trace holds everything that does
  not depend on the BTB geometry — ``access_mask``, ``trace_positions``,
  ``pcs`` / ``targets`` / ``kinds``, the lazy Belady ``next_use``
  distances (with the :data:`NEVER` sentinel, shared by OPT replacement
  and the OPT profiler), ``occurrences()``, ``trace_columns()`` and the
  ``pcs_list`` / ``targets_list`` mirrors.  Its numpy columns are not
  writeable, because every geometry of the trace reads the same arrays;
* each :class:`AccessStream` is a per-geometry view of a core: it adds
  ``set_indices`` (each access's set under one
  :class:`~repro.btb.config.BTBConfig`), the ``sets_list`` mirror and
  the lazy :class:`SetPartition`, and reads every other column through
  the core.

:meth:`AccessStream.partition` (lazy) regroups the stream per BTB set
into *runs*, maximal stretches of one pc within one set's sub-stream
(:class:`SetPartition`); the replay kernels iterate run heads instead
of single accesses.

Plain-int mirrors (``pcs_list`` etc.) are materialized lazily because
scalar replay loops index plain ints 3-4× faster than numpy scalars.
They are tuples, not lists: a tuple of ints holds no references the
cyclic garbage collector must follow, so CPython stops tracking it after
the first collection it survives, and the millions of slots a sweep's
memoized streams hold are never walked again.  Every consumer only
indexes them.  Each mirror is *interned*: equal values share one int
object (:func:`_ints`), so a mirror costs one pointer per access plus
one int per distinct value, not one int per access.

:func:`access_stream_for` memoizes streams per ``(trace, config)``, and
every stream of a trace shares the one core that :func:`access_core_for`
memoizes per trace, so a sweep over many policies and geometries builds
each column exactly once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple
import threading
import weakref

import numpy as np

from repro.trace.record import BranchKind, BranchTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (btb -> trace)
    from repro.btb.config import BTBConfig

__all__ = ["AccessCore", "AccessStream", "NEVER", "SetPartition",
           "TraceMemo", "access_core_for", "access_stream_for",
           "clear_stream_cache",
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


def _objects(column: np.ndarray) -> np.ndarray:
    """``column`` as an object array of plain Python scalars; indexing
    it (and ``tolist()``) hands out those very objects."""
    objs = np.empty(len(column), dtype=object)
    objs[:] = column.tolist()
    return objs


def _ints(column: np.ndarray) -> tuple:
    """``column`` as a tuple of plain Python scalars in which equal
    values share one object (see the module docstring for why a tuple).

    Without interning every entry is its own int (28-32 bytes); a
    stream's pcs repeat hundreds of times each, so one object per
    distinct value is most of a mirror's memory saved."""
    values, inverse = np.unique(column, return_inverse=True)
    return tuple(_objects(values)[inverse].tolist())


def _frozen(column: np.ndarray) -> np.ndarray:
    """``column``, marked read-only (it is shared between geometries)."""
    column.flags.writeable = False
    return column


class SetPartition:
    """A stream re-partitioned into per-set sub-streams of *runs*.

    BTB sets are architecturally independent: no access in set *s* can
    influence the outcome of an access in set *t*.  A stable argsort of
    the stream's ``set_indices`` therefore yields, for each set, its
    accesses *in original stream order* as one contiguous slice — the
    layout the set-partitioned replay kernels (:mod:`repro.btb.kernels`)
    iterate.

    Within a set's sub-stream a **run** is a maximal stretch of one pc.
    Every access after a run's head finds that pc resident (the head
    just hit or filled it, and nothing else touched the set since), so
    it is a hit under every replacement policy that does not bypass the
    head.  The kernels therefore iterate run heads only and credit each
    run's tail in bulk.  The columns below are policy-independent and
    computed once per stream with numpy:

    * ``set_ids`` / ``starts`` — the sets that actually appear, in
      ascending order, with ``starts[g]:starts[g+1]`` delimiting set
      ``set_ids[g]``'s runs;
    * ``heads`` / ``ends`` — stream positions of each run's first and
      last access (read pcs and targets through the stream's mirrors);
    * ``by_position`` — the same ``(heads, ends)`` pair with runs
      ordered by head position, for kernels that replay in stream order;
    * ``lengths`` / ``changes`` — per run, its access count and the
      target changes inside it (hits whose stored target differs);
    * ``repeats`` — stream positions of every non-head access, run by
      run, so a kernel marks all tail hits with one numpy write;
    * ``tail`` / ``end`` — one byte per access, indexed by stream
      position: 1 if the access is a run's tail (not its head), and 1
      if it is a run's last access, for kernels that walk the stream in
      order and give tails a short path.

    ``heads``, ``ends`` and the two ``by_position`` columns are tuples
    of plain ints (the per-run loops index them; see the module
    docstring); ``by_position`` holds the very int objects of ``heads``
    and ``ends``, reordered, so the two orders cost one set of ints.
    ``tail`` and ``end`` are ``bytes``; the rest are int64 arrays.  A
    partition belongs to one geometry's :class:`AccessStream`; it reads
    the trace's columns through that stream's shared core.
    """

    def __init__(self, stream: "AccessStream"):
        set_indices = stream.set_indices
        n = len(set_indices)
        order = np.argsort(set_indices, kind="stable")
        pcs = stream.pcs[order]
        # A pc maps to one set, so a pc change also marks every set edge.
        head = np.ones(n, dtype=np.bool_)
        head[1:] = pcs[1:] != pcs[:-1]
        head_k = np.flatnonzero(head)
        end_k = np.empty_like(head_k)
        end_k[:-1] = head_k[1:] - 1
        end_k[-1:] = n - 1
        run_sets = set_indices[order[head_k]]
        edges = np.flatnonzero(run_sets[1:] != run_sets[:-1]) + 1
        self.starts = np.concatenate(
            ([0], edges, [len(head_k)] if n else [])).astype(np.int64)
        self.set_ids = run_sets[self.starts[:-1]]
        heads, ends = order[head_k], order[end_k]
        targets = stream.targets[order]
        changed = np.zeros(n, dtype=np.int64)
        changed[1:] = targets[1:] != targets[:-1]
        changed[head_k] = 0
        total = np.cumsum(changed)
        # Run positions are distinct, so there is nothing to intern;
        # by_position reorders the heads/ends objects instead.
        head_objs, end_objs = _objects(heads), _objects(ends)
        self.heads: Tuple[int, ...] = tuple(head_objs.tolist())
        self.ends: Tuple[int, ...] = tuple(end_objs.tolist())
        by_head = np.argsort(heads)
        self.by_position: Tuple[Tuple[int, ...], Tuple[int, ...]] = (
            tuple(head_objs[by_head].tolist()),
            tuple(end_objs[by_head].tolist()))
        self.lengths = end_k - head_k + 1
        self.changes = total[end_k] - total[head_k]
        self.repeats = order[~head]
        flags = np.zeros(n, dtype=np.uint8)
        flags[self.repeats] = 1
        self.tail = flags.tobytes()
        flags[:] = 0
        flags[ends] = 1
        self.end = flags.tobytes()

    def __len__(self) -> int:
        """The number of accesses partitioned."""
        return len(self.heads) + len(self.repeats)


class AccessCore:
    """The geometry-independent columns of one trace's BTB demand-access
    stream, shared read-only by every :class:`AccessStream` of the trace.

    Get it through :func:`access_core_for` (every stream does), so a
    trace's geometries share one set of columns and mirrors.
    """

    def __init__(self, trace: BranchTrace):
        self.trace = trace
        mask = trace.taken & (trace.kinds != int(BranchKind.RETURN))
        self.access_mask = _frozen(mask)
        self.trace_positions = _frozen(np.flatnonzero(mask))
        self.pcs = _frozen(trace.pcs[mask])
        self.targets = _frozen(trace.targets[mask])
        self.kinds = _frozen(trace.kinds[mask])
        # Lazily materialized derivatives.
        self._next_use: Optional[np.ndarray] = None
        self._occurrences: Optional[Dict[int, List[int]]] = None
        self._pcs_list: Optional[Tuple[int, ...]] = None
        self._targets_list: Optional[Tuple[int, ...]] = None
        self._trace_columns = None

    @property
    def next_use(self) -> np.ndarray:
        """Belady next-use index per access (:data:`NEVER` = dead).  It
        depends on the pc sequence only, so every geometry shares it."""
        if self._next_use is None:
            self._next_use = _frozen(compute_next_use_indices(self.pcs))
        return self._next_use

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

    @property
    def pcs_list(self) -> Tuple[int, ...]:
        if self._pcs_list is None:
            self._pcs_list = _ints(self.pcs)
        return self._pcs_list

    @property
    def targets_list(self) -> Tuple[int, ...]:
        if self._targets_list is None:
            self._targets_list = _ints(self.targets)
        return self._targets_list

    def trace_columns(self) -> Tuple[Tuple[int, ...], ...]:
        """The *full* trace as plain-scalar tuple columns ``(pcs, targets,
        kinds, taken, ilens)`` (``taken`` holds bools) — the frontend
        simulator's per-record feed."""
        if self._trace_columns is None:
            t = self.trace
            self._trace_columns = (_ints(t.pcs), _ints(t.targets),
                                   _ints(t.kinds), _ints(t.taken),
                                   _ints(t.ilens))
        return self._trace_columns


class AccessStream:
    """Columnar view of one trace's BTB demand-access stream under one
    BTB geometry.

    The geometry-independent columns (``access_mask``,
    ``trace_positions``, ``pcs`` / ``targets`` / ``kinds``,
    ``next_use``, ``occurrences()``, ``trace_columns()`` and the
    ``pcs_list`` / ``targets_list`` mirrors) are the trace's shared,
    read-only :class:`AccessCore` (``core``); a stream adds only
    ``set_indices``, the ``sets_list`` mirror and its
    :class:`SetPartition`.

    Build directly, or through :func:`access_stream_for` to share one
    instance across every replay consumer of a ``(trace, config)`` pair.
    """

    def __init__(self, trace: BranchTrace, config: "BTBConfig"):
        core = access_core_for(trace)
        self.core = core
        self.trace = trace
        self.config = config
        self.access_mask = core.access_mask
        self.trace_positions = core.trace_positions
        self.pcs = core.pcs
        self.targets = core.targets
        self.kinds = core.kinds
        self.set_indices = compute_set_indices(self.pcs, config)
        # Lazily materialized derivatives.
        self._partition: Optional[SetPartition] = None
        self._sets_list: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def next_use(self) -> np.ndarray:
        """Belady next-use index per access (:data:`NEVER` = dead)."""
        return self.core.next_use

    def partition(self) -> SetPartition:
        """The per-set partition of this stream, memoized like
        :attr:`next_use` so every fast-path replay of a sweep shares one
        stable sort."""
        if self._partition is None:
            self._partition = SetPartition(self)
        return self._partition

    def occurrences(self) -> Dict[int, List[int]]:
        """pc → ascending stream positions (prefetch-fill OPT fallback)."""
        return self.core.occurrences()

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
    def pcs_list(self) -> Tuple[int, ...]:
        return self.core.pcs_list

    @property
    def targets_list(self) -> Tuple[int, ...]:
        return self.core.targets_list

    @property
    def sets_list(self) -> Tuple[int, ...]:
        if self._sets_list is None:
            self._sets_list = _ints(self.set_indices)
        return self._sets_list

    def trace_columns(self) -> Tuple[Tuple[int, ...], ...]:
        """The full trace's plain-scalar columns
        (:meth:`AccessCore.trace_columns`)."""
        return self.core.trace_columns()

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

#: Weak references to cores, one per trace.  The streams that use a
#: core keep it alive, so a trace whose streams :data:`_streams` evicted
#: holds no columns; the capacity matches, so every memoized stream's
#: core stays findable for a second geometry.
_cores = TraceMemo(capacity=16)


def access_core_for(trace: BranchTrace) -> AccessCore:
    """The shared :class:`AccessCore` of ``trace``: memoized per trace
    identity while any stream still uses it, and dropped from the memo
    by :func:`clear_stream_cache`."""
    ref = _cores.get(trace, None)
    core = ref() if ref is not None else None
    if core is None:
        core = AccessCore(trace)
        _cores.put(trace, None, weakref.ref(core))
    return core


def access_stream_for(trace: BranchTrace,
                      config: "BTBConfig") -> AccessStream:
    """The shared :class:`AccessStream` for ``(trace, config)``.

    Memoized per trace identity, so every policy replayed over the same
    in-memory trace reuses one set of columns; streams of one trace
    under different geometries share its :class:`AccessCore`
    (:func:`access_core_for`) and differ only in their set columns.
    """
    stream = _streams.get(trace, config)
    if stream is None:
        stream = AccessStream(trace, config)
        _streams.put(trace, config, stream)
    return stream


def clear_stream_cache() -> None:
    """Drop every memoized stream and core, and every other
    :class:`TraceMemo` entry (tests and benchmarks); streams built
    afterwards share no column with earlier ones."""
    for memo in list(_trace_memos):
        memo.clear()
