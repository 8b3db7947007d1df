"""Replacement-policy interface.

A policy owns per-set state sized at :meth:`ReplacementPolicy.bind` time and
receives callbacks from the BTB on hits, fills, and evictions.  On a miss in
a full set the BTB asks :meth:`choose_victim`; a policy that supports
bypassing (§2.5 of the paper) may return :data:`BYPASS` to indicate that the
incoming branch should not be inserted at all.

Per-set storage (a BTB's rows, a policy's grids, a BTB's pc → way
directories) comes from a per-process free list: :func:`new_grid` and
:func:`new_directories` refill storage that an owner handed back with
:meth:`BTB.release <repro.btb.btb.BTB.release>`, so a sweep's jobs
reuse one job's rows instead of allocating thousands of lists each —
allocations that the cyclic garbage collector would otherwise walk
again and again while the job runs.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import defaultdict
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["BYPASS", "RELEASED", "ReleasedStorageError",
           "ReplacementPolicy", "new_directories", "new_grid",
           "release_directories", "release_grids"]

#: Sentinel returned by :meth:`ReplacementPolicy.choose_victim` to bypass the
#: BTB instead of evicting a resident entry.
BYPASS = -1


class ReplacementPolicy(ABC):
    """Base class for BTB replacement policies."""

    #: Registry/reporting name; subclasses override.
    name = "base"
    #: Whether :meth:`choose_victim` may return :data:`BYPASS`.
    supports_bypass = False

    def __init__(self) -> None:
        self.num_sets = 0
        self.num_ways = 0
        #: True while the owning BTB is installing a *prefetch* (not a
        #: demand miss).  Policies may treat prefetches differently — e.g.
        #: Thermometer does not bypass them, because the prefetcher is
        #: asserting imminent use regardless of the static temperature.
        self.prefetch_fill_in_progress = False

    # ------------------------------------------------------------------
    def bind(self, num_sets: int, num_ways: int) -> None:
        """Size per-set state.  Called once by the owning BTB."""
        if num_sets < 1 or num_ways < 1:
            raise ValueError("num_sets and num_ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self._grids: List[List[List]] = []
        self._allocate()

    def _allocate(self) -> None:
        """Subclass hook: allocate per-set state (dims are set)."""

    def _grid(self, fill, num_ways: Optional[int] = None) -> List[List]:
        """A ``num_sets × num_ways`` grid of ``fill`` (``num_ways``
        defaults to the bound way count) that :meth:`release` hands
        back to the free list.  Call it from :meth:`_allocate`."""
        if num_ways is None:
            num_ways = self.num_ways
        grid = new_grid(self.num_sets, num_ways, fill)
        self._grids.append(grid)
        return grid

    def release(self) -> None:
        """Hand the grids built by :meth:`_grid` back to the free list.

        Only the owner of the BTB this policy is bound to may call this
        (through :meth:`BTB.release <repro.btb.btb.BTB.release>`): every
        attribute that held one of the grids becomes :data:`RELEASED`,
        so any later hook raises :class:`ReleasedStorageError`.
        """
        grids = getattr(self, "_grids", ())
        self._grids = []
        for name, value in list(vars(self).items()):
            if any(value is grid for grid in grids):
                setattr(self, name, RELEASED)
        release_grids(*grids)

    # ------------------------------------------------------------------
    # Event hooks.  ``index`` is the position of the access in the BTB
    # access stream (needed by future-knowledge policies such as OPT).
    # ------------------------------------------------------------------
    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        """The branch at ``pc`` hit in ``(set_idx, way)``."""

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        """``pc`` was inserted into ``(set_idx, way)``."""

    def on_evict(self, set_idx: int, way: int, pc: int,
                 reused: bool) -> None:
        """``pc`` was evicted; ``reused`` says whether it hit since fill."""

    def on_bypass(self, set_idx: int, pc: int, index: int) -> None:
        """``pc`` missed and the policy chose not to insert it."""

    # ------------------------------------------------------------------
    @abstractmethod
    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        """Pick the way to evict for ``incoming_pc``, or :data:`BYPASS`.

        ``resident_pcs`` lists the pcs currently stored in the set, one per
        way (the set is full when this is called).  The BTB passes its
        live tag row (a list of plain ints): read it, never mutate it.
        """

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear learned/per-set state (keeps the bound geometry)."""
        if self.num_sets:
            self._grids = []
            self._allocate()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(sets={self.num_sets}, "
                f"ways={self.num_ways})")


class ReleasedStorageError(RuntimeError):
    """A BTB or policy was used after its storage was released."""


class _Released:
    """Stands in for storage handed back to the free list: indexing,
    iterating or sizing it raises :class:`ReleasedStorageError`."""

    __slots__ = ()

    def _raise(self, *args):
        raise ReleasedStorageError(
            "this BTB's storage was released to the free list; "
            "build a new BTB")

    __getitem__ = __setitem__ = __iter__ = __len__ = _raise

    def __repr__(self) -> str:
        return "RELEASED"


#: What a released BTB's rows and directories and its policy's grids
#: become.
RELEASED = _Released()

#: Released grids by ``(num_sets, num_ways)`` and released directory
#: lists by ``num_sets``, for :func:`new_grid` and
#: :func:`new_directories` to reuse.
_free_grids: Dict[Tuple[int, int], List[List[List]]] = defaultdict(list)
_free_directories: Dict[int, List[List[dict]]] = defaultdict(list)
#: One job's worth per geometry: a BTB's four rows plus the three grids
#: of the most grid-hungry registry policy (GHRP, SHiP), and one BTB's
#: directories.  A job's BTBs live one after another (the OPT profile's,
#: then the policy's), so more would only hold memory.
_FREE_GRIDS_PER_GEOMETRY = 7
_FREE_DIRECTORIES_PER_GEOMETRY = 1
#: Service executor threads build and release BTBs concurrently.
_free_lock = threading.Lock()


def new_grid(num_sets: int, num_ways: int, fill) -> List[List]:
    """A ``num_sets × num_ways`` grid initialized to ``fill``.

    A grid that an owner released (:func:`release_grids`) on this
    geometry is refilled in place and reused; otherwise the grid is
    built by copying one row per set (about twice as fast as building
    each).  Either way the caller gets rows that no live BTB or policy
    holds, equal to a fresh grid's.
    """
    template = [fill] * num_ways
    with _free_lock:
        free = _free_grids[(num_sets, num_ways)]
        grid = free.pop() if free else None
    if grid is None:
        return list(map(list.copy, repeat(template, num_sets)))
    for row in grid:
        row[:] = template
    return grid


def release_grids(*grids: List[List]) -> None:
    """Hand grids to the free list (each once, however often passed).

    The caller must own them and drop every reference it keeps: the
    next :func:`new_grid` on their geometry overwrites them in place.
    Grids beyond the per-geometry bound are left to the garbage
    collector.
    """
    for grid in grids:
        key = (len(grid), len(grid[0]))
        with _free_lock:
            free = _free_grids[key]
            if (len(free) < _FREE_GRIDS_PER_GEOMETRY
                    and not any(grid is held for held in free)):
                free.append(grid)


def new_directories(num_sets: int) -> List[dict]:
    """``num_sets`` empty pc → way dicts, reused from the free list
    when an owner released a BTB with as many sets."""
    with _free_lock:
        free = _free_directories[num_sets]
        if free:
            return free.pop()
    return [{} for _ in range(num_sets)]


def release_directories(directories: List[dict]) -> None:
    """Clear a released BTB's directories and hand them to the free
    list (same ownership rule as :func:`release_grids`)."""
    for directory in directories:
        directory.clear()
    with _free_lock:
        free = _free_directories[len(directories)]
        if (len(free) < _FREE_DIRECTORIES_PER_GEOMETRY
                and not any(directories is held for held in free)):
            free.append(directories)
