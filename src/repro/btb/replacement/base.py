"""Replacement-policy interface.

A policy owns per-set state sized at :meth:`ReplacementPolicy.bind` time and
receives callbacks from the BTB on hits, fills, and evictions.  On a miss in
a full set the BTB asks :meth:`choose_victim`; a policy that supports
bypassing (§2.5 of the paper) may return :data:`BYPASS` to indicate that the
incoming branch should not be inserted at all.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import repeat
from typing import List, Sequence

__all__ = ["BYPASS", "ReplacementPolicy"]

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
        self._allocate()

    def _allocate(self) -> None:
        """Subclass hook: allocate per-set state (dims are set)."""

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
            self._allocate()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(sets={self.num_sets}, "
                f"ways={self.num_ways})")


def new_grid(num_sets: int, num_ways: int, fill) -> List[List]:
    """A fresh ``num_sets × num_ways`` grid initialized to ``fill``
    (copying one row per set is about twice as fast as building each)."""
    return list(map(list.copy, repeat([fill] * num_ways, num_sets)))
