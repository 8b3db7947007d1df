"""Belady's optimal replacement (OPT/MIN) with bypass.

OPT evicts the entry whose next use lies furthest in the future; if the
*incoming* branch's next use is furthest of all, it bypasses the BTB (the
MIN variant).  This requires future knowledge, so the policy is constructed
from the full BTB access stream — preferably the shared columnar
:class:`~repro.trace.stream.AccessStream` (:meth:`from_access_stream`),
whose precomputed ``next_use`` column is reused instead of recomputed.

OPT serves three roles in the reproduction, as in the paper:

* the unreachable upper bound in every speedup figure;
* the oracle that defines *branch temperature* (hit-to-taken percentage under
  OPT, §3.2) — see :mod:`repro.core.profiler`;
* the reference for Hawkeye-style training.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.btb.replacement.base import BYPASS, ReplacementPolicy
from repro.trace.stream import (NEVER, AccessStream,
                                compute_next_use_indices)

__all__ = ["BeladyOptimalPolicy", "compute_next_use", "compute_occurrences",
           "NEVER"]


def compute_next_use(pcs: Sequence[int]) -> np.ndarray:
    """For each position ``i`` in ``pcs``, the next position ``j > i`` with
    ``pcs[j] == pcs[i]``, or :data:`NEVER`.

    Vectorized via a stable argsort (see
    :func:`repro.trace.stream.compute_next_use_indices`).
    """
    return compute_next_use_indices(np.asarray(pcs, dtype=np.int64))


def compute_occurrences(pcs: Sequence[int]) -> Dict[int, List[int]]:
    """pc → sorted list of positions in the stream.

    Needed to resolve the next use of a branch *other than* the one at the
    current stream index — which happens when a prefetcher inserts entries
    (the Confluence-OPT/Shotgun-OPT configurations of Fig. 4).
    """
    occurrences: Dict[int, List[int]] = {}
    for i, pc in enumerate(pcs):
        occurrences.setdefault(int(pc), []).append(i)
    return occurrences


class BeladyOptimalPolicy(ReplacementPolicy):
    """Future-knowledge optimal replacement over a fixed access stream.

    The ``index`` argument threaded through the policy hooks must walk the
    same stream the policy was built from, in order; the replay kernel
    (:func:`repro.btb.btb.replay_stream`) passes the stream's canonical
    indices, and the policy validates that each index stays inside the
    stream and never runs backwards — one monotonicity check instead of
    the old per-call range bookkeeping.
    """

    name = "opt"
    supports_bypass = True

    def __init__(self, next_use: np.ndarray, bypass_enabled: bool = True,
                 stream_pcs: Optional[Sequence[int]] = None,
                 occurrences: Optional[Dict[int, List[int]]] = None,
                 shared_stream: Optional[AccessStream] = None):
        super().__init__()
        self._next_use = np.asarray(next_use, dtype=np.int64)
        self._length = len(self._next_use)
        self.bypass_enabled = bypass_enabled
        self._stream = (list(stream_pcs) if stream_pcs is not None
                        else None)
        self._occurrences = occurrences
        self._shared_stream = shared_stream
        self._last_index = 0

    @classmethod
    def from_stream(cls, pcs: Sequence[int],
                    bypass_enabled: bool = True) -> "BeladyOptimalPolicy":
        """Build the policy from the BTB access stream (pcs of taken,
        non-return branches in order).  Occurrence lists (only needed when
        a prefetcher fills pcs out of stream order) are built lazily."""
        pcs_arr = np.asarray(pcs, dtype=np.int64)
        return cls(compute_next_use_indices(pcs_arr),
                   bypass_enabled=bypass_enabled,
                   stream_pcs=pcs_arr.tolist())

    @classmethod
    def from_access_stream(cls, stream: AccessStream,
                           bypass_enabled: bool = True
                           ) -> "BeladyOptimalPolicy":
        """Build the policy on a shared columnar stream, reusing its
        precomputed ``next_use`` column and occurrence lists outright."""
        return cls(stream.next_use, bypass_enabled=bypass_enabled,
                   stream_pcs=stream.pcs_list, shared_stream=stream)

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        # Next-use distance of the entry resident in each way.
        self._resident_next = self._grid(NEVER)
        self._last_index = 0

    def _advance(self, index: int) -> int:
        """Validate ``index`` against the stream's canonical positions:
        inside the stream, and non-decreasing across the replay."""
        if not self._last_index <= index < self._length:
            if 0 <= index < self._length:
                raise IndexError(
                    f"access index {index} ran backwards (last index "
                    f"{self._last_index}); OPT must replay its stream's "
                    f"canonical indices in order")
            raise IndexError(
                f"access index {index} outside the stream this OPT policy "
                f"was built from (length {self._length}); OPT must "
                f"replay exactly the stream given to from_stream()")
        self._last_index = index
        return index

    def _next_use_of(self, pc: int, index: int) -> int:
        """Next use of ``pc`` strictly after stream position ``index``.

        Fast path: when ``pc`` is the branch at ``index`` (every demand
        access), the precomputed array answers directly.  Otherwise (a
        prefetch fill) fall back to bisecting the pc's occurrence list.
        """
        if self._stream is not None and self._stream[index] == pc:
            return int(self._next_use[index])
        if self._shared_stream is not None:
            return self._shared_stream.next_use_of(pc, index)
        if self._occurrences is None:
            if self._stream is None:
                return NEVER
            self._occurrences = compute_occurrences(self._stream)
        occ = self._occurrences.get(pc)
        if not occ:
            return NEVER
        j = bisect_right(occ, index)
        return occ[j] if j < len(occ) else NEVER

    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._resident_next[set_idx][way] = \
            self._next_use_of(pc, self._advance(index))

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._resident_next[set_idx][way] = \
            self._next_use_of(pc, self._advance(index))

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        self._advance(index)
        nexts = self._resident_next[set_idx]
        victim_way = 0
        victim_next = nexts[0]
        for way in range(1, self.num_ways):
            if nexts[way] > victim_next:
                victim_next = nexts[way]
                victim_way = way
        incoming_next = self._next_use_of(incoming_pc, index)
        if self.bypass_enabled and incoming_next >= victim_next:
            # The incoming branch is re-used no sooner than every resident:
            # inserting it cannot reduce misses, so bypass.
            return BYPASS
        return victim_way
