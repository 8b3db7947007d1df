"""Recency-based policies: LRU (the paper's baseline) and MRU."""

from __future__ import annotations

from typing import Sequence

from repro.btb.replacement.base import ReplacementPolicy

__all__ = ["LRUPolicy", "MRUPolicy"]


class LRUPolicy(ReplacementPolicy):
    """Least Recently Used — the baseline every speedup is measured against.

    Implemented with a per-way timestamp from a global access counter; the
    victim is the way with the smallest stamp.
    """

    name = "lru"

    def _allocate(self) -> None:
        self._stamps = self._grid(0)
        self._clock = 0

    def _touch(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamps[set_idx][way] = self._clock

    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._touch(set_idx, way)

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._touch(set_idx, way)

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        stamps = self._stamps[set_idx]
        return min(range(self.num_ways), key=stamps.__getitem__)

    def recency_order(self, set_idx: int) -> list:
        """Ways ordered least- to most-recently used (for tests/analysis)."""
        stamps = self._stamps[set_idx]
        return sorted(range(self.num_ways), key=stamps.__getitem__)


class MRUPolicy(LRUPolicy):
    """Most Recently Used — a pathological contrast baseline.

    Useful in tests and ablations: on cyclic working sets larger than the
    cache, MRU beats LRU (it pins all-but-one way), which is precisely the
    thrashing behavior the paper's characterization discusses.
    """

    name = "mru"

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        stamps = self._stamps[set_idx]
        return max(range(self.num_ways), key=stamps.__getitem__)
