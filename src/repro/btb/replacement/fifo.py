"""Insertion-order and random policies (additional baselines)."""

from __future__ import annotations

import random
from typing import Sequence

from repro.btb.replacement.base import ReplacementPolicy

__all__ = ["FIFOPolicy", "RandomPolicy"]


class FIFOPolicy(ReplacementPolicy):
    """First-In First-Out: evict the oldest *fill*, ignoring hits."""

    name = "fifo"

    def _allocate(self) -> None:
        self._stamps = self._grid(0)
        self._clock = 0

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._clock += 1
        self._stamps[set_idx][way] = self._clock

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        stamps = self._stamps[set_idx]
        return min(range(self.num_ways), key=stamps.__getitem__)


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection with a fixed seed."""

    name = "random"

    def __init__(self, seed: int = 0):
        super().__init__()
        self._seed = seed
        self._rng = random.Random(seed)

    def _allocate(self) -> None:
        self._rng = random.Random(self._seed)

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        return self._rng.randrange(self.num_ways)
