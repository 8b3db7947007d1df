"""SRRIP and BRRIP re-reference interval prediction (Jaleel et al.).

SRRIP is the best-performing prior policy in the paper's evaluation (1.5%
mean speedup, Fig. 1): each way carries an M-bit Re-Reference Prediction
Value (RRPV).  New entries are inserted with a *long* predicted interval
(RRPV = 2^M − 2), promoted to *near-immediate* (0) on a hit, and the victim
is any way at *distant* (2^M − 1), aging the whole set until one exists.
This gives scan resistance — exactly the property that helps against the
cold bursts in data center branch streams — without any notion of holistic
reuse.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.btb.replacement.base import ReplacementPolicy

__all__ = ["SRRIPPolicy", "BRRIPPolicy"]


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with hit-priority promotion."""

    name = "srrip"

    def __init__(self, rrpv_bits: int = 2):
        super().__init__()
        if rrpv_bits < 1:
            raise ValueError("rrpv_bits must be >= 1")
        self.rrpv_bits = rrpv_bits
        self.rrpv_max = (1 << rrpv_bits) - 1
        #: Insertion RRPV: "long" re-reference interval.
        self.rrpv_insert = self.rrpv_max - 1

    def _allocate(self) -> None:
        self._rrpv = self._grid(self.rrpv_max)

    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._rrpv[set_idx][way] = 0

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._rrpv[set_idx][way] = self._insertion_rrpv(set_idx)

    def _insertion_rrpv(self, set_idx: int) -> int:
        return self.rrpv_insert

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        rrpv = self._rrpv[set_idx]
        while True:
            for way in range(self.num_ways):
                if rrpv[way] >= self.rrpv_max:
                    return way
            for way in range(self.num_ways):
                rrpv[way] += 1


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: insert at distant most of the time, long occasionally.

    More thrash-resistant than SRRIP on working sets far beyond capacity;
    included as an ablation baseline.
    """

    name = "brrip"

    def __init__(self, rrpv_bits: int = 2, long_probability: float = 1 / 32,
                 seed: int = 0):
        super().__init__(rrpv_bits=rrpv_bits)
        if not 0.0 <= long_probability <= 1.0:
            raise ValueError("long_probability must be in [0, 1]")
        self.long_probability = long_probability
        self._seed = seed
        self._rng = random.Random(seed)

    def _allocate(self) -> None:
        super()._allocate()
        self._rng = random.Random(self._seed)

    def _insertion_rrpv(self, set_idx: int) -> int:
        if self._rng.random() < self.long_probability:
            return self.rrpv_insert
        return self.rrpv_max
