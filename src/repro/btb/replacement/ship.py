"""SHiP: Signature-based Hit Predictor (Wu et al., MICRO 2011), BTB-adapted.

SHiP keeps a table of saturating counters indexed by a *signature* (here
the branch pc, as the paper's §5 taxonomy suggests for instruction-side
structures) that tracks whether entries inserted under that signature tend
to be re-referenced.  Insertion priority comes from the prediction:
re-referenced signatures insert at RRIP "long", never-re-referenced ones at
"distant".  Like GHRP and Hawkeye, it is a per-PC learning policy and
serves as one more hardware-only point of comparison for Thermometer.
"""

from __future__ import annotations

from typing import Sequence

from repro.btb.replacement.base import ReplacementPolicy

__all__ = ["SHiPPolicy"]


class SHiPPolicy(ReplacementPolicy):
    """RRIP replacement with signature-trained insertion prediction."""

    name = "ship"

    def __init__(self, table_bits: int = 13, rrpv_bits: int = 2,
                 counter_max: int = 3):
        super().__init__()
        if table_bits < 4:
            raise ValueError("table_bits must be >= 4")
        self.table_bits = table_bits
        self.rrpv_max = (1 << rrpv_bits) - 1
        self.counter_max = counter_max

    def _allocate(self) -> None:
        self._shct = [1] * (1 << self.table_bits)   # weakly no-reuse
        self._rrpv = self._grid(self.rrpv_max)
        self._signature = self._grid(0)
        self._outcome = self._grid(False)

    def _index(self, pc: int) -> int:
        mask = (1 << self.table_bits) - 1
        word = pc >> 2
        return (word ^ (word >> self.table_bits)) & mask

    # ------------------------------------------------------------------
    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._rrpv[set_idx][way] = 0
        if not self._outcome[set_idx][way]:
            self._outcome[set_idx][way] = True
            idx = self._signature[set_idx][way]
            if self._shct[idx] < self.counter_max:
                self._shct[idx] += 1

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        idx = self._index(pc)
        self._signature[set_idx][way] = idx
        self._outcome[set_idx][way] = False
        predicted_reuse = self._shct[idx] > 0
        self._rrpv[set_idx][way] = (self.rrpv_max - 1 if predicted_reuse
                                    else self.rrpv_max)

    def on_evict(self, set_idx: int, way: int, pc: int,
                 reused: bool) -> None:
        if not self._outcome[set_idx][way]:
            idx = self._signature[set_idx][way]
            if self._shct[idx] > 0:
                self._shct[idx] -= 1

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        rrpv = self._rrpv[set_idx]
        while True:
            for way in range(self.num_ways):
                if rrpv[way] >= self.rrpv_max:
                    return way
            for way in range(self.num_ways):
                rrpv[way] += 1
