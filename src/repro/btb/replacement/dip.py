"""DIP: Dynamic Insertion Policy via set dueling (Qureshi et al.).

DIP adaptively chooses between traditional LRU insertion (new entry becomes
MRU) and *bimodal* insertion (new entry stays LRU, promoted only on reuse —
thrash-resistant).  A few *leader sets* are hard-wired to each policy; a
saturating PSEL counter tracks which leader group misses less and the
remaining *follower sets* copy the winner.

Included because it is the classic adaptive answer to exactly the
scan/thrash patterns the paper's cold bursts create — and it still falls
short of profile-guided replacement, which is the point of Fig. 11.
"""

from __future__ import annotations

from typing import Sequence

from repro.btb.replacement.base import ReplacementPolicy

__all__ = ["DIPPolicy"]

_LRU_LEADER = 1
_BIP_LEADER = 2


class DIPPolicy(ReplacementPolicy):
    """Set-dueling between LRU insertion and bimodal insertion."""

    name = "dip"

    def __init__(self, leader_spacing: int = 32, psel_bits: int = 10,
                 bip_mru_probability: float = 1 / 32):
        super().__init__()
        if leader_spacing < 2:
            raise ValueError("leader_spacing must be >= 2")
        self.leader_spacing = leader_spacing
        self.psel_max = (1 << psel_bits) - 1
        self.bip_mru_probability = bip_mru_probability

    def _allocate(self) -> None:
        self._stamps = self._grid(0)
        self._clock = 0
        self._psel = self.psel_max // 2
        self._bip_counter = 0
        # Leader-set assignment: interleave the two leader groups.
        self._role = [0] * self.num_sets
        for s in range(0, self.num_sets, self.leader_spacing):
            self._role[s] = _LRU_LEADER
        for s in range(self.leader_spacing // 2, self.num_sets,
                       self.leader_spacing):
            if self._role[s] == 0:
                self._role[s] = _BIP_LEADER

    # ------------------------------------------------------------------
    def _uses_bip(self, set_idx: int) -> bool:
        role = self._role[set_idx]
        if role == _LRU_LEADER:
            return False
        if role == _BIP_LEADER:
            return True
        # Followers: PSEL above midpoint means the LRU leaders missed more.
        return self._psel > self.psel_max // 2

    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._clock += 1
        self._stamps[set_idx][way] = self._clock

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._clock += 1
        if self._uses_bip(set_idx):
            # Bimodal: usually insert at LRU position (stamp below every
            # resident), occasionally at MRU.
            self._bip_counter += 1
            if self.bip_mru_probability > 0:
                period = max(1, round(1 / self.bip_mru_probability))
            else:
                period = 0
            if period and self._bip_counter % period == 0:
                self._stamps[set_idx][way] = self._clock
            else:
                self._stamps[set_idx][way] = min(
                    self._stamps[set_idx]) - 1
        else:
            self._stamps[set_idx][way] = self._clock
        # Leader-set misses train PSEL (a fill implies a miss).
        role = self._role[set_idx]
        if role == _LRU_LEADER and self._psel < self.psel_max:
            self._psel += 1
        elif role == _BIP_LEADER and self._psel > 0:
            self._psel -= 1

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        stamps = self._stamps[set_idx]
        return min(range(self.num_ways), key=stamps.__getitem__)
