"""GHRP: Global-History-based Replacement and bypass Prediction.

Reimplementation of the BTB policy from Ajorpaz et al., "Exploring Predictive
Replacement Policies for Instruction Cache and Branch Target Buffer"
(ISCA 2018) — the only prior replacement policy designed specifically for the
BTB.  GHRP hashes the branch pc with a global history of recent branch pcs
into *signatures*, and uses multiple tables of saturating counters (a
skewed/majority organization borrowed from sampling dead-block prediction) to
predict whether an entry is *dead*, i.e. will not hit again before eviction.
Predicted-dead entries are evicted first (and predicted-dead fills can bypass
the BTB entirely).

The paper under reproduction finds GHRP ineffective for data center
applications: their branch working sets overwhelm the counter tables and the
policy loses all knowledge of a branch once its entry is evicted (§2.3).
Those failure modes are intrinsic to the mechanism and reproduce here.
"""

from __future__ import annotations

from typing import Sequence

from repro.btb.replacement.base import BYPASS, ReplacementPolicy

__all__ = ["GHRPPolicy"]

_HISTORY_MASK = 0xFFFF


class GHRPPolicy(ReplacementPolicy):
    """Dead-entry prediction from (pc, global path history) signatures."""

    name = "ghrp"
    supports_bypass = True

    def __init__(self, table_bits: int = 12, num_tables: int = 3,
                 counter_max: int = 7, dead_threshold: int = 12,
                 bypass_enabled: bool = True):
        super().__init__()
        if table_bits < 2:
            raise ValueError("table_bits must be >= 2")
        if num_tables < 1:
            raise ValueError("num_tables must be >= 1")
        self.table_bits = table_bits
        self.num_tables = num_tables
        self.counter_max = counter_max
        #: Sum-of-counters threshold above which an entry is predicted dead.
        self.dead_threshold = dead_threshold
        self.bypass_enabled = bypass_enabled

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        size = 1 << self.table_bits
        self._tables = [[0] * size for _ in range(self.num_tables)]
        self._history = 0
        # Per-way metadata.
        self._signature = self._grid(0)
        self._dead = self._grid(False)
        self._stamps = self._grid(0)
        self._clock = 0

    # ------------------------------------------------------------------
    # Signatures and prediction
    # ------------------------------------------------------------------
    def _signature_of(self, pc: int) -> int:
        return ((pc >> 2) ^ (self._history << 1)) & 0x3FFFFFF

    def _indices(self, signature: int):
        mask = (1 << self.table_bits) - 1
        for t in range(self.num_tables):
            # Skew each table with a different fold of the signature.
            folded = signature ^ (signature >> (self.table_bits - t)) ^ (t * 0x9E37)
            yield folded & mask

    def _predict_dead(self, signature: int) -> bool:
        total = sum(self._tables[t][idx]
                    for t, idx in enumerate(self._indices(signature)))
        return total >= self.dead_threshold

    def _train(self, signature: int, dead: bool) -> None:
        for t, idx in enumerate(self._indices(signature)):
            value = self._tables[t][idx]
            if dead:
                if value < self.counter_max:
                    self._tables[t][idx] = value + 1
            elif value > 0:
                self._tables[t][idx] = value - 1

    def _update_history(self, pc: int) -> None:
        self._history = ((self._history << 4) ^ (pc >> 2)) & _HISTORY_MASK

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        # The entry proved live: detrain the signature of its previous
        # access, then re-tag it with the current signature and prediction.
        self._train(self._signature[set_idx][way], dead=False)
        self._update_history(pc)
        sig = self._signature_of(pc)
        self._signature[set_idx][way] = sig
        self._dead[set_idx][way] = self._predict_dead(sig)
        self._clock += 1
        self._stamps[set_idx][way] = self._clock

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._update_history(pc)
        sig = self._signature_of(pc)
        self._signature[set_idx][way] = sig
        self._dead[set_idx][way] = self._predict_dead(sig)
        self._clock += 1
        self._stamps[set_idx][way] = self._clock

    def on_evict(self, set_idx: int, way: int, pc: int,
                 reused: bool) -> None:
        # An entry evicted without a hit since its last access was dead:
        # train its last signature toward dead.
        if not reused:
            self._train(self._signature[set_idx][way], dead=True)

    def on_bypass(self, set_idx: int, pc: int, index: int) -> None:
        self._update_history(pc)

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        if self.bypass_enabled:
            incoming_sig = self._signature_of(incoming_pc)
            if self._predict_dead(incoming_sig):
                return BYPASS
        dead = self._dead[set_idx]
        stamps = self._stamps[set_idx]
        dead_ways = [w for w in range(self.num_ways) if dead[w]]
        candidates = dead_ways if dead_ways else range(self.num_ways)
        return min(candidates, key=stamps.__getitem__)
