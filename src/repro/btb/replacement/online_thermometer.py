"""Online Thermometer: temperature estimated in hardware, no profile.

An extension study beyond the paper: how much of Thermometer's benefit
actually *requires* the offline OPT simulation?  This variant keeps a
pc-hashed table of per-branch (taken, hit) event counters updated at access
time and classifies temperature from the *observed* hit-to-taken ratio
under its own (non-optimal) replacement.

Two structural handicaps relative to the profile-guided design, both
intentional and both visible in the ablation benchmarks:

* the ratio is measured under the deployed policy, not under OPT, so a
  branch that keeps getting evicted looks cold even when OPT would have
  retained it (a self-fulfilling prophecy the offline analysis avoids);
* the table is finite and hash-indexed, so large branch footprints alias.

Bypass is disabled by default: with self-measured ratios, bypassing a
"cold" branch starves it of the very insertions that would let it prove
itself hot — a feedback spiral the offline OPT profile cannot enter
(measured in ``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.btb.replacement.base import BYPASS, ReplacementPolicy

__all__ = ["OnlineThermometerPolicy"]


class OnlineThermometerPolicy(ReplacementPolicy):
    """Algorithm 1 driven by live hit/taken counters instead of hints."""

    name = "thermometer-online"
    supports_bypass = True

    def __init__(self, table_bits: int = 14,
                 thresholds: Sequence[float] = (50.0, 80.0),
                 counter_max: int = 255, bypass_enabled: bool = False,
                 warm_floor: int = 4):
        super().__init__()
        if table_bits < 4:
            raise ValueError("table_bits must be >= 4")
        if list(thresholds) != sorted(thresholds):
            raise ValueError("thresholds must be ascending")
        self.table_bits = table_bits
        self.thresholds = tuple(thresholds)
        self.counter_max = counter_max
        self.bypass_enabled = bypass_enabled
        #: Below this many observations a branch is treated as middle
        #: class (no evidence yet).
        self.warm_floor = warm_floor

    def _allocate(self) -> None:
        size = 1 << self.table_bits
        self._taken = [0] * size
        self._hits = [0] * size
        self._stamps = self._grid(0)
        self._clock = 0

    # ------------------------------------------------------------------
    def _slot(self, pc: int) -> int:
        mask = (1 << self.table_bits) - 1
        word = pc >> 2
        return (word ^ (word >> self.table_bits)) & mask

    def _record(self, pc: int, hit: bool) -> None:
        slot = self._slot(pc)
        if self._taken[slot] >= self.counter_max:
            # Halve both counters: cheap exponential aging.
            self._taken[slot] >>= 1
            self._hits[slot] >>= 1
        self._taken[slot] += 1
        if hit:
            self._hits[slot] += 1

    def temperature_of(self, pc: int) -> int:
        slot = self._slot(pc)
        taken = self._taken[slot]
        if taken < self.warm_floor:
            return self._middle_category()
        ratio = 100.0 * self._hits[slot] / taken
        for category, bound in enumerate(self.thresholds):
            if ratio <= bound:
                return category
        return len(self.thresholds)

    def _middle_category(self) -> int:
        return len(self.thresholds) // 2 + (len(self.thresholds) % 2)

    # ------------------------------------------------------------------
    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._record(pc, hit=True)
        self._clock += 1
        self._stamps[set_idx][way] = self._clock

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._record(pc, hit=False)
        self._clock += 1
        self._stamps[set_idx][way] = self._clock

    def on_bypass(self, set_idx: int, pc: int, index: int) -> None:
        self._record(pc, hit=False)

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        temps = [self.temperature_of(pc) for pc in resident_pcs]
        incoming_temp = self.temperature_of(incoming_pc)
        coldest = min(incoming_temp, min(temps))
        candidates = [w for w in range(self.num_ways)
                      if temps[w] == coldest]
        if not candidates:
            if self.bypass_enabled:
                return BYPASS
            candidates = list(range(self.num_ways))
        stamps = self._stamps[set_idx]
        return min(candidates, key=stamps.__getitem__)
