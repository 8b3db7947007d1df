"""Thermometer's hardware replacement policy (Algorithm 1 of the paper).

Each branch instruction carries a k-bit *temperature* hint produced by the
offline profile analysis (:mod:`repro.core`).  On a replacement decision the
policy considers the incoming branch and all resident ways:

1. find the coldest temperature ``t`` among them;
2. collect the candidate set ``S`` of branches at temperature ``t``;
3. if the incoming branch is the *only* member of ``S``, bypass the BTB;
4. otherwise evict the least-recently-used resident member of ``S``.

Step 1–3 encode the profiled *holistic* reuse behavior; the LRU tiebreak in
step 4 retains *transient* behavior — the combination is the paper's key
design point (§3.4).

The policy also tracks the paper's *coverage* statistic (Fig. 15): a
replacement is "covered" when the temperature hints actually narrowed the
candidate set (not all candidates shared one temperature); otherwise the
decision degenerates to pure LRU.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.btb.replacement.base import BYPASS, ReplacementPolicy

__all__ = ["ThermometerPolicy"]


class ThermometerPolicy(ReplacementPolicy):
    """Coldest-temperature-first eviction with LRU tiebreak and bypass."""

    name = "thermometer"
    supports_bypass = True

    def __init__(self, hints: Mapping[int, int], default_category: int = 0,
                 bypass_enabled: bool = True, tiebreak: str = "lru"):
        """``hints`` maps branch pc → temperature category (0 = coldest).

        Branches absent from the profile default to ``default_category``
        (the harness uses the middle category: an unprofiled branch has
        shown no evidence either way, and treating it as coldest would
        wrongly bypass it forever).

        ``tiebreak`` selects the within-coldest-class victim: ``"lru"`` is
        the paper's Algorithm 1 (holistic + transient); ``"static"`` picks
        the lowest way, isolating the holistic signal for the Fig. 16
        ablation.
        """
        super().__init__()
        if tiebreak not in ("lru", "static"):
            raise ValueError("tiebreak must be 'lru' or 'static'")
        self._hints = hints
        self.default_category = default_category
        self.bypass_enabled = bypass_enabled
        self.tiebreak = tiebreak
        # Fig. 15 statistics.
        self.covered_decisions = 0
        self.uncovered_decisions = 0

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        self._stamps = self._grid(0)
        self._temps = self._grid(0)
        self._clock = 0

    def temperature_of(self, pc: int) -> int:
        return self._hints.get(pc, self.default_category)

    # ------------------------------------------------------------------
    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._clock += 1
        self._stamps[set_idx][way] = self._clock

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._clock += 1
        self._stamps[set_idx][way] = self._clock
        self._temps[set_idx][way] = self.temperature_of(pc)

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        temps = self._temps[set_idx]
        if self.prefetch_fill_in_progress:
            # A prefetch fill asserts imminent use, overriding the static
            # temperature (the paper's newly-inserted-entry buffer, §3.4):
            # never bypass it; evict the LRU of the coldest *resident*
            # class instead.
            coldest = min(temps)
            candidates = [w for w in range(self.num_ways)
                          if temps[w] == coldest]
            stamps = self._stamps[set_idx]
            return min(candidates, key=stamps.__getitem__)
        incoming_temp = self.temperature_of(incoming_pc)
        coldest = min(incoming_temp, min(temps))
        hottest = max(incoming_temp, max(temps))
        if coldest == hottest:
            self.uncovered_decisions += 1
        else:
            self.covered_decisions += 1
        candidates = [w for w in range(self.num_ways)
                      if temps[w] == coldest]
        if not candidates:
            # The incoming branch is the unique coldest: bypass (Algorithm 1
            # line 6).  With bypass disabled, fall back to evicting LRU
            # among all ways.
            if self.bypass_enabled:
                return BYPASS
            candidates = list(range(self.num_ways))
        if self.tiebreak == "static":
            return candidates[0]
        stamps = self._stamps[set_idx]
        return min(candidates, key=stamps.__getitem__)

    # ------------------------------------------------------------------
    @property
    def coverage(self) -> float:
        """Fraction of replacement decisions where hints narrowed the
        candidate set (Fig. 15)."""
        total = self.covered_decisions + self.uncovered_decisions
        if total == 0:
            return 0.0
        return self.covered_decisions / total
