"""Hawkeye (Jain & Lin, ISCA 2016) adapted to the BTB.

Hawkeye reconstructs what Belady's OPT *would have done* on the recent access
history of a few sampled sets (the OPTgen structure), and trains a PC-indexed
predictor to classify instructions as cache-friendly or cache-averse.
Friendly entries are inserted with near-immediate re-reference priority;
averse entries with distant priority, so they are evicted first.

Adaptation notes for the BTB (following §2.3 of the paper under
reproduction): the "load PC" used to index the predictor is the branch pc
itself, and OPTgen windows are sized in set-accesses (8 × associativity, as
in the original).  The mechanism's weakness on data center branch footprints
— predictor aliasing across tens of thousands of static branches, and total
information loss for branches not resident — is inherent and reproduces.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.btb.replacement.base import ReplacementPolicy

__all__ = ["HawkeyePolicy"]

_RRPV_MAX = 7


class _OptGen:
    """Belady reconstruction for one sampled set.

    Tracks a sliding window of the set's last ``window`` accesses and an
    occupancy count per time slot; a reuse interval is an OPT hit iff every
    slot in the interval still has spare capacity.
    """

    def __init__(self, ways: int, window_factor: int = 8):
        self.ways = ways
        self.window = window_factor * ways
        self.time = 0
        self.last_time: Dict[int, int] = {}
        self._occ = [0] * self.window

    def access(self, pc: int) -> bool | None:
        """Record an access; returns OPT's verdict (True = hit, False =
        miss, None = no prior access in window — compulsory)."""
        t = self.time
        self.time += 1
        slot = t % self.window
        self._occ[slot] = 0
        t0 = self.last_time.get(pc)
        self.last_time[pc] = t
        if t0 is None or t - t0 >= self.window:
            return None
        interval = range(t0, t)
        if all(self._occ[x % self.window] < self.ways for x in interval):
            for x in interval:
                self._occ[x % self.window] += 1
            return True
        return False


class HawkeyePolicy(ReplacementPolicy):
    """OPTgen-trained friendly/averse prediction with RRIP-style aging."""

    name = "hawkeye"

    def __init__(self, predictor_bits: int = 11, sample_every: int = 8,
                 window_factor: int = 8):
        super().__init__()
        if predictor_bits < 4:
            raise ValueError("predictor_bits must be >= 4")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.predictor_bits = predictor_bits
        self.sample_every = sample_every
        self.window_factor = window_factor

    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        size = 1 << self.predictor_bits
        # 3-bit counters initialized weakly friendly.
        self._counters = [4] * size
        self._optgen = {s: _OptGen(self.num_ways, self.window_factor)
                        for s in range(0, self.num_sets, self.sample_every)}
        self._rrpv = self._grid(_RRPV_MAX)
        self._friendly = self._grid(False)

    # ------------------------------------------------------------------
    def _predictor_index(self, pc: int) -> int:
        mask = (1 << self.predictor_bits) - 1
        word = pc >> 2
        return (word ^ (word >> self.predictor_bits)) & mask

    def _predict_friendly(self, pc: int) -> bool:
        return self._counters[self._predictor_index(pc)] >= 4

    def _train(self, pc: int, friendly: bool) -> None:
        idx = self._predictor_index(pc)
        value = self._counters[idx]
        if friendly:
            if value < 7:
                self._counters[idx] = value + 1
        elif value > 0:
            self._counters[idx] = value - 1

    def _sample(self, set_idx: int, pc: int) -> None:
        gen = self._optgen.get(set_idx)
        if gen is None:
            return
        verdict = gen.access(pc)
        if verdict is not None:
            self._train(pc, friendly=verdict)

    # ------------------------------------------------------------------
    def on_hit(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._sample(set_idx, pc)
        friendly = self._predict_friendly(pc)
        self._friendly[set_idx][way] = friendly
        self._rrpv[set_idx][way] = 0 if friendly else _RRPV_MAX

    def on_fill(self, set_idx: int, way: int, pc: int, index: int) -> None:
        self._sample(set_idx, pc)
        friendly = self._predict_friendly(pc)
        self._friendly[set_idx][way] = friendly
        rrpv = self._rrpv[set_idx]
        if friendly:
            # Age everyone else so older friendly entries become evictable.
            for w in range(self.num_ways):
                if w != way and rrpv[w] < _RRPV_MAX - 1:
                    rrpv[w] += 1
            rrpv[way] = 0
        else:
            rrpv[way] = _RRPV_MAX

    def on_evict(self, set_idx: int, way: int, pc: int,
                 reused: bool) -> None:
        # Evicting a friendly-predicted entry that never hit means the
        # prediction was wrong; detrain.
        if self._friendly[set_idx][way] and not reused:
            self._train(pc, friendly=False)

    def choose_victim(self, set_idx: int, resident_pcs: Sequence[int],
                      incoming_pc: int, index: int) -> int:
        rrpv = self._rrpv[set_idx]
        best_way = 0
        best_rrpv = -1
        for way in range(self.num_ways):
            if rrpv[way] == _RRPV_MAX:
                return way
            if rrpv[way] > best_rrpv:
                best_rrpv = rrpv[way]
                best_way = way
        return best_way
