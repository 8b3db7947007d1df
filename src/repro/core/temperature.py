"""Branch temperature (§2.4 of the paper).

A branch's *temperature* summarizes its holistic BTB behavior: the
hit-to-taken percentage it achieves under optimal replacement.  With the
paper's default thresholds a branch is **cold** at ≤ 50%, **warm** in
(50%, 80%], and **hot** above 80%.  Hot branches are the ones the optimal
policy consistently retains; they make up about half of unique branches but
~90% of dynamic execution (Figs. 6–7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.profiler import OptProfile

__all__ = ["COLD", "WARM", "HOT", "TemperatureProfile",
           "classify_temperature", "temperature_class_name"]

#: Canonical 3-class category indices (0 = coldest, matching the policy's
#: "evict the minimum" convention).
COLD, WARM, HOT = 0, 1, 2

_CLASS_NAMES = {COLD: "cold", WARM: "warm", HOT: "hot"}


def temperature_class_name(category: int) -> str:
    """Human-readable name for a 3-class temperature category."""
    try:
        return _CLASS_NAMES[category]
    except KeyError:
        raise ValueError(f"not a 3-class temperature category: {category}")


def classify_temperature(hit_to_taken: float,
                         thresholds: Sequence[float] = (50.0, 80.0)) -> int:
    """Map a hit-to-taken percentage to a category index.

    ``thresholds`` must be ascending; ``len(thresholds) + 1`` categories
    result.  The paper's Eq. in §2.4 with y1=50, y2=80 is the default.
    """
    _check_thresholds(thresholds)
    for category, bound in enumerate(thresholds):
        if hit_to_taken <= bound:
            return category
    return len(thresholds)


def _check_thresholds(thresholds: Sequence[float]) -> None:
    if not thresholds:
        raise ValueError("need at least one threshold")
    if list(thresholds) != sorted(thresholds):
        raise ValueError(f"thresholds must be ascending, got {thresholds}")
    if thresholds[0] < 0 or thresholds[-1] > 100:
        raise ValueError(f"thresholds must lie in [0, 100], got {thresholds}")


@dataclass
class TemperatureProfile:
    """Per-branch hit-to-taken percentages plus dynamic weights."""

    trace_name: str
    #: pc → hit-to-taken percentage under OPT.
    percentages: Dict[int, float]
    #: pc → times taken (dynamic weight).
    taken_counts: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_opt_profile(cls, profile: OptProfile) -> "TemperatureProfile":
        pcs = profile.pcs.tolist()
        return cls(
            trace_name=profile.trace_name,
            percentages=dict(zip(pcs,
                                 profile.hit_to_taken_column().tolist())),
            taken_counts=dict(zip(pcs, profile.taken.tolist())))

    # ------------------------------------------------------------------
    def classify(self, thresholds: Sequence[float] = (50.0, 80.0)
                 ) -> Dict[int, int]:
        """pc → category index under the given thresholds."""
        _check_thresholds(thresholds)
        bounds = list(thresholds)
        out: Dict[int, int] = {}
        for pc, y in self.percentages.items():
            category = len(bounds)
            for c, bound in enumerate(bounds):
                if y <= bound:
                    category = c
                    break
            out[pc] = category
        return out

    def class_fractions(self, thresholds: Sequence[float] = (50.0, 80.0)
                        ) -> List[float]:
        """Fraction of *unique* branches per category (Fig. 6 regions)."""
        categories = self.classify(thresholds)
        n_classes = len(thresholds) + 1
        counts = [0] * n_classes
        for category in categories.values():
            counts[category] += 1
        total = max(1, len(categories))
        return [c / total for c in counts]

    def dynamic_fractions(self, thresholds: Sequence[float] = (50.0, 80.0)
                          ) -> List[float]:
        """Fraction of *dynamic* taken branches per category (Fig. 7)."""
        categories = self.classify(thresholds)
        n_classes = len(thresholds) + 1
        weights = [0] * n_classes
        for pc, category in categories.items():
            weights[category] += self.taken_counts.get(pc, 0)
        total = max(1, sum(weights))
        return [w / total for w in weights]

    # ------------------------------------------------------------------
    def sorted_curve(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Fig. 6 curve: x = % of unique taken branches (sorted by
        descending temperature), y = hit-to-taken percentage."""
        ys = np.sort(np.fromiter(self.percentages.values(), dtype=np.float64))
        ys = ys[::-1]
        if len(ys) == 0:
            return np.empty(0), np.empty(0)
        xs = 100.0 * (np.arange(len(ys)) + 1) / len(ys)
        return xs, ys

    def dynamic_cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Fig. 7 curve: x as above, y = cumulative % of dynamic
        execution covered by the hottest x% of branches."""
        items = sorted(self.percentages.items(),
                       key=lambda kv: kv[1], reverse=True)
        if not items:
            return np.empty(0), np.empty(0)
        weights = np.fromiter(
            (self.taken_counts.get(pc, 0) for pc, _ in items),
            dtype=np.float64, count=len(items))
        total = weights.sum()
        cdf = 100.0 * np.cumsum(weights) / max(total, 1.0)
        xs = 100.0 * (np.arange(len(items)) + 1) / len(items)
        return xs, cdf

    # ------------------------------------------------------------------
    def agreement_with(self, other: "TemperatureProfile",
                       thresholds: Sequence[float] = (50.0, 80.0)) -> float:
        """Fraction of shared branches with the same category in both
        profiles (the paper's cross-input stability, ~81%)."""
        mine = self.classify(thresholds)
        theirs = other.classify(thresholds)
        shared = mine.keys() & theirs.keys()
        if not shared:
            return 0.0
        same = sum(1 for pc in shared if mine[pc] == theirs[pc])
        return same / len(shared)

    def __len__(self) -> int:
        return len(self.percentages)
