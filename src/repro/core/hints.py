"""Hint injection (§3.3 of the paper).

The temperature of each static branch is quantized into a k-bit *hint*
embedded in the branch instruction's spare encoding bits.  This module
models the hint store as a :class:`HintMap` (pc → category) plus the two
quantization strategies the paper discusses:

* :class:`ThresholdQuantizer` — empirically chosen percentage thresholds
  (the paper's design; 50%/80% by default);
* :class:`UniformQuantizer` — equal-population bins (the "naive approach"
  the paper rejects because it splits branches near temperature cliffs),
  kept for the ablation benchmark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Mapping, Sequence, Union

import numpy as np

from repro.core.temperature import TemperatureProfile, _check_thresholds

__all__ = ["DEFAULT_THRESHOLDS", "HintMap", "ThresholdQuantizer",
           "UniformQuantizer"]

#: The paper's empirically best thresholds (§3.3): cold ≤ 50 < warm ≤ 80 < hot.
DEFAULT_THRESHOLDS = (50.0, 80.0)


@dataclass
class HintMap:
    """Static-branch pc → temperature category, as injected in the binary.

    Models the k spare instruction bits: ``num_categories`` bounds the
    stored values and :attr:`hint_bits` is the per-branch encoding cost.
    """

    categories: Dict[int, int] = field(default_factory=dict)
    num_categories: int = 3
    #: Category assigned to branches absent from the profile.
    default_category: int = 0

    def __post_init__(self) -> None:
        if self.num_categories < 2:
            raise ValueError("num_categories must be >= 2")
        if not 0 <= self.default_category < self.num_categories:
            raise ValueError("default_category out of range")
        bad = {pc: c for pc, c in self.categories.items()
               if not 0 <= c < self.num_categories}
        if bad:
            sample = next(iter(bad.items()))
            raise ValueError(
                f"category out of range for pc {sample[0]:#x}: {sample[1]} "
                f"(num_categories={self.num_categories})")

    # -- mapping protocol (what ThermometerPolicy consumes) -------------
    def get(self, pc: int, default: int | None = None) -> int:
        if default is None:
            default = self.default_category
        return self.categories.get(pc, default)

    def __getitem__(self, pc: int) -> int:
        return self.get(pc)

    def __contains__(self, pc: int) -> bool:
        return pc in self.categories

    def __len__(self) -> int:
        return len(self.categories)

    def __iter__(self) -> Iterator[int]:
        return iter(self.categories)

    # -- properties ------------------------------------------------------
    @property
    def hint_bits(self) -> int:
        """Bits needed per branch to encode a category."""
        return max(1, math.ceil(math.log2(self.num_categories)))

    def btb_storage_overhead_bits(self, btb_entries: int) -> int:
        """Extra BTB storage to mirror the hint per entry (§3.4: 2KB for an
        8K-entry BTB with 2-bit hints)."""
        return self.hint_bits * btb_entries

    def category_counts(self) -> list:
        counts = [0] * self.num_categories
        for category in self.categories.values():
            counts[category] += 1
        return counts

    # -- persistence -----------------------------------------------------
    def to_json(self, path: Union[str, Path]) -> None:
        payload = {
            "num_categories": self.num_categories,
            "default_category": self.default_category,
            "categories": {format(pc, "x"): c
                           for pc, c in self.categories.items()},
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "HintMap":
        payload = json.loads(Path(path).read_text())
        return cls(
            categories={int(pc, 16): int(c)
                        for pc, c in payload["categories"].items()},
            num_categories=int(payload["num_categories"]),
            default_category=int(payload["default_category"]))


class ThresholdQuantizer:
    """Quantize hit-to-taken percentages with explicit thresholds."""

    def __init__(self, thresholds: Sequence[float] = DEFAULT_THRESHOLDS):
        _check_thresholds(thresholds)
        self.thresholds = tuple(float(t) for t in thresholds)

    @property
    def num_categories(self) -> int:
        return len(self.thresholds) + 1

    def category(self, hit_to_taken: float) -> int:
        for c, bound in enumerate(self.thresholds):
            if hit_to_taken <= bound:
                return c
        return len(self.thresholds)

    def quantize(self, profile: TemperatureProfile,
                 default_category: int = 0) -> HintMap:
        """One ``searchsorted`` over every percentage: the left side
        puts a value equal to a threshold in the colder category, like
        :meth:`category`."""
        values = np.fromiter(profile.percentages.values(), dtype=np.float64,
                             count=len(profile.percentages))
        categories = np.searchsorted(self.thresholds, values, side="left")
        return HintMap(
            categories=dict(zip(profile.percentages, categories.tolist())),
            num_categories=self.num_categories,
            default_category=default_category)

    def __repr__(self) -> str:
        return f"ThresholdQuantizer(thresholds={self.thresholds})"


class UniformQuantizer:
    """Equal-population binning — the naive alternative of §3.3.

    Bins are chosen so each contains (approximately) the same number of
    unique branches; branches near a temperature cliff can land in the same
    bin as much-hotter branches, which is why the paper prefers thresholds.
    """

    def __init__(self, num_categories: int = 3):
        if num_categories < 2:
            raise ValueError("num_categories must be >= 2")
        self.num_categories = num_categories

    def quantize(self, profile: TemperatureProfile,
                 default_category: int = 0) -> HintMap:
        if not profile.percentages:
            return HintMap(categories={},
                           num_categories=self.num_categories,
                           default_category=default_category)
        values = np.fromiter(profile.percentages.values(), dtype=np.float64)
        quantiles = np.quantile(
            values, [i / self.num_categories
                     for i in range(1, self.num_categories)])
        categories = {}
        for pc, y in profile.percentages.items():
            category = int(np.searchsorted(quantiles, y, side="left"))
            categories[pc] = min(category, self.num_categories - 1)
        return HintMap(categories=categories,
                       num_categories=self.num_categories,
                       default_category=default_category)

    def __repr__(self) -> str:
        return f"UniformQuantizer(num_categories={self.num_categories})"
