"""Bypass behavior by temperature class (§2.5, Fig. 9).

Under the optimal policy, how often is a missing branch *not inserted* at
all?  The paper finds cold and warm branches bypass far more often than hot
ones — the basis for Thermometer's bypass rule (Algorithm 1 line 6).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.btb.config import BTBConfig, DEFAULT_BTB_CONFIG
from repro.core.profiler import OptProfile, profile_trace
from repro.core.temperature import _check_thresholds
from repro.trace.record import BranchTrace

__all__ = ["bypass_ratio_by_class"]


def bypass_ratio_by_class(trace: BranchTrace,
                          config: BTBConfig = DEFAULT_BTB_CONFIG,
                          thresholds: Sequence[float] = (50.0, 80.0),
                          profile: OptProfile | None = None) -> List[float]:
    """Fraction of OPT misses resolved by bypass, per temperature class.

    Returns one ratio per class, coldest first (the paper's Fig. 9 bars:
    cold, warm, hot).
    """
    if profile is None:
        profile = profile_trace(trace, config)
    _check_thresholds(thresholds)
    # A branch's class is the number of thresholds strictly below its
    # percentage (``y <= bound`` picks the first bound at or above y).
    categories = np.searchsorted(np.asarray(thresholds, dtype=np.float64),
                                 profile.hit_to_taken_column(), side="left")
    n_classes = len(thresholds) + 1
    bypasses = np.bincount(categories, weights=profile.bypasses,
                           minlength=n_classes)
    misses = bypasses + np.bincount(categories, weights=profile.inserts,
                                    minlength=n_classes)
    return [int(bypasses[c]) / int(misses[c]) if misses[c] else 0.0
            for c in range(n_classes)]
