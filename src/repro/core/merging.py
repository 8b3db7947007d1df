"""Combining profiles from multiple inputs or runs.

Data center operators profile continuously and recompile several times a
day (§1 of the paper); a deployed hint set therefore reflects *many*
profiling runs, not one.  :func:`merge_profiles` aggregates per-branch
counters across runs (optionally weighted, e.g. by traffic share), and
:func:`profile_drift` quantifies how far apart two profiles' temperature
assignments are — the monitoring signal for "time to re-profile".
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.btb.btb import BTBStats
from repro.core.profiler import COLUMNS, OptProfile
from repro.core.temperature import TemperatureProfile

__all__ = ["merge_profiles", "profile_drift", "merge_temperatures"]


def merge_profiles(profiles: Sequence[OptProfile],
                   weights: Optional[Sequence[float]] = None) -> OptProfile:
    """Aggregate per-branch counters across profiling runs.

    ``weights`` scales each run's counts (default: equal weight); weighted
    counts are rounded to integers, keeping the result a valid profile.
    All profiles must come from the same BTB configuration — temperature is
    geometry-specific (§3.4).
    """
    if not profiles:
        raise ValueError("need at least one profile")
    configs = {p.config for p in profiles}
    if len(configs) > 1:
        raise ValueError(
            "cannot merge profiles from different BTB configurations: "
            f"{sorted((c.entries, c.ways) for c in configs)}")
    if weights is None:
        weights = [1.0] * len(profiles)
    if len(weights) != len(profiles):
        raise ValueError("weights must match profiles")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")

    # Rows in order of first occurrence across the runs, as the
    # per-branch loop this replaces produced them.
    pcs = np.concatenate([p.pcs for p in profiles])
    uniq, first, inverse = np.unique(pcs, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first, kind="stable")
    row = np.argsort(order)[inverse]  # each input row's merged row
    counters = {}
    for name in COLUMNS[1:]:
        # round() per run and branch, half to even like Python's round.
        scaled = np.concatenate([
            np.rint(np.multiply(weight, getattr(p, name),
                                dtype=np.float64)).astype(np.int64)
            for p, weight in zip(profiles, weights)])
        column = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(column, row, scaled)
        counters[name] = column
    stats = BTBStats()
    for profile in profiles:
        stats = stats + profile.stats
    return OptProfile(
        trace_name="+".join(p.trace_name for p in profiles),
        config=profiles[0].config, pcs=uniq[order], stats=stats,
        elapsed_seconds=sum(p.elapsed_seconds for p in profiles),
        **counters)


def merge_temperatures(profiles: Sequence[OptProfile],
                       weights: Optional[Sequence[float]] = None
                       ) -> TemperatureProfile:
    """Convenience: merge and convert to a temperature profile."""
    return TemperatureProfile.from_opt_profile(
        merge_profiles(profiles, weights))


def profile_drift(old: OptProfile, new: OptProfile,
                  thresholds: Tuple[float, ...] = (50.0, 80.0)
                  ) -> Dict[str, float]:
    """How much have temperatures moved between two profiling runs?

    Returns:

    * ``category_change_rate`` — fraction of shared branches whose
      temperature class changed;
    * ``new_branch_rate`` — fraction of the new profile's branches absent
      from the old one (code churn / coverage shift);
    * ``mean_abs_delta`` — mean absolute hit-to-taken change on shared
      branches.
    """
    old_temps = TemperatureProfile.from_opt_profile(old)
    new_temps = TemperatureProfile.from_opt_profile(new)
    old_categories = old_temps.classify(thresholds)
    new_categories = new_temps.classify(thresholds)
    shared = old_categories.keys() & new_categories.keys()
    if shared:
        changed = sum(1 for pc in shared
                      if old_categories[pc] != new_categories[pc])
        mean_delta = sum(
            abs(old_temps.percentages[pc] - new_temps.percentages[pc])
            for pc in shared) / len(shared)
        change_rate = changed / len(shared)
    else:
        change_rate = 0.0
        mean_delta = 0.0
    total_new = max(1, len(new_categories))
    return {
        "category_change_rate": change_rate,
        "new_branch_rate": (len(new_categories.keys() - old_categories.keys())
                            / total_new),
        "mean_abs_delta": mean_delta,
    }
