"""Offline optimal-replacement profiling (§3.2 of the paper).

Thermometer's software half replays the collected branch stream through a
simulation of Belady's optimal BTB replacement and records, per static
branch: how many times it was taken, how many of those were BTB hits under
OPT, and how often OPT chose to insert vs. bypass it.  The hit/taken ratio
is the branch's *hit-to-taken percentage*, the raw material for temperature
classification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.btb import kernels
from repro.btb.btb import BTB, BTBStats
from repro.btb.config import BTBConfig, DEFAULT_BTB_CONFIG
from repro.btb.replacement.opt import BeladyOptimalPolicy
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import span
from repro.trace.record import BranchTrace
from repro.trace.stream import AccessStream, access_stream_for

__all__ = ["BranchProfile", "OptProfile", "profile_trace"]


@dataclass
class BranchProfile:
    """Per-static-branch counters collected under optimal replacement."""

    pc: int
    taken: int = 0
    hits: int = 0
    inserts: int = 0
    bypasses: int = 0

    @property
    def hit_to_taken(self) -> float:
        """BTB hits per taken execution, as a percentage (0–100)."""
        if self.taken == 0:
            return 0.0
        return 100.0 * self.hits / self.taken

    @property
    def bypass_ratio(self) -> float:
        """Fraction of this branch's misses that OPT chose not to insert."""
        denominator = self.inserts + self.bypasses
        if denominator == 0:
            return 0.0
        return self.bypasses / denominator


@dataclass
class OptProfile:
    """The result of one optimal-replacement profiling run."""

    trace_name: str
    config: BTBConfig
    branches: Dict[int, BranchProfile] = field(default_factory=dict)
    stats: BTBStats = field(default_factory=BTBStats)
    #: Wall-clock seconds spent in the OPT replay (the paper's Fig. 14
    #: offline-simulation cost).
    elapsed_seconds: float = 0.0

    def __getstate__(self) -> Dict[str, object]:
        # Timing is provenance, not identity: the content-addressed
        # store must serialize the same profiling recipe to the same
        # bytes on every host (the fabric's peer fetch and differential
        # tests depend on it), so wall clock stays out of the pickle.
        # Freshly computed profiles still expose their elapsed time.
        state = dict(self.__dict__)
        state["elapsed_seconds"] = 0.0
        return state

    def hit_to_taken(self) -> Dict[int, float]:
        """pc → hit-to-taken percentage for every profiled branch."""
        return {pc: b.hit_to_taken for pc, b in self.branches.items()}

    @property
    def num_branches(self) -> int:
        return len(self.branches)

    def __repr__(self) -> str:
        return (f"OptProfile({self.trace_name!r}, branches="
                f"{self.num_branches}, hit_rate={self.stats.hit_rate:.3f})")


def _aggregate_outcomes(stream: AccessStream, outcomes: bytearray,
                        branches: Dict[int, BranchProfile]) -> None:
    """Fold per-access outcome codes into per-branch profiles.

    Preserves the reference loop's dict ordering (first occurrence of
    each pc in the stream) so serialized profiles stay byte-identical.
    """
    pcs = stream.pcs
    out = np.frombuffer(outcomes, dtype=np.uint8)
    uniq, first, inverse = np.unique(pcs, return_index=True,
                                     return_inverse=True)
    k = len(uniq)
    taken = np.bincount(inverse, minlength=k)
    hits = np.bincount(inverse[out == kernels.OUTCOME_HIT], minlength=k)
    inserts = np.bincount(inverse[out == kernels.OUTCOME_INSERT],
                          minlength=k)
    bypasses = np.bincount(inverse[out == kernels.OUTCOME_BYPASS],
                           minlength=k)
    for j in np.argsort(first, kind="stable"):
        pc = int(uniq[j])
        branches[pc] = BranchProfile(pc=pc, taken=int(taken[j]),
                                     hits=int(hits[j]),
                                     inserts=int(inserts[j]),
                                     bypasses=int(bypasses[j]))


def profile_trace(trace: BranchTrace,
                  config: BTBConfig = DEFAULT_BTB_CONFIG,
                  bypass_enabled: bool = True,
                  policy: Optional[BeladyOptimalPolicy] = None,
                  stream: Optional[AccessStream] = None) -> OptProfile:
    """Replay ``trace`` under Belady-optimal replacement, collecting
    per-branch statistics.

    ``stream`` may supply the trace's shared columnar access stream for
    ``config`` (otherwise the memoized one is looked up); ``policy`` may
    supply a pre-built OPT policy (it must have been built from this
    trace's access stream).
    """
    if stream is None:
        stream = access_stream_for(trace, config)
    elif stream.config != config:
        raise ValueError(
            f"stream was built for {stream.config}, not {config}")
    if policy is None:
        policy = BeladyOptimalPolicy.from_access_stream(
            stream, bypass_enabled=bypass_enabled)
    btb = BTB(config, policy)
    profile = OptProfile(trace_name=trace.name, config=config)
    branches = profile.branches
    stats = btb.stats
    registry = get_registry()
    with span("core.opt_replay"):
        start = time.perf_counter()
        # Fast path: the set-partitioned OPT kernel replays the stream and
        # hands back one outcome code per access; the per-branch counters
        # are then pure bincount aggregation instead of per-access Python.
        outcomes = kernels.try_fast_opt_profile(stream, btb)
        if outcomes is not None:
            _aggregate_outcomes(stream, outcomes, branches)
        else:
            pcs = stream.pcs_list
            targets = stream.targets_list
            sets = stream.sets_list
            access = btb._access_with_set
            for i in range(len(pcs)):
                pc = pcs[i]
                bypasses_before = stats.bypasses
                fills_before = stats.compulsory_fills + stats.evictions
                hit = access(sets[i], pc, targets[i], i)
                record = branches.get(pc)
                if record is None:
                    record = BranchProfile(pc=pc)
                    branches[pc] = record
                record.taken += 1
                if hit:
                    record.hits += 1
                elif stats.bypasses > bypasses_before:
                    record.bypasses += 1
                elif (stats.compulsory_fills + stats.evictions
                      > fills_before):
                    record.inserts += 1
        profile.elapsed_seconds = time.perf_counter() - start
    profile.stats = btb.stats
    registry.count("profiler/replays")
    registry.count("profiler/accesses", stats.accesses)
    registry.count("profiler/static_branches", len(branches))
    return profile
