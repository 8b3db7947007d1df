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
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.btb import kernels
from repro.btb.btb import BTB, BTBStats
from repro.btb.config import BTBConfig, DEFAULT_BTB_CONFIG
from repro.btb.replacement.opt import BeladyOptimalPolicy
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import span
from repro.trace.record import BranchTrace
from repro.trace.stream import AccessStream, access_stream_for

__all__ = ["BranchProfile", "COLUMNS", "OptProfile", "profile_trace"]

#: The per-branch columns of an :class:`OptProfile`, in
#: :class:`BranchProfile` field order; all but ``pcs`` are counters.
COLUMNS = ("pcs", "taken", "hits", "inserts", "bypasses")


@dataclass(frozen=True)
class BranchProfile:
    """Per-static-branch counters collected under optimal replacement
    (one row of an :class:`OptProfile`)."""

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


def _column(values=()) -> np.ndarray:
    return np.array(values, dtype=np.int64)


@dataclass(eq=False)
class OptProfile:
    """The result of one optimal-replacement profiling run.

    Per-branch data are five parallel int64 :data:`COLUMNS`, one row
    per static branch, in order of first occurrence in the access
    stream.  Columns keep a profile's memory
    out of the cyclic garbage collector's walks (a harness holds many
    profiles for its whole life) and make pickling a handful of buffer
    copies; :attr:`branches` is an object view for code that wants one.
    """

    trace_name: str
    config: BTBConfig
    pcs: np.ndarray = field(default_factory=_column)
    taken: np.ndarray = field(default_factory=_column)
    hits: np.ndarray = field(default_factory=_column)
    inserts: np.ndarray = field(default_factory=_column)
    bypasses: np.ndarray = field(default_factory=_column)
    stats: BTBStats = field(default_factory=BTBStats)
    #: Wall-clock seconds spent in the OPT replay (the paper's Fig. 14
    #: offline-simulation cost).
    elapsed_seconds: float = 0.0

    @classmethod
    def from_branches(cls, trace_name: str, config: BTBConfig,
                      branches: Iterable[BranchProfile]) -> "OptProfile":
        """A profile holding ``branches``' counters, in iteration order."""
        rows = [(b.pc, b.taken, b.hits, b.inserts, b.bypasses)
                for b in branches]
        columns = list(zip(*rows)) or [()] * len(COLUMNS)
        return cls(trace_name, config, *map(_column, columns))

    def __getstate__(self) -> Dict[str, object]:
        # Timing is provenance, not identity: the content-addressed
        # store must serialize the same profiling recipe to the same
        # bytes on every host (the fabric's peer fetch and differential
        # tests depend on it), so wall clock stays out of the pickle.
        # Freshly computed profiles still expose their elapsed time.
        state = dict(self.__dict__)
        state["elapsed_seconds"] = 0.0
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OptProfile):
            return NotImplemented
        return (self.trace_name == other.trace_name
                and self.config == other.config
                and self.stats == other.stats
                and self.elapsed_seconds == other.elapsed_seconds
                and all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name in COLUMNS))

    @property
    def branches(self) -> Mapping[int, BranchProfile]:
        """Read-only pc → :class:`BranchProfile` view, built on each
        access."""
        return MappingProxyType({
            row[0]: BranchProfile(*row) for row in zip(
                *(getattr(self, name).tolist() for name in COLUMNS))})

    def hit_to_taken_column(self) -> np.ndarray:
        """Per-branch hit-to-taken percentage, row-aligned with ``pcs``
        (the same ``100.0 * hits / taken`` as
        :attr:`BranchProfile.hit_to_taken`; 0.0 where never taken)."""
        return np.where(self.taken > 0,
                        100.0 * self.hits / np.maximum(self.taken, 1), 0.0)

    def hit_to_taken(self) -> Dict[int, float]:
        """pc → hit-to-taken percentage for every profiled branch."""
        return dict(zip(self.pcs.tolist(),
                        self.hit_to_taken_column().tolist()))

    @property
    def num_branches(self) -> int:
        return len(self.pcs)

    def __repr__(self) -> str:
        return (f"OptProfile({self.trace_name!r}, branches="
                f"{self.num_branches}, hit_rate={self.stats.hit_rate:.3f})")


def _aggregate_outcomes(stream: AccessStream, outcomes: bytearray,
                        profile: OptProfile) -> None:
    """Fold per-access outcome codes into ``profile``'s columns.

    Rows follow the reference loop's order (first occurrence of each pc
    in the stream) so serialized profiles stay byte-identical.
    """
    out = np.frombuffer(outcomes, dtype=np.uint8)
    uniq, first, inverse = np.unique(stream.pcs, return_index=True,
                                     return_inverse=True)
    k = len(uniq)
    order = np.argsort(first, kind="stable")
    profile.pcs = uniq[order].astype(np.int64)
    profile.taken = np.bincount(inverse, minlength=k)[order]
    for name, code in (("hits", kernels.OUTCOME_HIT),
                       ("inserts", kernels.OUTCOME_INSERT),
                       ("bypasses", kernels.OUTCOME_BYPASS)):
        setattr(profile, name,
                np.bincount(inverse[out == code], minlength=k)[order])


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
    trace's access stream).  When the policy is built here, the replay's
    BTB is released to the storage free list before returning.
    """
    if stream is None:
        stream = access_stream_for(trace, config)
    elif stream.config != config:
        raise ValueError(
            f"stream was built for {stream.config}, not {config}")
    owned = policy is None
    if owned:
        policy = BeladyOptimalPolicy.from_access_stream(
            stream, bypass_enabled=bypass_enabled)
    btb = BTB(config, policy)
    profile = OptProfile(trace_name=trace.name, config=config)
    stats = btb.stats
    registry = get_registry()
    with span("core.opt_replay"):
        start = time.perf_counter()
        # Fast path: the set-partitioned OPT kernel replays the stream and
        # hands back one outcome code per access; the per-branch counters
        # are then pure bincount aggregation instead of per-access Python.
        outcomes = kernels.try_fast_opt_profile(stream, btb)
        if outcomes is not None:
            _aggregate_outcomes(stream, outcomes, profile)
        else:
            pcs = stream.pcs_list
            targets = stream.targets_list
            sets = stream.sets_list
            access = btb._access_with_set
            rows: Dict[int, int] = {}
            columns = ([], [], [], [], [])
            seen, taken, hits, inserts, bypasses = columns
            for i in range(len(pcs)):
                pc = pcs[i]
                bypasses_before = stats.bypasses
                fills_before = stats.compulsory_fills + stats.evictions
                hit = access(sets[i], pc, targets[i], i)
                row = rows.get(pc)
                if row is None:
                    row = rows[pc] = len(seen)
                    seen.append(pc)
                    for column in columns[1:]:
                        column.append(0)
                taken[row] += 1
                if hit:
                    hits[row] += 1
                elif stats.bypasses > bypasses_before:
                    bypasses[row] += 1
                elif (stats.compulsory_fills + stats.evictions
                      > fills_before):
                    inserts[row] += 1
            (profile.pcs, profile.taken, profile.hits, profile.inserts,
             profile.bypasses) = (_column(c) for c in columns)
        profile.elapsed_seconds = time.perf_counter() - start
    profile.stats = btb.stats
    if owned:
        # Nothing outside this call sees the BTB or its policy.
        btb.release()
    registry.count("profiler/replays")
    registry.count("profiler/accesses", stats.accesses)
    registry.count("profiler/static_branches", profile.num_branches)
    return profile
