"""Set-associative BTB model and the branch-event replay kernel."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.btb.config import BTBConfig, DEFAULT_BTB_CONFIG
from repro.btb.entry import BTBEntry
from repro.btb.observer import BTBObserver
from repro.btb.replacement.base import (BYPASS, RELEASED, ReplacementPolicy,
                                       new_directories, new_grid,
                                       release_directories, release_grids)
from repro.trace.record import BranchKind, BranchTrace
from repro.trace.stream import AccessStream, access_stream_for

__all__ = ["BTB", "BTBStats", "IndirectBTB", "btb_access_stream",
           "replay_stream", "replay_stream_multi", "run_btb"]

_INVALID = -1


@dataclass
class BTBStats:
    """Access counters for one BTB replay."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0
    #: Misses that filled a previously-invalid way (cold-start fills).
    compulsory_fills: int = 0
    #: Hits whose stored target differed from the access's resolved target
    #: (indirect-branch target drift; the BTB silently re-learns on hit).
    target_mismatches: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, num_instructions: int) -> float:
        """Misses per kilo-instruction given the trace's instruction count."""
        if num_instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / num_instructions

    def __add__(self, other: "BTBStats") -> "BTBStats":
        return BTBStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            bypasses=self.bypasses + other.bypasses,
            compulsory_fills=self.compulsory_fills + other.compulsory_fills,
            target_mismatches=(self.target_mismatches
                               + other.target_mismatches))


class BTB:
    """A set-associative branch target buffer with a pluggable policy.

    Storage is one plain list per set and field (``_tags[s][w]``,
    ``_targets``, ``_reused``, ``_fill_index``): the reference loop and
    the replay kernels (:mod:`repro.btb.kernels`) read and mutate these
    rows in place, and scalar list indexing is the cheapest access
    Python has.  The per-access tag match runs through a per-set pc →
    way directory kept in lockstep with the tag rows — constant-time
    instead of a way scan.

    Storage lifetime: rows, directories and the policy's grids come
    from a per-process free list (:func:`~repro.btb.replacement.base.new_grid`).
    The code that owns a job's BTB — ``Harness.run_misses``,
    ``Harness.run_sim`` and the OPT profiler — calls :meth:`release`
    when the job is done with it, and the next BTB on that geometry
    reuses the rows, refilled exactly as a fresh BTB's.  A released BTB
    keeps its :attr:`stats`; any other use raises
    :class:`~repro.btb.replacement.base.ReleasedStorageError`.

    Structured observation: :meth:`add_observer` attaches a
    :class:`~repro.btb.observer.BTBObserver` that receives hit / fill /
    evict / bypass events (this replaced the old ``eviction_listener``
    callable seam).
    """

    def __init__(self, config: BTBConfig = DEFAULT_BTB_CONFIG,
                 policy: Optional[ReplacementPolicy] = None):
        from repro.btb.replacement.lru import LRUPolicy
        self.config = config
        self.policy = policy if policy is not None else LRUPolicy()
        self.policy.bind(config.num_sets, config.ways)
        self.stats = BTBStats()
        nsets, ways = config.num_sets, config.ways
        self._tags = new_grid(nsets, ways, _INVALID)
        self._targets = new_grid(nsets, ways, 0)
        self._reused = new_grid(nsets, ways, False)
        self._fill_index = new_grid(nsets, ways, 0)
        #: Per-set pc → way directory mirroring ``_tags``.
        self._dir: List[Dict[int, int]] = new_directories(nsets)
        self._observers: List[BTBObserver] = []

    def release(self) -> None:
        """Hand this BTB's rows, directories and policy grids to the
        free list for the next BTB on this geometry.

        Only the BTB's owner may call this, once, after its last use:
        :attr:`stats` stays readable, every other use (an access, a
        replay, a lookup, a second release) raises
        :class:`~repro.btb.replacement.base.ReleasedStorageError`.
        """
        rows = (self._tags, self._targets, self._reused, self._fill_index)
        directories = self._dir
        self._tags = self._targets = self._reused = RELEASED
        self._fill_index = self._dir = RELEASED
        release_grids(*rows)
        release_directories(directories)
        self.policy.release()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_observer(self, observer: BTBObserver) -> BTBObserver:
        """Attach a structured event observer; returns it for chaining."""
        self._observers.append(observer)
        return observer

    def remove_observer(self, observer: BTBObserver) -> None:
        self._observers.remove(observer)

    # ------------------------------------------------------------------
    def lookup(self, pc: int) -> Optional[int]:
        """Non-mutating probe: the stored target for ``pc``, or None."""
        s = self.config.set_index(pc)
        way = self._dir[s].get(pc)
        if way is None:
            return None
        return self._targets[s][way]

    def contains(self, pc: int) -> bool:
        return self.lookup(pc) is not None

    def access(self, pc: int, target: int = 0, index: int = 0) -> bool:
        """One demand access by a taken branch; returns True on hit.

        On a miss the branch is inserted (possibly evicting a victim chosen
        by the policy, or bypassing if the policy so decides).
        """
        return self._access_with_set(self.config.set_index(pc), pc, target,
                                     index)

    def _access_with_set(self, s: int, pc: int, target: int,
                         index: int) -> bool:
        """The access hot path with the set index already resolved —
        replay kernels pass the stream's precomputed ``set_indices``."""
        stats = self.stats
        stats.accesses += 1
        way = self._dir[s].get(pc)
        if way is not None:
            stats.hits += 1
            targets_row = self._targets[s]
            if targets_row[way] != target:
                stats.target_mismatches += 1
                targets_row[way] = target
            self._reused[s][way] = True
            self.policy.on_hit(s, way, pc, index)
            if self._observers:
                for observer in self._observers:
                    observer.on_hit(self, s, way, pc, target, index)
            return True
        stats.misses += 1
        self._insert(s, pc, target, index)
        return False

    def insert(self, pc: int, target: int = 0, index: int = 0) -> bool:
        """Insert without a demand access (prefetch fill).

        Returns True if the entry was actually installed (not already
        present and not bypassed).  Prefetch fills do not count as demand
        accesses in :attr:`stats`.
        """
        s = self.config.set_index(pc)
        way = self._dir[s].get(pc)
        if way is not None:
            self._targets[s][way] = target
            return False
        self.policy.prefetch_fill_in_progress = True
        try:
            return self._insert(s, pc, target, index)
        finally:
            self.policy.prefetch_fill_in_progress = False

    def _insert(self, s: int, pc: int, target: int, index: int) -> bool:
        tags = self._tags[s]
        directory = self._dir[s]
        if len(directory) < self.config.ways:
            way = tags.index(_INVALID)
            tags[way] = pc
            self._targets[s][way] = target
            self._reused[s][way] = False
            self._fill_index[s][way] = index
            directory[pc] = way
            self.stats.compulsory_fills += 1
            self.policy.on_fill(s, way, pc, index)
            if self._observers:
                for observer in self._observers:
                    observer.on_fill(self, s, way, pc, target, index)
            return True
        # The live tag row is handed to the policy; policies only read it.
        victim = self.policy.choose_victim(s, tags, pc, index)
        if victim == BYPASS:
            self.stats.bypasses += 1
            self.policy.on_bypass(s, pc, index)
            if self._observers:
                for observer in self._observers:
                    observer.on_bypass(self, s, pc, index)
            return False
        if not 0 <= victim < self.config.ways:
            raise ValueError(
                f"policy {self.policy.name!r} returned invalid victim way "
                f"{victim} (ways={self.config.ways})")
        self.stats.evictions += 1
        victim_pc = tags[victim]
        if self._observers:
            for observer in self._observers:
                observer.on_evict(self, s, victim, victim_pc, pc, index)
        self.policy.on_evict(s, victim, victim_pc,
                             self._reused[s][victim])
        del directory[victim_pc]
        directory[pc] = victim
        tags[victim] = pc
        self._targets[s][victim] = target
        self._reused[s][victim] = False
        self._fill_index[s][victim] = index
        self.policy.on_fill(s, victim, pc, index)
        if self._observers:
            for observer in self._observers:
                observer.on_fill(self, s, victim, pc, target, index)
        return True

    # ------------------------------------------------------------------
    def entry(self, set_idx: int, way: int) -> Optional[BTBEntry]:
        """Materialize the entry stored at ``(set_idx, way)``, if valid."""
        pc = self._tags[set_idx][way]
        if pc == _INVALID:
            return None
        return BTBEntry(pc=pc, target=self._targets[set_idx][way],
                        fill_index=self._fill_index[set_idx][way],
                        reused=self._reused[set_idx][way])

    def resident_pcs(self) -> List[int]:
        """All valid tags currently stored, set by set and way by way."""
        return [pc for row in self._tags for pc in row if pc != _INVALID]

    @property
    def occupancy(self) -> int:
        return sum(map(len, self._dir))

    def __repr__(self) -> str:
        occupancy = ("released" if self._dir is RELEASED
                     else self.occupancy)
        return (f"BTB(entries={self.config.entries}, ways={self.config.ways}, "
                f"policy={self.policy.name}, occupancy={occupancy})")


class IndirectBTB:
    """The separate indirect-target buffer of Table 1 (4096-entry).

    Direct-mapped on (pc, path-history) like a simple ITTAGE-free IBTB; only
    used by the frontend timing model to decide whether an indirect branch's
    *target* was predicted correctly (the main BTB still tracks presence of
    the branch itself).
    """

    def __init__(self, entries: int = 4096, history_bits: int = 8):
        if entries < 1:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.history_bits = history_bits
        self._table: Dict[int, int] = {}
        self._history = 0
        self.hits = 0
        self.misses = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) % self.entries

    def predict_and_update(self, pc: int, actual_target: int) -> bool:
        """Predict ``pc``'s target, then train with the actual target."""
        idx = self._index(pc)
        predicted = self._table.get(idx)
        correct = predicted == actual_target
        if correct:
            self.hits += 1
        else:
            self.misses += 1
            self._table[idx] = actual_target
        mask = (1 << self.history_bits) - 1
        self._history = ((self._history << 1) ^ (actual_target >> 2)) & mask
        return correct


# ----------------------------------------------------------------------
# Trace replay — the branch-event kernel
# ----------------------------------------------------------------------

def btb_access_stream(trace: BranchTrace) -> Tuple[np.ndarray, np.ndarray]:
    """The (pcs, targets) of the BTB demand-access stream of a trace.

    Taken branches only; returns are excluded because they are served by the
    return address stack, not the BTB (DESIGN.md §5).  For the full
    columnar view (set indices, next-use distances, list mirrors) build an
    :class:`~repro.trace.stream.AccessStream` instead.
    """
    mask = trace.taken & (trace.kinds != int(BranchKind.RETURN))
    return trace.pcs[mask], trace.targets[mask]


def replay_stream(stream: AccessStream, btb) -> BTBStats:
    """Replay one columnar access stream through any BTB model.

    This is the single replay kernel shared by :func:`run_btb`, the OPT
    profiler, and the harness miss paths.  When ``btb`` is a plain
    :class:`BTB` on the stream's geometry, the stream's precomputed set
    indices feed the hot path directly; any other model (a subclass,
    another geometry, or any object with an ``access`` method) is driven
    through its own ``access``.  Returns ``btb.stats``.

    When the replay is unobserved (no :class:`BTBObserver` attached) and
    the policy has a fast-path kernel (:mod:`repro.btb.kernels`), that
    kernel executes the replay — bit-identical stats and final state, a
    fraction of the per-access interpreter work.  Anything else takes
    the reference loop below and counts one ``btb/fallback/<reason>``.
    """
    from repro.btb import kernels
    if kernels.try_fast_replay(stream, btb) is not None:
        return btb.stats
    pcs = stream.pcs_list
    targets = stream.targets_list
    if type(btb) is BTB and btb.config == stream.config:
        access = btb._access_with_set
        for i, s in enumerate(stream.sets_list):
            access(s, pcs[i], targets[i], i)
    else:
        access = btb.access
        for i, pc in enumerate(pcs):
            access(pc, targets[i], i)
    return btb.stats


def replay_stream_multi(stream: AccessStream, btbs) -> List[BTBStats]:
    """Replay one access stream through several BTB models; returns
    their stats in order.  Equivalent to one :func:`replay_stream` per
    model."""
    # Kept only because the benchmark's layer trace still wraps this
    # name; delete it when the next benchmark change drops that hook.
    return [replay_stream(stream, btb) for btb in btbs]


def run_btb(trace_or_stream: Union[BranchTrace, AccessStream],
            btb) -> BTBStats:
    """Replay a trace's BTB access stream through ``btb``; returns the
    BTB's stats.

    Accepts either a :class:`~repro.trace.record.BranchTrace` (the shared
    :class:`~repro.trace.stream.AccessStream` for ``btb.config`` is looked
    up or built) or an already-built stream.
    """
    if isinstance(trace_or_stream, AccessStream):
        stream = trace_or_stream
    else:
        stream = access_stream_for(trace_or_stream, btb.config)
    return replay_stream(stream, btb)
