"""Policy-specialized fast-path replay kernels.

The reference replay (:func:`repro.btb.btb.replay_stream` driving
:meth:`BTB._access_with_set`) pays, on every access, for a dict probe, a
virtual policy dispatch, dataclass counter updates and an observer
check.  Kernels strip all of that: each one is a single specialized
Python loop over precomputed plain-int columns that mutates the BTB's
per-set storage rows (``btb._tags[s]`` etc.) and the policy's own state
in place.  Two kernel shapes exist, chosen per policy by what state the
policy couples:

* **Set-partitioned** (:class:`LRUKernel`, :class:`MRUKernel`,
  :class:`FIFOKernel`, :class:`SRRIPKernel`, :class:`OPTKernel`,
  :class:`ThermometerKernel`, :class:`PLRUKernel`) — BTB sets are
  architecturally independent for these policies, so the replay is
  partitioned by set (:meth:`~repro.trace.stream.AccessStream.partition`)
  and executed one set at a time.
* **Global-order** (:class:`GlobalOrderKernel` subclasses: DIP, SHiP,
  GHRP, Hawkeye, dueling and online Thermometer, random, BRRIP) — these
  policies couple sets through global state (a PSEL counter, a
  signature table, a path-history register, predictor counters, a
  pseudo-random generator) mutated in *stream order*, so a per-set
  partition cannot be bit-identical.  Their kernels instead run one
  specialized flat pass in original stream order (the RNG policies draw
  from the policy's own ``random.Random``, so the draw sequence is the
  reference's).

**Run heads.**  Within one set's sub-stream, a *run* is a maximal
stretch of one pc (:class:`~repro.trace.stream.SetPartition`).  Every
access after a run's head finds that pc resident, so it is a hit.
Every kernel does a head's full step and applies the run's last target
and recency to the way at once; ``reused`` becomes True, and the tail's
hits, target changes and ``hits_out`` marks are credited in bulk
(:meth:`ReplayKernel._finish`).  A tail keeps only the work that can
change global state: none for the set-partitioned kernels and DIP,
random, BRRIP and the dueling Thermometer, which iterate heads only;
the first reuse for SHiP; the sampled-set training and the run end's
predictor read for Hawkeye; a detrain (plus the run end's dead
prediction) for GHRP; a hit count for the online Thermometer
(:class:`GlobalOrderKernel` gives each rule).  The edge rules that keep
this exact: a Thermometer head that is bypassed bypasses its whole run
(the temperature and the set are unchanged); OPT never bypasses a head
with a tail (its next use is the very next access to its set); and in
GHRP and the dueling and online Thermometers, a bypassed head leaves
its run *open*, so the run's tails step one by one as misses.

Every registry policy has a kernel; the dispatch-matrix test
(``tests/test_fast_kernels.py``) fails if a new one arrives without.

Every kernel is **bit-identical** to the reference loop: it produces the
same :class:`~repro.btb.btb.BTBStats`, the same final BTB contents
(tags, targets, reuse bits, fill indices, pc→way directories), and the
same final policy state (recency stamps, RRPV grids, temperatures,
signature/outcome grids, predictor counters, PSEL/history registers,
coverage counters, generator state), so a replay that continues through
the slow path afterwards cannot diverge.  ``tests/test_fast_kernels.py``,
``tests/test_run_heads.py`` and ``tests/test_kernel_equivalence.py``
enforce this differentially for every registered policy.

Dispatch (:func:`try_fast_replay`, called from ``replay_stream``) takes
the fast path only when all of the following hold; anything else falls
back to the reference loop:

* the model is a plain :class:`~repro.btb.btb.BTB` on the stream's
  geometry;
* no :class:`~repro.btb.observer.BTBObserver` (including the telemetry
  observer) is attached — kernels emit no per-access events;
* the BTB is pristine (zero stats, empty storage) — kernels replay from
  reset, they do not resume mid-stream state;
* the policy's **exact type** has a registered kernel (a subclass —
  even one that merely overrides ``choose_victim`` — silently takes the
  reference loop, it never errors) and no policy hook has been patched
  onto the *instance*;
* the kernel's :meth:`~ReplayKernel.matches` precondition holds
  (set-partitioned kernels that reconstruct state analytically require
  the just-bound policy state, e.g. recency clock at zero; for OPT, the
  policy was built from this very stream's next-use column.
  Global-order kernels simulate the policy's own state in place and
  accept any starting state);
* the runtime config's ``fast_replay`` switch (``REPRO_FAST_REPLAY``)
  is on.

Every replay a kernel runs counts one ``btb/fast_path`` in the metrics
registry, and every replay sent to the reference loop counts one
``btb/fallback/<reason>``.
:func:`select_kernel` decides every reason (``foreign-model``,
``observers-attached``, ``disabled``, ``no-kernel``,
``instance-patched``, ``not-pristine``) except ``per-branch``
(``replay_stream`` asked for per-branch counts, which no kernel keeps)
and ``no-outcome-kernel`` (the OPT profiler got a policy whose kernel
records no per-access outcomes).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro import runtime
from repro.btb.btb import BTB
from repro.btb.replacement.dip import (DIPPolicy, _BIP_LEADER as _DIP_BIP,
                                       _LRU_LEADER as _DIP_LRU)
from repro.btb.replacement.dueling_thermometer import (
    DuelingThermometerPolicy, _LRU_LEADER as _DUEL_LRU,
    _THERMO_LEADER as _DUEL_THERMO)
from repro.btb.replacement.fifo import FIFOPolicy, RandomPolicy
from repro.btb.replacement.ghrp import GHRPPolicy
from repro.btb.replacement.hawkeye import HawkeyePolicy, _RRPV_MAX
from repro.btb.replacement.lru import LRUPolicy, MRUPolicy
from repro.btb.replacement.online_thermometer import OnlineThermometerPolicy
from repro.btb.replacement.opt import BeladyOptimalPolicy
from repro.btb.replacement.plru import TreePLRUPolicy
from repro.btb.replacement.ship import SHiPPolicy
from repro.btb.replacement.srrip import BRRIPPolicy, SRRIPPolicy
from repro.btb.replacement.thermometer import ThermometerPolicy
from repro.telemetry.metrics import get_registry
from repro.trace.stream import AccessStream, SetPartition

__all__ = ["KERNELS", "GlobalOrderKernel", "ReplayKernel", "count_fallback",
           "fast_path_enabled", "kernel_policy_names", "select_kernel",
           "try_fast_opt_profile", "try_fast_replay"]

#: Per-access outcome codes recorded by the OPT kernel for the profiler.
OUTCOME_HIT = 0
OUTCOME_INSERT = 1
OUTCOME_BYPASS = 2


def fast_path_enabled() -> bool:
    """Whether dispatch may take the fast path at all
    (:attr:`~repro.runtime.RuntimeConfig.fast_replay`)."""
    return runtime.current().fast_replay


def _rows(btb):
    """The BTB's live storage: per-set tag, target, reuse-bit and
    fill-index rows, and the per-set pc → way directories."""
    return btb._tags, btb._targets, btb._reused, btb._fill_index, btb._dir


def _set_rows(btb, part: SetPartition):
    """Per populated set: ``(set, first run, end run)`` and its live
    directory, tag, target, reuse-bit and fill-index rows."""
    tags, tgts, reused, fillidx, dirs = _rows(btb)
    starts = part.starts.tolist()
    for g, s in enumerate(part.set_ids.tolist()):
        yield (s, starts[g], starts[g + 1], dirs[s], tags[s], tgts[s],
               reused[s], fillidx[s])


def _column(values) -> array:
    """An int column (stream positions, table indices) as a compact
    ``array('i')``: scalar loops index it as fast as a tuple, at four
    bytes an entry."""
    return array("i", np.asarray(values, dtype=np.intc).tobytes())


def _first_tails(part: SetPartition) -> Tuple[np.ndarray, np.ndarray]:
    """Stream position of each run's first tail (runs with a tail only),
    and the offset of each run's tails in ``part.repeats``."""
    tails = part.lengths - 1
    offsets = np.cumsum(tails) - tails
    return part.repeats[offsets[tails > 0]], offsets


class _RunTails:
    """The tails of a run, looked up by the stream-order index of its
    head (``k`` over :attr:`SetPartition.by_position`).

    A kernel needs them only when a head with a tail is bypassed: that
    run stays *open* (its pc is not resident), so its tails are misses
    the kernel replays access by access.  The lookup is built on first
    use, so a replay without such a bypass pays nothing."""

    def __init__(self, part: SetPartition):
        self.part = part
        self.runs: List[int] = []
        self._rank = self._offsets = None

    def open(self, k: int) -> np.ndarray:
        """Record run ``k`` as open and return its tails' positions."""
        part = self.part
        if self._rank is None:
            self._rank = np.argsort(np.array(part.heads))
            self._offsets = _first_tails(part)[1]
        r = int(self._rank[k])
        self.runs.append(r)
        start = self._offsets[r]
        return part.repeats[start:start + part.lengths[r] - 1]

    def mask(self) -> Optional[np.ndarray]:
        """The open runs as :meth:`ReplayKernel._finish`'s ``bypassed``
        column, or None."""
        if not self.runs:
            return None
        bypassed = np.zeros(len(self.part.heads), dtype=np.bool_)
        bypassed[self.runs] = True
        return bypassed


def _restamp(stamps, dirs, part: SetPartition, clock0: int,
             bypass_positions: List[int]) -> int:
    """Turn the stream positions a kernel stored as recency stamps into
    the reference's clock values; returns the end clock.

    The policy clock ticks on every access but a bypass, so the clock
    after the access at position ``p`` is ``clock0 + p + 1`` minus the
    bypasses at or before ``p``.  Within one set, position order is
    clock order (a touch is never a bypass), so the kernel's victim
    scans compare positions exactly like stamps.  Storage starts empty
    and fills ways in order, so a set's touched ways are its first
    ``len(dir)``; the others keep their start stamps."""
    filled = [(s, len(dirs[s])) for s in part.set_ids.tolist()]
    positions = [p for s, m in filled for p in stamps[s][:m]]
    touched = np.array(positions, dtype=np.int64)
    clocks = (touched + (clock0 + 1)
              - np.searchsorted(bypass_positions, touched, side="right"))
    clocks = clocks.tolist()
    k = 0
    for s, m in filled:
        stamps[s][:m] = clocks[k:k + m]
        k += m
    return clock0 + len(part) - len(bypass_positions)


# ----------------------------------------------------------------------
# Kernel base
# ----------------------------------------------------------------------

class ReplayKernel:
    """One policy-specialized replay.

    Subclasses implement :meth:`matches` (is this exact policy instance
    in a state the kernel can reproduce?) and :meth:`replay` (simulate
    every access, leaving the final BTB + policy state in place).
    """

    @classmethod
    def matches(cls, policy, stream: AccessStream) -> bool:
        return True

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        raise NotImplementedError

    @staticmethod
    def _write_stats(btb, accesses: int, hits: int, evictions: int,
                     bypasses: int, compulsory: int,
                     mismatches: int) -> None:
        stats = btb.stats
        stats.accesses += accesses
        stats.hits += hits
        stats.misses += accesses - hits
        stats.evictions += evictions
        stats.bypasses += bypasses
        stats.compulsory_fills += compulsory
        stats.target_mismatches += mismatches

    @classmethod
    def _finish(cls, btb, part: SetPartition,
                hits_out: Optional[bytearray], hits: int, evictions: int,
                bypasses: int, compulsory: int, mismatches: int,
                bypassed: Optional[np.ndarray] = None) -> None:
        """Credit the run tails, then write the stats of a run-head
        replay.

        Every non-head access is a hit, and the target changes inside
        its run are mismatches — except in the runs marked in the
        boolean ``bypassed`` column, whose tails the caller counted as
        bypasses."""
        repeats, changes = part.repeats, part.changes
        if bypassed is not None:
            repeats = repeats[np.repeat(~bypassed, part.lengths - 1)]
            changes = changes[~bypassed]
        if hits_out is not None:
            np.frombuffer(hits_out, dtype=np.uint8)[repeats] = 1
        cls._write_stats(btb, len(part), hits + len(repeats), evictions,
                         bypasses, compulsory,
                         mismatches + int(changes.sum()))


# ----------------------------------------------------------------------
# Recency kernels: LRU / MRU
# ----------------------------------------------------------------------

class LRUKernel(ReplayKernel):
    """LRU: victim is the least-recently-touched way.

    Within one set, the stream position of a way's last touch orders
    recency exactly like the reference policy's global clock stamps
    (which are unique, making tie-break rules moot)."""

    evict_most_recent = False

    @classmethod
    def matches(cls, policy, stream: AccessStream) -> bool:
        return policy._clock == 0

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        heads, ends = part.heads, part.ends
        pcs, tgts = stream.pcs_list, stream.targets_list
        W = btb.config.ways
        ways = range(W)
        pick = max if self.evict_most_recent else min
        stamps = btb.policy._stamps
        hits = evictions = compulsory = mismatches = 0
        for s, a, b, dct, tag, tgt, reused, fillidx in _set_rows(btb, part):
            touch = stamps[s]  # stream positions until _restamp
            nfilled = 0
            for r in range(a, b):
                p = heads[r]
                e = ends[r]
                pc = pcs[p]
                way = dct.get(pc)
                if way is not None:
                    hits += 1
                    if hits_out is not None:
                        hits_out[p] = 1
                    if tgt[way] != tgts[p]:
                        mismatches += 1
                    reused[way] = True
                else:
                    if nfilled < W:
                        way = nfilled
                        nfilled += 1
                        compulsory += 1
                    else:
                        way = pick(ways, key=touch.__getitem__)
                        evictions += 1
                        del dct[tag[way]]
                    dct[pc] = way
                    tag[way] = pc
                    reused[way] = e != p
                    fillidx[way] = p
                tgt[way] = tgts[e]
                touch[way] = e
        btb.policy._clock = _restamp(stamps, btb._dir, part, 0, [])
        self._finish(btb, part, hits_out, hits, evictions, 0, compulsory,
                     mismatches)


class MRUKernel(LRUKernel):
    evict_most_recent = True


# ----------------------------------------------------------------------
# FIFO
# ----------------------------------------------------------------------

class FIFOKernel(ReplayKernel):
    """FIFO: victim is the oldest *fill*; hits do not refresh."""

    @classmethod
    def matches(cls, policy, stream: AccessStream) -> bool:
        return policy._clock == 0

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        heads, ends = part.heads, part.ends
        pcs, tgts = stream.pcs_list, stream.targets_list
        W = btb.config.ways
        ways = range(W)
        hits = evictions = compulsory = mismatches = 0
        #: (set, filled ways) per set, and the fill positions of those
        #: ways in set order — the policy's clock only ticks on fills,
        #: so stamps are ranks in the global fill order.
        filled: List[tuple] = []
        last_fills: List[int] = []
        fill_positions: List[int] = []
        for s, a, b, dct, tag, tgt, reused, fillidx in _set_rows(btb, part):
            nfilled = 0
            for r in range(a, b):
                p = heads[r]
                e = ends[r]
                pc = pcs[p]
                way = dct.get(pc)
                if way is not None:
                    hits += 1
                    if hits_out is not None:
                        hits_out[p] = 1
                    if tgt[way] != tgts[p]:
                        mismatches += 1
                    reused[way] = True
                    tgt[way] = tgts[e]
                    continue
                if nfilled < W:
                    way = nfilled
                    nfilled += 1
                    compulsory += 1
                else:
                    way = min(ways, key=fillidx.__getitem__)
                    evictions += 1
                    del dct[tag[way]]
                dct[pc] = way
                tag[way] = pc
                tgt[way] = tgts[e]
                reused[way] = e != p
                fillidx[way] = p
                fill_positions.append(p)
            filled.append((s, nfilled))
            last_fills += fillidx[:nfilled]
        fill_positions.sort()
        ranks = np.searchsorted(fill_positions, last_fills,
                                side="right").tolist()
        stamps = btb.policy._stamps
        k = 0
        for s, m in filled:
            stamps[s][:m] = ranks[k:k + m]
            k += m
        btb.policy._clock = len(fill_positions)
        self._finish(btb, part, hits_out, hits, evictions, 0, compulsory,
                     mismatches)


# ----------------------------------------------------------------------
# SRRIP
# ----------------------------------------------------------------------

class SRRIPKernel(ReplayKernel):
    """Static RRIP: per-way RRPV counters, whole-set aging on pressure."""

    @classmethod
    def matches(cls, policy, stream: AccessStream) -> bool:
        m = policy.rrpv_max
        return all(v == m for row in policy._rrpv for v in row)

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        heads, ends = part.heads, part.ends
        pcs, tgts = stream.pcs_list, stream.targets_list
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        rrpv_max = policy.rrpv_max
        rrpv_ins = policy.rrpv_insert
        rrpv_grid = policy._rrpv
        hits = evictions = compulsory = mismatches = 0
        for s, a, b, dct, tag, tgt, reused, fillidx in _set_rows(btb, part):
            rr = rrpv_grid[s]
            nfilled = 0
            for r in range(a, b):
                p = heads[r]
                e = ends[r]
                pc = pcs[p]
                way = dct.get(pc)
                if way is not None:
                    hits += 1
                    if hits_out is not None:
                        hits_out[p] = 1
                    if tgt[way] != tgts[p]:
                        mismatches += 1
                    reused[way] = True
                    tgt[way] = tgts[e]
                    rr[way] = 0
                    continue
                if nfilled < W:
                    way = nfilled
                    nfilled += 1
                    compulsory += 1
                else:
                    way = None
                    while way is None:
                        for w in ways:
                            if rr[w] >= rrpv_max:
                                way = w
                                break
                        else:
                            for w in ways:
                                rr[w] += 1
                    evictions += 1
                    del dct[tag[way]]
                dct[pc] = way
                tag[way] = pc
                tgt[way] = tgts[e]
                fillidx[way] = p
                if e == p:
                    reused[way] = False
                    rr[way] = rrpv_ins
                else:
                    reused[way] = True
                    rr[way] = 0
        self._finish(btb, part, hits_out, hits, evictions, 0, compulsory,
                     mismatches)


# ----------------------------------------------------------------------
# Belady OPT
# ----------------------------------------------------------------------

class OPTKernel(ReplayKernel):
    """Belady's optimal replacement with bypass, driven by the stream's
    precomputed next-use column.

    A resident way's next use is that of its last access, so each run
    needs only its end's next use.  A head with a tail is never
    bypassed: its next use is the very next access to its set, sooner
    than any resident's.

    ``outcomes``, when given, receives one byte per access at its
    stream position (:data:`OUTCOME_HIT` / :data:`OUTCOME_INSERT` /
    :data:`OUTCOME_BYPASS`) — the profiler's per-branch attribution
    without its per-access Python bookkeeping.
    """

    @classmethod
    def matches(cls, policy, stream: AccessStream) -> bool:
        # The policy must have been built from this stream's own
        # next-use column (from_access_stream / the registry path) and
        # not advanced yet.  Every geometry of a trace shares one column
        # (next use depends on the pc sequence only); select_kernel
        # already rejected a BTB of another geometry.
        next_use = stream.core._next_use
        return (policy._last_index == 0 and next_use is not None
                and policy._next_use is next_use)

    def replay(self, btb, stream: AccessStream,
               outcomes: Optional[bytearray] = None,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        heads, ends = part.heads, part.ends
        pcs, tgts = stream.pcs_list, stream.targets_list
        end_next = stream.next_use[np.array(ends, dtype=np.int64)].tolist()
        W = btb.config.ways
        policy = btb.policy
        bypass_enabled = policy.bypass_enabled
        resident_grid = policy._resident_next
        record = outcomes is not None
        hits = evictions = bypasses = compulsory = mismatches = 0
        for s, a, b, dct, tag, tgt, reused, fillidx in _set_rows(btb, part):
            resnext = resident_grid[s]
            nfilled = 0
            for r in range(a, b):
                p = heads[r]
                e = ends[r]
                pc = pcs[p]
                way = dct.get(pc)
                if way is not None:
                    hits += 1
                    if hits_out is not None:
                        hits_out[p] = 1
                    if tgt[way] != tgts[p]:
                        mismatches += 1
                    reused[way] = True
                    if record:
                        outcomes[p] = OUTCOME_HIT
                else:
                    if nfilled < W:
                        way = nfilled
                        nfilled += 1
                        compulsory += 1
                    else:
                        way = 0
                        vn = resnext[0]
                        for w in range(1, W):
                            if resnext[w] > vn:
                                vn = resnext[w]
                                way = w
                        if bypass_enabled and e == p and end_next[r] >= vn:
                            bypasses += 1
                            if record:
                                outcomes[p] = OUTCOME_BYPASS
                            continue
                        evictions += 1
                        del dct[tag[way]]
                    dct[pc] = way
                    tag[way] = pc
                    reused[way] = e != p
                    fillidx[way] = p
                    if record:
                        outcomes[p] = OUTCOME_INSERT
                tgt[way] = tgts[e]
                resnext[way] = end_next[r]
        if record:
            np.frombuffer(outcomes, dtype=np.uint8)[part.repeats] = \
                OUTCOME_HIT
        n = len(part)
        policy._last_index = n - 1 if n else 0
        self._finish(btb, part, hits_out, hits, evictions, bypasses,
                     compulsory, mismatches)


# ----------------------------------------------------------------------
# Thermometer (Algorithm 1)
# ----------------------------------------------------------------------

class ThermometerKernel(ReplayKernel):
    """Coldest-class scan, LRU-among-coldest tiebreak, unique-coldest
    bypass — the paper's Algorithm 1, specialized per set.

    A bypass leaves the set and the incoming temperature unchanged, so a
    bypassed head bypasses its whole run: each of the run's accesses is
    a covered decision and a bypass."""

    @classmethod
    def matches(cls, policy, stream: AccessStream) -> bool:
        return policy._clock == 0

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        heads, ends = part.heads, part.ends
        pcs, tgts = stream.pcs_list, stream.targets_list
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        hints = policy._hints
        default = policy.default_category
        # HintMap wraps a plain dict; binding its inner ``get`` skips one
        # call frame per miss.  Only valid with an explicit non-None
        # default (HintMap substitutes its own default for None).
        raw = getattr(hints, "categories", None)
        if isinstance(raw, dict) and default is not None:
            hget = raw.get
        else:
            hget = hints.get
        bypass_enabled = policy.bypass_enabled
        static_tb = policy.tiebreak == "static"
        temps_grid = policy._temps
        stamps = policy._stamps
        covered = uncovered = 0
        hits = evictions = compulsory = mismatches = 0
        #: Runs whose head was bypassed.
        bypassed_runs: List[int] = []
        for s, a, b, dct, tag, tgt, reused, fillidx in _set_rows(btb, part):
            wtemps = temps_grid[s]
            touch = stamps[s]  # stream positions until _restamp
            nfilled = 0
            for r in range(a, b):
                p = heads[r]
                e = ends[r]
                pc = pcs[p]
                way = dct.get(pc)
                if way is not None:
                    hits += 1
                    if hits_out is not None:
                        hits_out[p] = 1
                    if tgt[way] != tgts[p]:
                        mismatches += 1
                    reused[way] = True
                    tgt[way] = tgts[e]
                    touch[way] = e
                    continue
                t_in = hget(pc, default)
                if nfilled < W:
                    way = nfilled
                    nfilled += 1
                    compulsory += 1
                else:
                    coldest = min(wtemps)
                    hottest = max(wtemps)
                    if t_in < coldest:
                        coldest = t_in
                    if t_in > hottest:
                        hottest = t_in
                    if coldest == hottest:
                        uncovered += 1
                    else:
                        covered += 1
                    candidates = [w for w in ways if wtemps[w] == coldest]
                    if not candidates:
                        # The incoming branch is the unique coldest.
                        if bypass_enabled:
                            bypassed_runs.append(r)
                            continue
                        candidates = list(ways)
                    if static_tb:
                        way = candidates[0]
                    else:
                        way = min(candidates, key=touch.__getitem__)
                    evictions += 1
                    del dct[tag[way]]
                dct[pc] = way
                tag[way] = pc
                tgt[way] = tgts[e]
                reused[way] = e != p
                fillidx[way] = p
                wtemps[way] = t_in
                touch[way] = e
        bypassed = None
        bypass_positions = np.zeros(0, dtype=np.int64)
        if bypassed_runs:
            bypassed = np.zeros(len(heads), dtype=np.bool_)
            bypassed[bypassed_runs] = True
            # A bypassed run's further accesses repeat its head's
            # covered decision.
            covered += int(part.lengths[bypassed].sum()) - len(bypassed_runs)
            bypass_positions = np.sort(np.concatenate((
                np.array([heads[r] for r in bypassed_runs], dtype=np.int64),
                part.repeats[np.repeat(bypassed, part.lengths - 1)])))
        bypasses = len(bypass_positions)
        policy._clock = _restamp(stamps, btb._dir, part, 0,
                                 bypass_positions)
        policy.covered_decisions += covered
        policy.uncovered_decisions += uncovered
        self._finish(btb, part, hits_out, hits, evictions, bypasses,
                     compulsory, mismatches, bypassed=bypassed)


# ----------------------------------------------------------------------
# Tree PLRU
# ----------------------------------------------------------------------

class PLRUKernel(ReplayKernel):
    """Tree pseudo-LRU: per-way touch paths precomputed once, victim walk
    follows the bits.  A run's tail re-touches its head's way, which
    rewrites the same bits, so only heads touch the tree.

    State-faithful: the kernel mutates the policy's own per-set bit
    vectors in place, so any starting bit state is reproduced exactly and
    no freshness precondition is needed."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        heads, ends = part.heads, part.ends
        pcs, tgts = stream.pcs_list, stream.targets_list
        W = btb.config.ways
        all_bits = btb.policy._bits
        # The bits a touch of each way writes, as (node, value) pairs —
        # the policy's per-access tree walk, hoisted out of the loop.
        paths = []
        for way in range(W):
            path = []
            node = 0
            low = 0
            span = W
            while span > 1:
                half = span // 2
                go_right = way >= low + half
                path.append((node, 0 if go_right else 1))
                node = 2 * node + (2 if go_right else 1)
                if go_right:
                    low += half
                span = half
            paths.append(tuple(path))
        hits = evictions = compulsory = mismatches = 0
        for s, a, b, dct, tag, tgt, reused, fillidx in _set_rows(btb, part):
            bits = all_bits[s]
            nfilled = 0
            for r in range(a, b):
                p = heads[r]
                e = ends[r]
                pc = pcs[p]
                way = dct.get(pc)
                if way is not None:
                    hits += 1
                    if hits_out is not None:
                        hits_out[p] = 1
                    if tgt[way] != tgts[p]:
                        mismatches += 1
                    reused[way] = True
                else:
                    if nfilled < W:
                        way = nfilled
                        nfilled += 1
                        compulsory += 1
                    else:
                        node = 0
                        low = 0
                        span = W
                        while span > 1:
                            half = span // 2
                            if bits[node] == 1:
                                node = 2 * node + 2
                                low += half
                            else:
                                node = 2 * node + 1
                            span = half
                        way = low
                        evictions += 1
                        del dct[tag[way]]
                    dct[pc] = way
                    tag[way] = pc
                    reused[way] = e != p
                    fillidx[way] = p
                tgt[way] = tgts[e]
                for node, v in paths[way]:
                    bits[node] = v
        self._finish(btb, part, hits_out, hits, evictions, 0, compulsory,
                     mismatches)


# ----------------------------------------------------------------------
# Global-order kernels
# ----------------------------------------------------------------------

class GlobalOrderKernel(ReplayKernel):
    """Base for kernels over policies with cross-set learning state.

    DIP's PSEL, SHiP's signature table, GHRP's history register and
    counter tables, Hawkeye's predictor, the online/dueling Thermometer
    counters, and the random/BRRIP generators are all mutated in *global
    stream order* — an access to set 3 can change the decision of the
    next access to set 7.
    A set-partitioned replay therefore cannot be bit-identical; these
    kernels run one specialized flat pass in original order instead,
    mutating the BTB's storage rows and the policy's own state
    structures in place.  Because the policy state is simulated
    faithfully rather than reconstructed analytically, any starting
    state is acceptable and :meth:`matches` stays permissive.

    Each pass still skips the run tails' work that global state cannot
    see.  A head takes the full step and applies its run's last target,
    reuse bit and recency at once; what is left of a tail depends on
    the policy:

    * DIP, random, BRRIP and the dueling Thermometer touch only their
      own set's state on a hit, so they visit run heads in stream order
      (:attr:`~repro.trace.stream.SetPartition.by_position`): all of a
      run's tail precedes the set's next head.
    * SHiP changes global state only on a fill's first reuse, so it
      visits heads and each run's first tail.
    * Hawkeye trains its predictor only in sampled sets, and an
      unsampled hit just re-reads it, so it visits heads, every access
      of a sampled set, and the run ends of the other sets.
    * GHRP detrains a signature on every hit, and the online
      Thermometer counts every hit, so they walk every access, but a
      tail does only that (:attr:`~repro.trace.stream.SetPartition.tail`).

    The kernels with bypass (GHRP and the dueling and online
    Thermometers) keep one more rule: a bypassed head leaves its pc out
    of the set, so its run is *open* and its tails are misses again.
    They take the full step, as single-access runs, and count themselves
    (:class:`_RunTails`).  Recency clocks tick on every access but a
    bypass, so these kernels stamp stream positions and convert them
    once at the end (:func:`_restamp`).
    """


class DIPKernel(GlobalOrderKernel):
    """DIP set dueling: leader-set roles are static, PSEL and the BIP
    fill counter evolve in global fill order.  Every access ticks the
    clock, so the clock at stream position ``p`` is the start clock
    plus ``p + 1``."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        stamps = policy._stamps
        role = policy._role
        clock0 = policy._clock + 1
        psel = policy._psel
        bip = policy._bip_counter
        psel_max = policy.psel_max
        mid = psel_max // 2
        prob = policy.bip_mru_probability
        period = max(1, round(1 / prob)) if prob > 0 else 0
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        hits = evictions = compulsory = mismatches = 0
        for p, e in zip(*part.by_position):
            s = sets[p]
            pc = pcs[p]
            dct = dirs[s]
            srow = stamps[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[p] = 1
                row = tgts[s]
                if row[way] != tgts_in[p]:
                    mismatches += 1
                row[way] = tgts_in[e]
                reused[s][way] = True
                srow[way] = clock0 + e
                continue
            tag = tags[s]
            if len(dct) < W:
                way = len(dct)
                compulsory += 1
            else:
                way = min(ways, key=srow.__getitem__)
                evictions += 1
                del dct[tag[way]]
            dct[pc] = way
            tag[way] = pc
            tgts[s][way] = tgts_in[e]
            fillidx[s][way] = p
            r = role[s]
            bimodal = r != _DIP_LRU and (r == _DIP_BIP or psel > mid)
            if bimodal:
                bip += 1
            reused[s][way] = e != p
            if e != p:
                # The tail's hits re-stamp the way.
                srow[way] = clock0 + e
            elif bimodal and not (period and bip % period == 0):
                # min over the row still sees the victim's stale stamp,
                # exactly like the reference hook.
                srow[way] = min(srow) - 1
            else:
                srow[way] = clock0 + p
            if r == _DIP_LRU:
                if psel < psel_max:
                    psel += 1
            elif r == _DIP_BIP and psel > 0:
                psel -= 1
        policy._clock = clock0 - 1 + len(pcs)
        policy._psel = psel
        policy._bip_counter = bip
        self._finish(btb, part, hits_out, hits, evictions, 0, compulsory,
                     mismatches)


class SHIPKernel(GlobalOrderKernel):
    """SHiP: RRIP aging per set, signature counters shared globally.

    A hit zeroes its way's RRPV, and only a fill's first reuse bumps the
    SHCT counter of its signature, so the pass visits heads and each
    run's first tail in stream order."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        tail = part.tail
        heads_at = np.flatnonzero(np.frombuffer(tail, np.uint8) == 0)
        events = np.concatenate((heads_at, _first_tails(part)[0]))
        events.sort()
        ends = part.by_position[1]
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        shct = policy._shct
        rrpv = policy._rrpv
        sig = policy._signature
        outcome = policy._outcome
        tb = policy.table_bits
        mask = (1 << tb) - 1
        cmax = policy.counter_max
        rmax = policy.rrpv_max
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        #: The way of each set's current run.
        run_way = [0] * len(dirs)
        hits = evictions = compulsory = mismatches = 0
        k = 0
        for i in _column(events):
            s = sets[i]
            if tail[i]:
                # The run's first reuse: the reference hit's SHCT step.
                way = run_way[s]
                orow = outcome[s]
                if not orow[way]:
                    orow[way] = True
                    idx = sig[s][way]
                    if shct[idx] < cmax:
                        shct[idx] += 1
                continue
            e = ends[k]
            k += 1
            pc = pcs[i]
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                if row[way] != tgts_in[i]:
                    mismatches += 1
                row[way] = tgts_in[e]
                reused[s][way] = True
                rrpv[s][way] = 0
                orow = outcome[s]
                if not orow[way]:
                    orow[way] = True
                    idx = sig[s][way]
                    if shct[idx] < cmax:
                        shct[idx] += 1
                run_way[s] = way
                continue
            tag = tags[s]
            if len(dct) < W:
                way = len(dct)
                compulsory += 1
            else:
                rr = rrpv[s]
                while True:
                    for w in ways:
                        if rr[w] >= rmax:
                            way = w
                            break
                    else:
                        for w in ways:
                            rr[w] += 1
                        continue
                    break
                evictions += 1
                if not outcome[s][way]:
                    idx = sig[s][way]
                    if shct[idx] > 0:
                        shct[idx] -= 1
                del dct[tag[way]]
            dct[pc] = way
            tag[way] = pc
            tgts[s][way] = tgts_in[e]
            fillidx[s][way] = i
            word = pc >> 2
            idx = (word ^ (word >> tb)) & mask
            sig[s][way] = idx
            outcome[s][way] = False
            if e != i:
                # The tail's hits promote the way at once.
                reused[s][way] = True
                rrpv[s][way] = 0
                run_way[s] = way
            else:
                reused[s][way] = False
                rrpv[s][way] = rmax - 1 if shct[idx] > 0 else rmax
        self._finish(btb, part, hits_out, hits, evictions, 0, compulsory,
                     mismatches)


class GHRPKernel(GlobalOrderKernel):
    """GHRP: dead-block prediction from (pc, global history) signatures;
    the history register and skewed counter tables are global.

    Every access (hit, fill or bypass) shifts its pc into the 16-bit
    history as ``((h << 4) ^ (pc >> 2)) & 0xFFFF``, so the history after
    access ``i`` depends only on the last four pcs (the first three also
    fold in the policy's start history).  Every signature, and each
    signature's per-table fold indices, is therefore a numpy column
    computed before the loop (:meth:`_fold_columns`); the loop keeps only
    the counter reads and writes, the dead and stamp rows, and the victim
    scan.  A way's signature is carried as the index of the access that
    set it; the signatures themselves are written back at the end.

    A run tail detrains the signature of its run's previous access (a
    column too) and nothing else, except that the run's end re-reads
    the dead prediction: the reads before it are overwritten unseen.
    """

    @staticmethod
    def _fold_columns(policy, pcs: np.ndarray):
        """Post-update signatures of every access, and per-table fold
        indices of the post-update and pre-update signatures (the bypass
        check reads the latter), as compact columns."""
        tb = policy.table_bits
        if policy.num_tables > tb + 1:
            # The reference's fold shifts by table_bits - t.
            raise ValueError("negative shift count")
        words = pcs >> 2
        history = words.copy()
        for k in (1, 2, 3):
            history[k:] ^= words[:-k] << (4 * k)
        start = policy._history
        for k in range(min(3, len(pcs))):
            history[k] ^= start << (4 * (k + 1))
        history &= 0xFFFF
        before = np.empty_like(history)
        before[:1] = start
        before[1:] = history[:-1]
        mask = (1 << tb) - 1

        def folds(sg):
            return [_column((sg ^ (sg >> (tb - t)) ^ (t * 0x9E37)) & mask)
                    for t in range(policy.num_tables)]

        signatures = (words ^ (history << 1)) & 0x3FFFFFF
        return (int(history[-1]), signatures, folds(signatures),
                folds((words ^ (before << 1)) & 0x3FFFFFF))

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        pcs = stream.pcs_list
        if not pcs:
            return  # the reference folds nothing, so it cannot raise
        part = stream.partition()
        tgts_in = stream.targets_list
        sets = stream.sets_list
        tail, end = part.tail, part.end
        ends = part.by_position[1]
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        tables = policy._tables
        dead = policy._dead
        stamps = policy._stamps
        cmax = policy.counter_max
        dthresh = policy.dead_threshold
        bypass_on = policy.bypass_enabled
        history, signatures, post, pre = self._fold_columns(policy,
                                                            stream.pcs)
        # Each tail's detrain indices: the post-update folds of its
        # run's previous access (the head, for a run's first tail).
        repeats = part.repeats
        first_at = _first_tails(part)[1][part.lengths > 1]
        previous = np.empty_like(repeats)
        previous[1:] = repeats[:-1]
        previous[first_at] = np.array(part.heads)[part.lengths > 1]
        drain = []
        for fold in post:
            column = np.zeros(len(pcs), dtype=np.intc)
            column[repeats] = np.frombuffer(fold, np.intc)[previous]
            drain.append(_column(column))
        post_tabs = list(zip(tables, post))
        pre_tabs = list(zip(tables, pre))
        drain_tabs = list(zip(tables, drain))
        three = len(tables) == 3
        if three:
            # The default geometry, with the tail's detrain written out.
            (t0, d0), (t1, d1), (t2, d2) = drain_tabs
        # Index of the access whose signature each way carries.  Storage
        # starts empty, so every way read below was set in this replay.
        sig_at = [[-1] * W for _ in range(len(dead))]
        run_way = [0] * len(dead)
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        #: Tails on the short path; an open run's are cleared.
        short = bytearray(tail)
        open_runs = _RunTails(part)
        bypassed_at: List[int] = []
        hits = evictions = compulsory = mismatches = 0
        k = 0
        for i in range(len(pcs)):
            if short[i]:
                if three:
                    idx = d0[i]
                    v = t0[idx]
                    if v > 0:
                        t0[idx] = v - 1
                    idx = d1[i]
                    v = t1[idx]
                    if v > 0:
                        t1[idx] = v - 1
                    idx = d2[i]
                    v = t2[idx]
                    if v > 0:
                        t2[idx] = v - 1
                else:
                    for table, col in drain_tabs:
                        idx = col[i]
                        v = table[idx]
                        if v > 0:
                            table[idx] = v - 1
                if end[i]:
                    s = sets[i]
                    total = 0
                    for table, col in post_tabs:
                        total += table[col[i]]
                    dead[s][run_way[s]] = total >= dthresh
                continue
            s = sets[i]
            pc = pcs[i]
            if tail[i]:
                e = i  # an open run's tail steps on its own
            else:
                e = ends[k]
                k += 1
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                if row[way] != tgts_in[i]:
                    mismatches += 1
                row[way] = tgts_in[e]
                reused[s][way] = True
                # on_hit: detrain the previous signature, then re-tag
                # with the post-update-history signature.
                at = sig_at[s]
                j = at[way]
                for table, col in post_tabs:
                    idx = col[j]
                    v = table[idx]
                    if v > 0:
                        table[idx] = v - 1
                at[way] = e
                stamps[s][way] = e
                if e == i:
                    total = 0
                    for table, col in post_tabs:
                        total += table[col[i]]
                    dead[s][way] = total >= dthresh
                else:
                    run_way[s] = way
                continue
            tag = tags[s]
            if len(dct) < W:
                way = len(dct)
                compulsory += 1
            else:
                if bypass_on:
                    # The bypass decision sees the *pre-update* history,
                    # exactly like choose_victim before on_bypass.
                    total = 0
                    for table, col in pre_tabs:
                        total += table[col[i]]
                    if total >= dthresh:
                        bypassed_at.append(i)
                        if e != i:
                            np.frombuffer(short, np.uint8)[
                                open_runs.open(k - 1)] = 0
                        continue
                drow = dead[s]
                srow = stamps[s]
                cands = [w for w in ways if drow[w]]
                way = min(cands or ways, key=srow.__getitem__)
                evictions += 1
                if not reused[s][way]:
                    j = sig_at[s][way]
                    for table, col in post_tabs:
                        idx = col[j]
                        v = table[idx]
                        if v < cmax:
                            table[idx] = v + 1
                del dct[tag[way]]
            dct[pc] = way
            tag[way] = pc
            tgts[s][way] = tgts_in[e]
            reused[s][way] = e != i
            fillidx[s][way] = i
            sig_at[s][way] = e
            stamps[s][way] = e
            if e == i:
                total = 0
                for table, col in post_tabs:
                    total += table[col[i]]
                dead[s][way] = total >= dthresh
            else:
                run_way[s] = way
        sig = policy._signature
        for s, at in enumerate(sig_at):
            for w, j in enumerate(at):
                if j >= 0:
                    sig[s][w] = int(signatures[j])
        policy._history = history
        policy._clock = _restamp(stamps, dirs, part, policy._clock,
                                 bypassed_at)
        self._finish(btb, part, hits_out, hits, evictions, len(bypassed_at),
                     compulsory, mismatches, bypassed=open_runs.mask())


def _optgen_access(gen, pc: int) -> Optional[bool]:
    """:meth:`~repro.btb.replacement.hawkeye._OptGen.access` on ``gen``'s
    own state.  The reuse interval ``[t0, t)`` is shorter than the
    window, so its occupancy slots are one slice of ``gen._occ``, or two
    when the interval wraps the window; each is checked with ``max`` and
    incremented by one list comprehension.  Most reuses are a run's
    next access (``t - t0 == 1``), a single slot."""
    t = gen.time
    gen.time = t + 1
    window = gen.window
    occ = gen._occ
    now = t % window
    occ[now] = 0
    last_time = gen.last_time
    t0 = last_time.get(pc)
    last_time[pc] = t
    if t0 is None or t - t0 >= window:
        return None
    ways = gen.ways
    start = t0 % window
    if t - t0 == 1:
        if occ[start] >= ways:
            return False
        occ[start] += 1
        return True
    if start < now:
        if max(occ[start:now]) >= ways:
            return False
        occ[start:now] = [x + 1 for x in occ[start:now]]
        return True
    if max(occ[start:]) >= ways or (now and max(occ[:now]) >= ways):
        return False
    occ[start:] = [x + 1 for x in occ[start:]]
    occ[:now] = [x + 1 for x in occ[:now]]
    return True


class HawkeyeKernel(GlobalOrderKernel):
    """Hawkeye: per-sampled-set OPTgen, globally shared predictor
    counters trained in stream order.

    Each access's predictor index is a precomputed column, and OPTgen is
    consulted only for the sampled sets (a per-set lookup made once).
    A tail in an unsampled set only re-reads the predictor into its
    way's friendly bit and RRPV, and only the run end's read survives,
    so the pass visits heads, every access of a sampled set, and the
    run ends of the other sets."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        tail, end = part.tail, part.end
        ends = part.by_position[1]
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        counters = policy._counters
        gens = [policy._optgen.get(s) for s in range(len(policy._rrpv))]
        sampled = np.array([g is not None for g in gens], dtype=np.bool_)
        events = np.flatnonzero((np.frombuffer(tail, np.uint8) == 0)
                                | (np.frombuffer(end, np.uint8) != 0)
                                | sampled[stream.set_indices])
        rrpv = policy._rrpv
        friendly = policy._friendly
        pbits = policy.predictor_bits
        words = stream.pcs >> 2
        pidx = _column((words ^ (words >> pbits)) & ((1 << pbits) - 1))
        age_cap = _RRPV_MAX - 1
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        #: The way of each set's current run.
        run_way = [0] * len(dirs)
        hits = evictions = compulsory = mismatches = 0

        def sample(gen, pc, p):
            verdict = _optgen_access(gen, pc)
            if verdict is None:
                return
            v = counters[p]
            if verdict:
                if v < 7:
                    counters[p] = v + 1
            elif v > 0:
                counters[p] = v - 1

        k = 0
        for i in _column(events):
            s = sets[i]
            p = pidx[i]
            gen = gens[s]
            if tail[i]:
                if gen is not None:
                    sample(gen, pcs[i], p)
                    if not end[i]:
                        continue
                way = run_way[s]
                fr = counters[p] >= 4
                friendly[s][way] = fr
                rrpv[s][way] = 0 if fr else _RRPV_MAX
                continue
            e = ends[k]
            k += 1
            pc = pcs[i]
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                if row[way] != tgts_in[i]:
                    mismatches += 1
                row[way] = tgts_in[e]
                reused[s][way] = True
                if gen is not None:
                    sample(gen, pc, p)
                if e != i:
                    run_way[s] = way
                    continue
                fr = counters[p] >= 4
                friendly[s][way] = fr
                rrpv[s][way] = 0 if fr else _RRPV_MAX
                continue
            tag = tags[s]
            rr = rrpv[s]
            if len(dct) < W:
                way = len(dct)
                compulsory += 1
            else:
                way = 0
                best = -1
                for w in ways:
                    rv = rr[w]
                    if rv == _RRPV_MAX:
                        way = w
                        break
                    if rv > best:
                        best = rv
                        way = w
                evictions += 1
                if friendly[s][way] and not reused[s][way]:
                    # Storage starts empty, so the victim was filled by
                    # access fillidx in this replay.
                    idx = pidx[fillidx[s][way]]
                    v = counters[idx]
                    if v > 0:
                        counters[idx] = v - 1
                del dct[tag[way]]
            dct[pc] = way
            tag[way] = pc
            tgts[s][way] = tgts_in[e]
            reused[s][way] = e != i
            fillidx[s][way] = i
            if e != i:
                run_way[s] = way
            if gen is not None:
                sample(gen, pc, p)
            fr = counters[p] >= 4
            friendly[s][way] = fr
            if fr:
                for w in ways:
                    if w != way and rr[w] < age_cap:
                        rr[w] += 1
                rr[way] = 0
            else:
                rr[way] = _RRPV_MAX
        self._finish(btb, part, hits_out, hits, evictions, 0, compulsory,
                     mismatches)


class DuelingThermometerKernel(GlobalOrderKernel):
    """Set-dueling Thermometer: leader roles are static, but follower
    behavior flips with the global PSEL counter.

    A hit only re-stamps its way, so the pass visits run heads in stream
    order.  PSEL moves on fills and bypasses, so an open run's tails are
    merged back into that order as they come due."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        stamps = policy._stamps
        temps = policy._temps
        role = policy._role
        psel = policy._psel
        psel_max = policy.psel_max
        mid = psel_max // 2
        hints = policy._hints
        default = policy.default_category
        # Same HintMap fast path as ThermometerKernel.
        raw = getattr(hints, "categories", None)
        if isinstance(raw, dict) and default is not None:
            hget = raw.get
        else:
            hget = hints.get
        bypass_on = policy.bypass_enabled
        static_tb = policy.tiebreak == "static"
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        open_runs = _RunTails(part)
        #: Tail positions of the open runs, as a heap.
        due: List[int] = []

        def steps():
            """``(position, run end, head index)`` in stream order: the
            run heads, with each open run's tails as runs of one."""
            for k, (p, e) in enumerate(zip(*part.by_position)):
                while due and due[0] < p:
                    i = heappop(due)
                    yield i, i, k
                yield p, e, k
            while due:
                i = heappop(due)
                yield i, i, 0

        bypassed_at: List[int] = []
        covered = uncovered = 0
        hits = evictions = compulsory = mismatches = 0
        for i, e, k in steps():
            s = sets[i]
            pc = pcs[i]
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                if row[way] != tgts_in[i]:
                    mismatches += 1
                row[way] = tgts_in[e]
                reused[s][way] = True
                stamps[s][way] = e
                continue
            tag = tags[s]
            srow = stamps[s]
            trow = temps[s]
            r = role[s]
            if len(dct) < W:
                way = len(dct)
                compulsory += 1
            else:
                if r == _DUEL_THERMO or (r != _DUEL_LRU and psel <= mid):
                    t_in = hget(pc, default)
                    coldest = min(trow)
                    hottest = max(trow)
                    if t_in < coldest:
                        coldest = t_in
                    if t_in > hottest:
                        hottest = t_in
                    if coldest == hottest:
                        uncovered += 1
                    else:
                        covered += 1
                    cands = [w for w in ways if trow[w] == coldest]
                    if not cands:
                        if bypass_on:
                            bypassed_at.append(i)
                            # on_bypass counts as a leader miss.
                            if r == _DUEL_THERMO:
                                if psel < psel_max:
                                    psel += 1
                            elif r == _DUEL_LRU and psel > 0:
                                psel -= 1
                            if e != i:
                                for t in open_runs.open(k).tolist():
                                    heappush(due, t)
                            continue
                        cands = ways
                    way = (cands[0] if static_tb
                           else min(cands, key=srow.__getitem__))
                else:
                    way = min(ways, key=srow.__getitem__)
                evictions += 1
                del dct[tag[way]]
            dct[pc] = way
            tag[way] = pc
            tgts[s][way] = tgts_in[e]
            reused[s][way] = e != i
            fillidx[s][way] = i
            srow[way] = e
            trow[way] = hget(pc, default)
            if r == _DUEL_THERMO:
                if psel < psel_max:
                    psel += 1
            elif r == _DUEL_LRU and psel > 0:
                psel -= 1
        policy._clock = _restamp(stamps, dirs, part, policy._clock,
                                 bypassed_at)
        policy._psel = psel
        policy.covered_decisions += covered
        policy.uncovered_decisions += uncovered
        self._finish(btb, part, hits_out, hits, evictions, len(bypassed_at),
                     compulsory, mismatches, bypassed=open_runs.mask())


class OnlineThermometerKernel(GlobalOrderKernel):
    """Online Thermometer: globally shared (taken, hit) counter tables
    updated on every event.  A run tail only counts a hit in its pc's
    slot (a precomputed column)."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        tail = part.tail
        ends = part.by_position[1]
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        taken = policy._taken
        hitc = policy._hits
        stamps = policy._stamps
        tb = policy.table_bits
        mask = (1 << tb) - 1
        words = stream.pcs >> 2
        slots = _column((words ^ (words >> tb)) & mask)
        cmax = policy.counter_max
        warm = policy.warm_floor
        thresholds = policy.thresholds
        nth = len(thresholds)
        middle = nth // 2 + (nth % 2)
        bypass_on = policy.bypass_enabled
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        #: Tails on the short path; an open run's are cleared.
        short = bytearray(tail)
        open_runs = _RunTails(part)
        bypassed_at: List[int] = []
        hits = evictions = compulsory = mismatches = 0

        k = 0
        for i in range(len(pcs)):
            slot = slots[i]
            if short[i]:
                if taken[slot] >= cmax:
                    taken[slot] >>= 1
                    hitc[slot] >>= 1
                taken[slot] += 1
                hitc[slot] += 1
                continue
            s = sets[i]
            pc = pcs[i]
            if tail[i]:
                e = i  # an open run's tail steps on its own
            else:
                e = ends[k]
                k += 1
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                if row[way] != tgts_in[i]:
                    mismatches += 1
                row[way] = tgts_in[e]
                reused[s][way] = True
                if taken[slot] >= cmax:
                    taken[slot] >>= 1
                    hitc[slot] >>= 1
                taken[slot] += 1
                hitc[slot] += 1
                stamps[s][way] = e
                continue
            tag = tags[s]
            srow = stamps[s]
            if len(dct) < W:
                way = len(dct)
                compulsory += 1
            else:
                # choose_victim reads the counters *before* this miss is
                # recorded, exactly like the reference ordering.  One
                # scan finds the coldest resident class and its least
                # recently used way; the ascending thresholds make
                # bisect_left the first bound with ratio <= bound.
                coldest = nth + 1
                for w in ways:
                    word = tag[w] >> 2
                    wslot = (word ^ (word >> tb)) & mask
                    tk = taken[wslot]
                    t = (middle if tk < warm else
                         bisect_left(thresholds, 100.0 * hitc[wslot] / tk))
                    if t < coldest or (t == coldest and srow[w] < oldest):
                        coldest = t
                        oldest = srow[w]
                        way = w
                tk = taken[slot]
                t = (middle if tk < warm else
                     bisect_left(thresholds, 100.0 * hitc[slot] / tk))
                if t < coldest:
                    # The incoming pc is colder than every resident.
                    if bypass_on:
                        bypassed_at.append(i)
                        if taken[slot] >= cmax:
                            taken[slot] >>= 1
                            hitc[slot] >>= 1
                        taken[slot] += 1
                        if e != i:
                            np.frombuffer(short, np.uint8)[
                                open_runs.open(k - 1)] = 0
                        continue
                    way = min(ways, key=srow.__getitem__)
                evictions += 1
                del dct[tag[way]]
            dct[pc] = way
            tag[way] = pc
            tgts[s][way] = tgts_in[e]
            reused[s][way] = e != i
            fillidx[s][way] = i
            if taken[slot] >= cmax:
                taken[slot] >>= 1
                hitc[slot] >>= 1
            taken[slot] += 1
            srow[way] = e
        policy._clock = _restamp(stamps, dirs, part, policy._clock,
                                 bypassed_at)
        self._finish(btb, part, hits_out, hits, evictions, len(bypassed_at),
                     compulsory, mismatches, bypassed=open_runs.mask())


class RandomKernel(GlobalOrderKernel):
    """Random: the victim is ``randrange(ways)`` from the policy's own
    RNG, drawn once per full-set miss in stream order — the reference
    draw sequence, so the generator ends in the reference state."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        W = btb.config.ways
        randrange = btb.policy._rng.randrange
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        hits = evictions = compulsory = mismatches = 0
        for p, e in zip(*part.by_position):
            s = sets[p]
            pc = pcs[p]
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[p] = 1
                row = tgts[s]
                if row[way] != tgts_in[p]:
                    mismatches += 1
                row[way] = tgts_in[e]
                reused[s][way] = True
                continue
            tag = tags[s]
            if len(dct) < W:
                way = len(dct)
                compulsory += 1
            else:
                way = randrange(W)
                evictions += 1
                del dct[tag[way]]
            dct[pc] = way
            tag[way] = pc
            tgts[s][way] = tgts_in[e]
            reused[s][way] = e != p
            fillidx[s][way] = p
        self._finish(btb, part, hits_out, hits, evictions, 0, compulsory,
                     mismatches)


class BRRIPKernel(GlobalOrderKernel):
    """Bimodal RRIP: SRRIP's hit promotion and whole-set aging, with the
    insertion RRPV drawn from the policy's own RNG once per fill
    (compulsory fills included), in stream order."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        part = stream.partition()
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        rrpv = policy._rrpv
        rmax = policy.rrpv_max
        rlong = policy.rrpv_insert
        p_long = policy.long_probability
        draw = policy._rng.random
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        hits = evictions = compulsory = mismatches = 0
        for p, e in zip(*part.by_position):
            s = sets[p]
            pc = pcs[p]
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[p] = 1
                row = tgts[s]
                if row[way] != tgts_in[p]:
                    mismatches += 1
                row[way] = tgts_in[e]
                reused[s][way] = True
                rrpv[s][way] = 0
                continue
            tag = tags[s]
            rr = rrpv[s]
            if len(dct) < W:
                way = len(dct)
                compulsory += 1
            else:
                while True:
                    for w in ways:
                        if rr[w] >= rmax:
                            way = w
                            break
                    else:
                        for w in ways:
                            rr[w] += 1
                        continue
                    break
                evictions += 1
                del dct[tag[way]]
            dct[pc] = way
            tag[way] = pc
            tgts[s][way] = tgts_in[e]
            reused[s][way] = e != p
            fillidx[s][way] = p
            # The draw happens on every fill, even when the tail's hit
            # promotes the way at once.
            rr[way] = rlong if draw() < p_long else rmax
            if e != p:
                rr[way] = 0
        self._finish(btb, part, hits_out, hits, evictions, 0, compulsory,
                     mismatches)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

#: Exact policy type → kernel.  Exact-type keyed on purpose: a subclass
#: may change semantics (BRRIP under SRRIP, DuelingThermometer under
#: Thermometer), so it takes the reference loop unless it has its own
#: entry here.
KERNELS: Dict[type, Type[ReplayKernel]] = {
    LRUPolicy: LRUKernel,
    MRUPolicy: MRUKernel,
    FIFOPolicy: FIFOKernel,
    SRRIPPolicy: SRRIPKernel,
    BeladyOptimalPolicy: OPTKernel,
    ThermometerPolicy: ThermometerKernel,
    TreePLRUPolicy: PLRUKernel,
    DIPPolicy: DIPKernel,
    SHiPPolicy: SHIPKernel,
    GHRPPolicy: GHRPKernel,
    HawkeyePolicy: HawkeyeKernel,
    DuelingThermometerPolicy: DuelingThermometerKernel,
    OnlineThermometerPolicy: OnlineThermometerKernel,
    RandomPolicy: RandomKernel,
    BRRIPPolicy: BRRIPKernel,
}

#: The policy hooks a kernel replaces.  If any of these was patched onto
#: the *instance* (monkeypatched spies, ad-hoc experiment tweaks), the
#: kernel would silently ignore the patch — dispatch must fall back.
_POLICY_HOOKS = ("choose_victim", "on_hit", "on_fill", "on_evict",
                 "on_bypass", "reset")


def _instance_patched(policy) -> bool:
    d = policy.__dict__
    return any(hook in d for hook in _POLICY_HOOKS)


def kernel_policy_names() -> List[str]:
    """Registry names of the policies with a fast-path kernel."""
    return sorted(p.name for p in KERNELS)


def count_fallback(reason: str) -> None:
    """Count one replay sent to the reference loop, by ``reason``."""
    get_registry().count("btb/fallback/" + reason)


def _pristine(btb) -> bool:
    # Storage first: prefetch fills leave stats untouched but populate
    # it, and a released BTB raises here, before any fallback counts.
    if any(btb._dir):
        return False
    stats = btb.stats
    return not (stats.accesses or stats.misses or stats.bypasses
                or stats.compulsory_fills)


def select_kernel(btb, stream: AccessStream) -> Optional[ReplayKernel]:
    """The kernel that can replay ``stream`` into ``btb``, or None (after
    counting the reason) if this replay must take the reference loop."""
    if type(btb) is not BTB or btb.config != stream.config:
        count_fallback("foreign-model")
        return None
    kernel_cls = KERNELS.get(type(btb.policy))
    if btb._observers:
        reason = "observers-attached"
    elif not fast_path_enabled():
        reason = "disabled"
    elif kernel_cls is None:
        reason = "no-kernel"
    elif _instance_patched(btb.policy):
        reason = "instance-patched"
    elif not (_pristine(btb) and kernel_cls.matches(btb.policy, stream)):
        reason = "not-pristine"
    else:
        return kernel_cls()
    count_fallback(reason)
    return None


def try_fast_replay(stream: AccessStream, btb,
                    hits_out: Optional[bytearray] = None):
    """Replay ``stream`` through a specialized kernel if one applies.

    Returns ``btb.stats`` on success, or None when the replay must fall
    back to the reference loop.  ``hits_out``, when given, must be a
    zeroed ``bytearray`` of ``len(stream)``; every access that hits
    writes a 1 at its stream position (misses and bypasses stay 0) —
    the per-access outcome column the frontend timing kernel consumes.
    """
    kernel = select_kernel(btb, stream)
    if kernel is None:
        return None
    kernel.replay(btb, stream, hits_out=hits_out)
    get_registry().count("btb/fast_path")
    return btb.stats


def try_fast_opt_profile(stream: AccessStream, btb):
    """OPT replay with per-access outcome attribution for the profiler.

    Returns a ``bytearray`` of outcome codes (one per access, indexed by
    stream position), or None when the fast path does not apply.
    """
    kernel = select_kernel(btb, stream)
    if kernel is None:
        return None
    if not isinstance(kernel, OPTKernel):
        # Only the OPT kernel records per-access outcomes.
        count_fallback("no-outcome-kernel")
        return None
    outcomes = bytearray(len(stream))
    kernel.replay(btb, stream, outcomes=outcomes)
    get_registry().count("btb/fast_path")
    return outcomes
