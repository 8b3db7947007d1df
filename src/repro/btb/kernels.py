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
access after a run's head finds that pc resident, so it is a hit that
touches only its own set's state.  The set-partitioned kernels and the
DIP, random and BRRIP kernels iterate run heads only: a run's last
access sets the way's target and recency, ``reused`` becomes True, and
the tail's hits, target changes and ``hits_out`` marks are credited in
bulk (:meth:`ReplayKernel._finish`).  Two edge rules keep that exact: a
Thermometer head that is bypassed bypasses its whole run (the
temperature and the set are unchanged), and OPT never bypasses a head
with a tail (its next use is the very next access to its set).  SHiP,
GHRP, Hawkeye and the dueling/online Thermometer train global state on
every hit, so they keep per-access loops.

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
from typing import Dict, List, Optional, Type

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
            touch = [-1] * W
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
            srow = stamps[s]
            for w in ways:
                if touch[w] >= 0:
                    # Every access touches exactly once, so the clock at
                    # stream position p is p + 1.
                    srow[w] = touch[w] + 1
        btb.policy._clock = len(part)
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
        # not advanced yet.
        return (policy._last_index == 0
                and stream._next_use is not None
                and policy._next_use is stream._next_use)

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
        covered = uncovered = 0
        hits = evictions = compulsory = mismatches = 0
        #: Runs whose head was bypassed.
        bypassed_runs: List[int] = []
        #: (set, filled ways) per set, and the stream positions of those
        #: ways' last touches in set order.
        filled: List[tuple] = []
        last_touches: List[int] = []
        for s, a, b, dct, tag, tgt, reused, fillidx in _set_rows(btb, part):
            wtemps = temps_grid[s]
            touch = [-1] * W
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
            filled.append((s, nfilled))
            last_touches += touch[:nfilled]
        n = len(part)
        touched = np.array(last_touches, dtype=np.int64)
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
        # Bypasses are the only accesses that do not tick the policy
        # clock: the clock at position p is p + 1 minus the bypasses at
        # or before p.
        clocks = touched + 1 - np.searchsorted(bypass_positions, touched,
                                               side="right")
        stamps = policy._stamps
        clocks = clocks.tolist()
        k = 0
        for s, m in filled:
            stamps[s][:m] = clocks[k:k + m]
            k += m
        bypasses = len(bypass_positions)
        policy._clock = n - bypasses
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

    DIP, random and BRRIP touch only their own set's state on a hit, so
    their passes visit run heads in stream order
    (:attr:`~repro.trace.stream.SetPartition.by_position`) and apply
    each run's tail at its head: the tail's accesses all precede the
    set's next head.
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
    """SHiP: RRIP aging per set, signature counters shared globally."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
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
        hits = evictions = compulsory = mismatches = 0
        for i, s in enumerate(sets):
            pc = pcs[i]
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                t = tgts_in[i]
                if row[way] != t:
                    mismatches += 1
                    row[way] = t
                reused[s][way] = True
                rrpv[s][way] = 0
                orow = outcome[s]
                if not orow[way]:
                    orow[way] = True
                    idx = sig[s][way]
                    if shct[idx] < cmax:
                        shct[idx] += 1
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
            tgts[s][way] = tgts_in[i]
            reused[s][way] = False
            fillidx[s][way] = i
            word = pc >> 2
            idx = (word ^ (word >> tb)) & mask
            sig[s][way] = idx
            outcome[s][way] = False
            rrpv[s][way] = rmax - 1 if shct[idx] > 0 else rmax
        self._write_stats(btb, len(pcs), hits, evictions, 0, compulsory,
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
    """

    @staticmethod
    def _fold_columns(policy, pcs: np.ndarray):
        """Post-update signatures of every access, and per-table fold
        indices of the post-update and pre-update signatures (the bypass
        check reads the latter), as compact ``array('q')`` columns."""
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
            return [array("q", ((sg ^ (sg >> (tb - t)) ^ (t * 0x9E37))
                                & mask).tobytes())
                    for t in range(policy.num_tables)]

        signatures = (words ^ (history << 1)) & 0x3FFFFFF
        return (int(history[-1]), signatures, folds(signatures),
                folds((words ^ (before << 1)) & 0x3FFFFFF))

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        pcs = stream.pcs_list
        if not pcs:
            return  # the reference folds nothing, so it cannot raise
        tgts_in = stream.targets_list
        sets = stream.sets_list
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        tables = policy._tables
        dead = policy._dead
        stamps = policy._stamps
        clock = policy._clock
        cmax = policy.counter_max
        dthresh = policy.dead_threshold
        bypass_on = policy.bypass_enabled
        history, signatures, post, pre = self._fold_columns(policy,
                                                            stream.pcs)
        post_tabs = list(zip(tables, post))
        pre_tabs = list(zip(tables, pre))
        # Index of the access whose signature each way carries.  Storage
        # starts empty, so every way read below was set in this replay.
        sig_at = [[-1] * W for _ in range(len(dead))]
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        hits = evictions = bypasses = compulsory = mismatches = 0
        for i, s in enumerate(sets):
            pc = pcs[i]
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                t = tgts_in[i]
                if row[way] != t:
                    mismatches += 1
                    row[way] = t
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
                at[way] = i
                total = 0
                for table, col in post_tabs:
                    total += table[col[i]]
                dead[s][way] = total >= dthresh
                clock += 1
                stamps[s][way] = clock
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
                        bypasses += 1
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
            tgts[s][way] = tgts_in[i]
            reused[s][way] = False
            fillidx[s][way] = i
            sig_at[s][way] = i
            total = 0
            for table, col in post_tabs:
                total += table[col[i]]
            dead[s][way] = total >= dthresh
            clock += 1
            stamps[s][way] = clock
        sig = policy._signature
        for s, at in enumerate(sig_at):
            for w, j in enumerate(at):
                if j >= 0:
                    sig[s][w] = int(signatures[j])
        policy._history = history
        policy._clock = clock
        self._write_stats(btb, len(pcs), hits, evictions, bypasses,
                          compulsory, mismatches)


class HawkeyeKernel(GlobalOrderKernel):
    """Hawkeye: per-sampled-set OPTgen, globally shared predictor
    counters trained in stream order.

    Each access's predictor index is a precomputed column, and OPTgen is
    consulted only for the sampled sets (a per-set lookup made once)."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        counters = policy._counters
        gens = [policy._optgen.get(s) for s in range(len(policy._rrpv))]
        rrpv = policy._rrpv
        friendly = policy._friendly
        pbits = policy.predictor_bits
        words = stream.pcs >> 2
        pidx = array("q", ((words ^ (words >> pbits))
                           & ((1 << pbits) - 1)).tobytes())
        age_cap = _RRPV_MAX - 1
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        hits = evictions = compulsory = mismatches = 0

        def sample(gen, pc, p):
            verdict = gen.access(pc)
            if verdict is None:
                return
            v = counters[p]
            if verdict:
                if v < 7:
                    counters[p] = v + 1
            elif v > 0:
                counters[p] = v - 1

        for i, s in enumerate(sets):
            pc = pcs[i]
            dct = dirs[s]
            way = dct.get(pc)
            p = pidx[i]
            gen = gens[s]
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                t = tgts_in[i]
                if row[way] != t:
                    mismatches += 1
                    row[way] = t
                reused[s][way] = True
                if gen is not None:
                    sample(gen, pc, p)
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
            tgts[s][way] = tgts_in[i]
            reused[s][way] = False
            fillidx[s][way] = i
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
        self._write_stats(btb, len(pcs), hits, evictions, 0, compulsory,
                          mismatches)


class DuelingThermometerKernel(GlobalOrderKernel):
    """Set-dueling Thermometer: leader roles are static, but follower
    behavior flips with the global PSEL counter."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        stamps = policy._stamps
        temps = policy._temps
        role = policy._role
        clock = policy._clock
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
        covered = uncovered = 0
        hits = evictions = bypasses = compulsory = mismatches = 0
        for i, s in enumerate(sets):
            pc = pcs[i]
            dct = dirs[s]
            way = dct.get(pc)
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                t = tgts_in[i]
                if row[way] != t:
                    mismatches += 1
                    row[way] = t
                reused[s][way] = True
                clock += 1
                stamps[s][way] = clock
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
                            bypasses += 1
                            # on_bypass counts as a leader miss.
                            if r == _DUEL_THERMO:
                                if psel < psel_max:
                                    psel += 1
                            elif r == _DUEL_LRU and psel > 0:
                                psel -= 1
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
            tgts[s][way] = tgts_in[i]
            reused[s][way] = False
            fillidx[s][way] = i
            clock += 1
            srow[way] = clock
            trow[way] = hget(pc, default)
            if r == _DUEL_THERMO:
                if psel < psel_max:
                    psel += 1
            elif r == _DUEL_LRU and psel > 0:
                psel -= 1
        policy._clock = clock
        policy._psel = psel
        policy.covered_decisions += covered
        policy.uncovered_decisions += uncovered
        self._write_stats(btb, len(pcs), hits, evictions, bypasses,
                          compulsory, mismatches)


class OnlineThermometerKernel(GlobalOrderKernel):
    """Online Thermometer: globally shared (taken, hit) counter tables
    updated on every event."""

    def replay(self, btb, stream: AccessStream,
               hits_out: Optional[bytearray] = None) -> None:
        pcs = stream.pcs_list
        tgts_in = stream.targets_list
        sets = stream.sets_list
        W = btb.config.ways
        ways = range(W)
        policy = btb.policy
        taken = policy._taken
        hitc = policy._hits
        stamps = policy._stamps
        clock = policy._clock
        tb = policy.table_bits
        mask = (1 << tb) - 1
        cmax = policy.counter_max
        warm = policy.warm_floor
        thresholds = policy.thresholds
        nth = len(thresholds)
        middle = nth // 2 + (nth % 2)
        bypass_on = policy.bypass_enabled
        tags, tgts, reused, fillidx, dirs = _rows(btb)
        hits = evictions = bypasses = compulsory = mismatches = 0

        def temp(x):
            word = x >> 2
            slot = (word ^ (word >> tb)) & mask
            tk = taken[slot]
            if tk < warm:
                return middle
            ratio = 100.0 * hitc[slot] / tk
            for category, bound in enumerate(thresholds):
                if ratio <= bound:
                    return category
            return nth

        for i, s in enumerate(sets):
            pc = pcs[i]
            dct = dirs[s]
            way = dct.get(pc)
            word = pc >> 2
            slot = (word ^ (word >> tb)) & mask
            if way is not None:
                hits += 1
                if hits_out is not None:
                    hits_out[i] = 1
                row = tgts[s]
                t = tgts_in[i]
                if row[way] != t:
                    mismatches += 1
                    row[way] = t
                reused[s][way] = True
                if taken[slot] >= cmax:
                    taken[slot] >>= 1
                    hitc[slot] >>= 1
                taken[slot] += 1
                hitc[slot] += 1
                clock += 1
                stamps[s][way] = clock
                continue
            tag = tags[s]
            srow = stamps[s]
            if len(dct) < W:
                way = len(dct)
                compulsory += 1
            else:
                # choose_victim reads the counters *before* this miss is
                # recorded, exactly like the reference ordering.
                temps_l = [temp(tag[w]) for w in ways]
                coldest = temp(pc)
                m = min(temps_l)
                if m < coldest:
                    coldest = m
                cands = [w for w in ways if temps_l[w] == coldest]
                if not cands:
                    if bypass_on:
                        bypasses += 1
                        if taken[slot] >= cmax:
                            taken[slot] >>= 1
                            hitc[slot] >>= 1
                        taken[slot] += 1
                        continue
                    cands = ways
                way = min(cands, key=srow.__getitem__)
                evictions += 1
                del dct[tag[way]]
            dct[pc] = way
            tag[way] = pc
            tgts[s][way] = tgts_in[i]
            reused[s][way] = False
            fillidx[s][way] = i
            if taken[slot] >= cmax:
                taken[slot] >>= 1
                hitc[slot] >>= 1
            taken[slot] += 1
            clock += 1
            srow[way] = clock
        policy._clock = clock
        self._write_stats(btb, len(pcs), hits, evictions, bypasses,
                          compulsory, mismatches)


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
