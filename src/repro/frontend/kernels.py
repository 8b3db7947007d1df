"""Stage-decoupled fast path for :meth:`FrontendSimulator.simulate`.

The reference timing model walks the trace once, interleaving every
frontend structure per record (``_replay_region``).  But each structure's
*outcome stream* depends only on its own inputs:

* the direction predictor sees ``(pc, taken)`` of conditional branches;
* the RAS sees calls (push) and taken returns (pop) in record order;
* the BTB sees exactly the taken non-return accesses — the shared
  :class:`~repro.trace.stream.AccessStream` the replay kernels already
  consume;
* the IBTB sees taken indirect branches *that hit in the BTB* — the one
  cross-structure dependency, satisfied by the per-access hit vector the
  BTB pass produces;
* the I-cache sees ``(next_fetch, ilen)`` of every record;
* FDIP folds the other passes' outputs (demand, fills, redirect flags)
  into its run-ahead credit.

So the monolithic loop decouples into independent columnar passes over
numpy-precomputed columns, and a final reduction recombines the
per-record per-stage charge columns in the exact record/stage order of
the monolith — float-addition order included — so every
:class:`~repro.frontend.simulator.SimResult` field, stall breakdown,
event count, BTB stat, and component end-state is bit-identical to the
reference loop.

Dispatch mirrors :mod:`repro.btb.kernels`: the runtime config's
``fast_sim`` switch (``REPRO_FAST_SIM``), exact-type checks on every
component, and instance-``__dict__`` probes for monkeypatched hooks.
Anything the passes cannot reproduce exactly — a prefetcher (it runs
inside the BTB access loop), an observer-carrying or subclassed BTB, a
subclassed simulator or component, an unknown predictor type — returns
``None`` from :func:`try_fast_simulate` and the caller falls back to the
reference loop (counting one ``sim/fallback/<reason>``; a fast run
counts one ``sim/fast_path``).

TAGE-lite runs on numpy-built per-level index/tag columns.  The
direction and I-cache passes never see the BTB, so every simulation
of one trace on identically-started components computes the same
outcome column and end state.  A per-trace memo (:func:`clear_pass_memo`)
keeps those results (the mispredicted positions; the fill positions and
latencies) and compact end-state snapshots that a hit writes back by
slice copy, so a figure that simulates many policies runs each pass
once per trace.  Its key names each component's start state by a token
from a small pool of exact start-state copies (:class:`_StartStates`),
a C-speed list compare instead of a pickle per call.

Only BTB-dependent work runs per call: the BTB, IBTB and FDIP passes
and the reduction.  The FDIP pass is segment-parallel on numpy columns
(:func:`_fdip_pass`): a redirect drains the credit, so redirects cut
the trace into independent segments that step in lockstep, each with
the reference engine's sequential arithmetic, and a segment that
reaches the cap stays there until its redirect.
"""

from __future__ import annotations

import pickle
import re
import threading
from collections import OrderedDict
from itertools import chain, count
from typing import Optional, Tuple

import numpy as np

from repro import runtime
from repro.btb import kernels as btb_kernels
from repro.btb.btb import BTB, IndirectBTB
from repro.frontend.branch_predictor import (AlwaysTakenPredictor,
                                             BimodalPredictor,
                                             GSharePredictor,
                                             PerceptronPredictor,
                                             PerfectPredictor,
                                             TageLitePredictor)
from repro.frontend.fdip import FDIPEngine
from repro.frontend.icache import CacheModel, InstructionHierarchy
from repro.frontend.ras import ReturnAddressStack
from repro.telemetry.metrics import get_registry
from repro.telemetry.tracing import span
from repro.trace.record import INSTRUCTION_BYTES, BranchKind, BranchTrace
from repro.trace.stream import AccessStream, TraceMemo, access_stream_for

__all__ = ["clear_pass_memo", "fast_sim_enabled", "fast_sim_supported",
           "try_fast_simulate"]

_RETURN = int(BranchKind.RETURN)
_COND = int(BranchKind.COND_DIRECT)
_CALL_DIRECT = int(BranchKind.CALL_DIRECT)
_CALL_INDIRECT = int(BranchKind.CALL_INDIRECT)
_UNCOND_INDIRECT = int(BranchKind.UNCOND_INDIRECT)


def fast_sim_enabled() -> bool:
    """Whether simulate() dispatch may take the fast path at all
    (:attr:`~repro.runtime.RuntimeConfig.fast_sim`)."""
    return runtime.current().fast_sim


# ----------------------------------------------------------------------
# Ordered reduction
# ----------------------------------------------------------------------
# The monolith accumulates ``cycles`` (and each stall field) with one
# ``+=`` per record, so the reported floats depend on left-to-right
# addition order.  numpy's cumsum is a sequential scan on every build we
# target, which makes the reduction vectorizable — but that is an
# implementation detail of numpy, not a documented guarantee, so it is
# verified once at import against a Python loop and the loop is kept as
# the fallback.

def _python_sum(values: np.ndarray) -> float:
    acc = 0.0
    for v in values.tolist():
        acc += v
    return acc


def _cumsum_is_sequential() -> bool:
    rng = np.random.default_rng(0xB7B)
    probe = rng.uniform(0.0, 150.0, 4099)
    probe[rng.integers(0, probe.size, probe.size // 3)] = 0.0
    return float(np.cumsum(probe)[-1]) == _python_sum(probe)


_CUMSUM_SEQUENTIAL = _cumsum_is_sequential()


def _ordered_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to a ``+=`` loop."""
    if values.size == 0:
        return 0.0
    if _CUMSUM_SEQUENTIAL:
        return float(np.cumsum(values)[-1])
    return _python_sum(values)


# A ``+=`` accumulator that starts at +0.0 is never -0.0, and x + 0.0 == x
# for every such x, so dropping zero entries before the scan leaves the
# sum bit-identical; the sparse stall columns shrink to a few percent.

def _nonzero_sum(values: np.ndarray) -> float:
    """:func:`_ordered_sum` of ``values`` with its zeros dropped."""
    return _ordered_sum(values[values != 0.0])


def _penalty_sum(charged: np.ndarray, penalty: float) -> float:
    """:func:`_ordered_sum` of ``np.where(charged, penalty, 0.0)``: the
    nonzero entries are ``count_nonzero(charged)`` copies of ``penalty``."""
    return _ordered_sum(np.full(np.count_nonzero(charged), float(penalty)))


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

#: Predictor types with a specialized or generic outcome pass.  The
#: generic pass replays ``predict_and_train(pc, taken)`` call-for-call,
#: but an *unknown* subclass could reach into shared simulator state, so
#: dispatch stays closed-world like the replay kernels' KERNELS table.
_PREDICTOR_TYPES = (AlwaysTakenPredictor, PerfectPredictor,
                    BimodalPredictor, GSharePredictor,
                    PerceptronPredictor, TageLitePredictor)

#: Simulator / component methods the passes replace.  A hook patched
#: onto the *instance* would be silently ignored — dispatch must refuse.
_SIM_HOOKS = ("simulate", "_replay_region", "_stage_fetch",
              "_stage_direction", "_stage_target", "_record_telemetry")
_FDIP_HOOKS = ("advance", "absorb", "redirect")
_RAS_HOOKS = ("push", "pop")
_IBTB_HOOKS = ("predict_and_update", "_index")
_ICACHE_HOOKS = ("fetch_block_latency", "fetch_line_latency")
_CACHE_HOOKS = ("access_line",)
_PREDICTOR_HOOKS = ("predict", "train", "predict_and_train")


def _patched(obj, names) -> bool:
    d = obj.__dict__
    return any(name in d for name in names)


def fast_sim_supported(sim) -> Optional[str]:
    """None when the fast path can reproduce ``sim`` exactly, else a
    human-readable reason for falling back to the reference loop."""
    from repro.frontend.simulator import FrontendSimulator
    if not fast_sim_enabled():
        return "disabled (REPRO_FAST_SIM)"
    if type(sim) is not FrontendSimulator:
        return "subclassed FrontendSimulator"
    if _patched(sim, _SIM_HOOKS):
        return "monkeypatched simulator hook"
    if sim.prefetcher is not None:
        return "prefetcher attached (runs inside the BTB access loop)"
    if type(sim.fdip) is not FDIPEngine or _patched(sim.fdip, _FDIP_HOOKS):
        return "non-stock FDIP engine"
    if type(sim.ras) is not ReturnAddressStack \
            or _patched(sim.ras, _RAS_HOOKS):
        return "non-stock RAS"
    if type(sim.ibtb) is not IndirectBTB or _patched(sim.ibtb, _IBTB_HOOKS):
        return "non-stock IBTB"
    icache = sim.icache
    if type(icache) is not InstructionHierarchy \
            or _patched(icache, _ICACHE_HOOKS):
        return "non-stock instruction hierarchy"
    for level in (icache.l1i, icache.l2, icache.llc):
        if type(level) is not CacheModel or _patched(level, _CACHE_HOOKS):
            return "non-stock cache level"
    predictor = sim.predictor
    if type(predictor) not in _PREDICTOR_TYPES:
        return "unknown direction predictor type"
    if _patched(predictor, _PREDICTOR_HOOKS):
        return "monkeypatched direction predictor"
    if not sim.perfect_btb:
        btb = sim.btb
        if btb is None:
            return "no BTB and not perfect_btb"
        if type(btb) is not BTB:
            return "subclassed BTB (e.g. partial-tag false-hit model)"
        if btb._observers:
            return "BTB observers attached"
        if hasattr(btb, "last_hit_was_false"):
            return "instance-level false-hit attribute"
    return None


def _slug(reason: str) -> str:
    """A fallback reason as a metric-name segment: its words before any
    parenthetical, lowercased and joined by hyphens."""
    return "-".join(re.findall(r"[a-z0-9]+", reason.split("(")[0].lower()))


# ----------------------------------------------------------------------
# Component passes
# ----------------------------------------------------------------------

def _direction_pass(predictor, pcs, kinds, taken,
                    dir_wrong: np.ndarray) -> None:
    """Mark mispredicted conditionals in ``dir_wrong`` (full-length
    bool column) and leave the predictor in its exact end state."""
    cond_pos = np.flatnonzero(kinds == _COND)
    if cond_pos.size == 0:
        return
    ptype = type(predictor)
    if ptype is PerfectPredictor:
        return
    cond_taken = taken[cond_pos]
    if ptype is AlwaysTakenPredictor:
        dir_wrong[cond_pos] = ~cond_taken
        return
    if (ptype is TageLitePredictor
            and type(predictor._base) is BimodalPredictor
            and not _patched(predictor._base, _PREDICTOR_HOOKS)
            and all(max(t.history_bits, t.table_bits, t.tag_bits) <= 62
                    for t in predictor._tables)):
        _tage_pass(predictor, cond_pos, pcs[cond_pos], cond_taken,
                   dir_wrong)
        return
    # Generic pass: identical call sequence, so any stock predictor's
    # internal state evolves exactly as under the monolith.  It also
    # covers TAGE geometries too wide for int64 columns.
    pt = predictor.predict_and_train
    for pos, pc, tk in zip(cond_pos.tolist(), pcs[cond_pos].tolist(),
                           cond_taken.tolist()):
        if not pt(pc, tk):
            dir_wrong[pos] = True


def _tage_pass(p: TageLitePredictor, cond_pos: np.ndarray,
               cond_pcs: np.ndarray, cond_taken: np.ndarray,
               dir_wrong: np.ndarray) -> None:
    """TAGE-lite predict+train over per-level index/tag columns, built
    with numpy from the start history and the outcomes (every field fits
    int64: dispatch checks <= 62 bits)."""
    m = cond_pcs.size
    words = cond_pcs >> 2
    width = max((t.history_bits for t in p._tables), default=0)
    # ext = the start history's low ``width`` bits (oldest first), then
    # the outcomes; conditional j's history window is ext[j:j + width].
    ext = np.empty(width + m, dtype=np.int64)
    start = p._history
    ext[:width] = [(start >> b) & 1 for b in range(width - 1, -1, -1)]
    ext[width:] = cond_taken
    bc = p._base._counters
    cond_tk = cond_taken.tolist()
    last_prov: Optional[int] = None
    slot = p._provider_slot
    wrong = []
    # Blocks of 4096 conditionals bound the column lists' memory.
    for lo in range(0, m, 4096):
        hist = np.zeros(min(m - lo, 4096), dtype=np.int64)
        for b in range(width, 0, -1):
            hist |= ext[lo + b - 1:lo + b - 1 + hist.size] << (width - b)
        w = words[lo:lo + hist.size]
        levels = []
        for t in p._tables:
            f = hist & ((1 << t.history_bits) - 1)
            idx = (w ^ f ^ (f >> 3)) & ((1 << t.table_bits) - 1)
            tag = (w ^ (f << 1)) & ((1 << t.tag_bits) - 1)
            levels.append((t.tags, t.counters, t.useful, idx.tolist(),
                           tag.tolist()))
        probe_order = list(enumerate(levels))[::-1]
        base_idx = (w & p._base._mask).tolist()
        for j, tk in enumerate(cond_tk[lo:lo + hist.size]):
            for prov, (tags_l, ctr_l, use_l, idx_c, tag_c) in probe_order:
                idx = idx_c[j]
                if tags_l[idx] == tag_c[j]:
                    v = ctr_l[idx]
                    pred = v >= 4
                    if tk:
                        if v < 7:
                            ctr_l[idx] = v + 1
                    elif v > 0:
                        ctr_l[idx] = v - 1
                    if pred == tk and use_l[idx] < 3:
                        use_l[idx] += 1
                    last_prov = prov
                    slot = idx
                    break
            else:
                prov = -1
                bidx = base_idx[j]
                v = bc[bidx]
                pred = v >= 2
                # Base training (2-bit saturating counter).
                if tk:
                    if v < 3:
                        bc[bidx] = v + 1
                elif v > 0:
                    bc[bidx] = v - 1
                last_prov = None
            if pred != tk:
                wrong.append(lo + j)
                # Usefulness-guarded allocation above the provider, with
                # the pre-update history (exactly _allocate's probe).
                for tags_l, ctr_l, use_l, idx_c, tag_c in levels[prov + 1:]:
                    idx = idx_c[j]
                    if use_l[idx] == 0:
                        tags_l[idx] = tag_c[j]
                        ctr_l[idx] = 4 if tk else 3
                        break
                    use_l[idx] -= 1
    dir_wrong[cond_pos[wrong]] = True
    # Only the last 64 outcomes survive the 64-bit history register.
    end = start
    for tk in cond_tk[-64:]:
        end = ((end << 1) | tk) & ((1 << 64) - 1)
    p._history = end
    p._provider = last_prov
    p._provider_slot = slot


def _ras_pass(ras: ReturnAddressStack, pcs, targets, kinds, taken,
              ras_wrong: np.ndarray) -> None:
    """Replay calls (push) and taken returns (pop) in record order;
    mark mispredicted returns in ``ras_wrong``."""
    is_ret = kinds == _RETURN
    events = np.flatnonzero(
        (kinds == _CALL_DIRECT) | (kinds == _CALL_INDIRECT)
        | (is_ret & taken))
    if events.size == 0:
        return
    ev_ret = is_ret[events].tolist()
    # Pop compares the return target; push stores the fall-through.
    ev_vals = np.where(is_ret[events], targets[events],
                       pcs[events] + INSTRUCTION_BYTES).tolist()
    ev_list = events.tolist()
    stack = ras._stack
    capacity = ras.entries
    pushes = pops = mispredictions = overflows = 0
    for j, is_return in enumerate(ev_ret):
        if is_return:
            pops += 1
            predicted = stack.pop() if stack else None
            if predicted != ev_vals[j]:
                mispredictions += 1
                ras_wrong[ev_list[j]] = True
        else:
            pushes += 1
            if len(stack) == capacity:
                del stack[0]
                overflows += 1
            stack.append(ev_vals[j])
    ras.pushes += pushes
    ras.pops += pops
    ras.mispredictions += mispredictions
    ras.overflows += overflows


def _btb_pass(btb: BTB, stream: AccessStream) -> np.ndarray:
    """Drive the full access stream through the BTB (kernel fast path
    when one applies, the reference per-access hot path otherwise) and
    return the per-access hit vector (uint8, stream order)."""
    m = len(stream)
    hits = bytearray(m)
    if btb_kernels.try_fast_replay(stream, btb, hits_out=hits) is None:
        access = btb._access_with_set
        sets_l = stream.sets_list
        pcs_l = stream.pcs_list
        tgts_l = stream.targets_list
        for i in range(m):
            if access(sets_l[i], pcs_l[i], tgts_l[i], i):
                hits[i] = 1
    return np.frombuffer(bytes(hits), dtype=np.uint8)


def _ibtb_pass(ibtb: IndirectBTB, pcs, targets, proc_pos: np.ndarray,
               ibtb_wrong: np.ndarray) -> None:
    """Predict-and-update over the taken indirect branches that hit in
    the BTB; mark wrong targets in ``ibtb_wrong``."""
    if proc_pos.size == 0:
        return
    table = ibtb._table
    entries = ibtb.entries
    hist_mask = (1 << ibtb.history_bits) - 1
    hist = ibtb._history
    hits = misses = 0
    pos_list = proc_pos.tolist()
    pcs_l = pcs[proc_pos].tolist()
    tgts_l = targets[proc_pos].tolist()
    for j, pc in enumerate(pcs_l):
        target = tgts_l[j]
        idx = ((pc >> 2) ^ hist) % entries
        if table.get(idx) == target:
            hits += 1
        else:
            misses += 1
            table[idx] = target
            ibtb_wrong[pos_list[j]] = True
        hist = ((hist << 1) ^ (target >> 2)) & hist_mask
    ibtb._history = hist
    ibtb.hits += hits
    ibtb.misses += misses


def _icache_pass(sim, next_fetch: np.ndarray, ilens: np.ndarray,
                 warmup_end: int) -> Tuple[np.ndarray, np.ndarray]:
    """Fetch every record's block through the L1I/L2/LLC stack, inlined.

    Returns the records with a fill and their fill latencies, and
    snapshots ``sim._l2_misses_at_warmup`` at the region boundary.  The
    per-set MRU lists are the caches' own (mutated in place); counters
    are accumulated locally and folded back once.

    A record whose first line is the line the previous record ended on
    starts with a guaranteed L1 MRU hit (nothing touched the cache in
    between), which only counts an access: the walk starts on the next
    line, and a record that fetches only that line is never visited.
    """
    icache = sim.icache
    if icache.perfect:
        sim._l2_misses_at_warmup = icache.l2.misses
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    shift = icache._line_shift
    first = next_fetch >> shift
    last = (next_fetch + ilens.astype(np.int64) * INSTRUCTION_BYTES - 1) \
        >> shift
    mru = np.zeros(len(ilens), dtype=bool)
    mru[1:] = first[1:] == last[:-1]
    first += mru
    walk = np.flatnonzero(first <= last)
    # Skipped records never miss, so the L2 misses at the warmup
    # boundary are those of the walked records before it.
    split = int(np.searchsorted(walk, warmup_end))
    first_l = first[walk].tolist()
    last_l = last[walk].tolist()
    l1, l2, llc = icache.l1i, icache.l2, icache.llc
    s1, n1, w1 = l1._sets, l1.num_sets, l1.ways
    s2, n2, w2 = l2._sets, l2.num_sets, l2.ways
    s3, n3, w3 = llc._sets, llc.num_sets, llc.ways
    lat2, lat3, latm = icache._lat.l2, icache._lat.llc, icache._lat.memory
    a1 = int(np.count_nonzero(mru))
    m1 = a2 = m2 = a3 = m3 = 0
    l2_misses_at_warmup = 0
    filled, values = [], []
    for j in range(len(first_l)):
        if j == split:
            l2_misses_at_warmup = m2
        line = first_l[j]
        line_last = last_l[j]
        total = 0.0
        while True:
            a1 += 1
            row = s1[line % n1]
            if row and row[0] == line:
                pass  # MRU hit: remove+insert(0) is a no-op.
            else:
                try:
                    row.remove(line)
                    row.insert(0, line)
                except ValueError:
                    m1 += 1
                    if len(row) >= w1:
                        row.pop()
                    row.insert(0, line)
                    a2 += 1
                    row = s2[line % n2]
                    if row and row[0] == line:
                        total += lat2
                    else:
                        try:
                            row.remove(line)
                            row.insert(0, line)
                            total += lat2
                        except ValueError:
                            m2 += 1
                            if len(row) >= w2:
                                row.pop()
                            row.insert(0, line)
                            a3 += 1
                            row = s3[line % n3]
                            if row and row[0] == line:
                                total += lat3
                            else:
                                try:
                                    row.remove(line)
                                    row.insert(0, line)
                                    total += lat3
                                except ValueError:
                                    m3 += 1
                                    if len(row) >= w3:
                                        row.pop()
                                    row.insert(0, line)
                                    total += latm
            if line == line_last:
                break
            line += 1
        if total > 0.0:
            filled.append(j)
            values.append(total)
    if split == len(first_l):
        l2_misses_at_warmup = m2
    if warmup_end == 0:
        l2_misses_at_warmup = 0
    sim._l2_misses_at_warmup = l2.misses + l2_misses_at_warmup
    l1.accesses += a1
    l1.misses += m1
    l2.accesses += a2
    l2.misses += m2
    llc.accesses += a3
    llc.misses += m3
    return walk[filled], np.array(values)


#: Below this many open segments, :func:`_fdip_pass` walks the rest
#: record by record: a lockstep step costs about as much as a dozen
#: scalar records.
_LOCKSTEP_MIN = 16


def _fdip_pass(fdip: FDIPEngine, adv: np.ndarray, filled: np.ndarray,
               fill_values: np.ndarray, redirects: np.ndarray) -> np.ndarray:
    """Run the run-ahead credit over the whole trace; returns the
    per-record *exposed* fill latency column.

    ``adv`` is each record's ``demand * gain``, ``filled`` and
    ``fill_values`` the I-cache fills in record order, ``redirects``
    each record's redirect count.  A redirect drains the credit to zero,
    so redirects cut the trace into independent *segments*: the first
    starts from ``fdip.credit``, every other from 0.0 on the record
    after a redirect.  All segments step in lockstep by their offset,
    each with its own sequential arithmetic (``min(cap, c + adv)``, then
    the record's fill, if any, through ``absorb``), so every float is
    the reference engine's.

    When ``adv`` and ``gain`` are non-negative the cap absorbs: at the
    cap an advance or an exposure bump returns to the cap, so a segment
    leaves the lockstep once it reaches the cap, and each fill it has
    not walked hides ``min(cap, fill)``.  Every fill starts with that
    at-cap split and the walk overwrites the ones it reaches.
    ``hidden_latency`` and ``exposed_latency`` are ordered sums over the
    fills, from their current values.
    """
    n = redirects.shape[0]
    cap = fdip.capacity
    gain = fdip.gain
    fill_at = np.zeros(n)
    fill_at[filled] = fill_values
    hidden = np.zeros(n)
    exposed = np.zeros(n)
    absorbs = not gain < 0 and bool((adv >= 0.0).all())
    if absorbs:
        at_cap = np.where(fill_values < cap, fill_values, cap)
        hidden[filled] = at_cap
        exposed[filled] = fill_values - at_cap
    cut = np.flatnonzero(redirects != 0)
    pos = np.concatenate(([0], cut + 1))
    ends = np.concatenate((cut, [n - 1]))
    if cut.size and cut[-1] == n - 1:   # the one possible empty segment
        pos, ends = pos[:-1], ends[:-1]
    credit = np.zeros(pos.size)
    credit[0] = fdip.credit     # record 0 always opens the first segment
    last = n - 1
    end_credit = 0.0
    # min(cap, x) is ``x if x < cap else cap`` and min(credit, fill) is
    # ``fill if fill < credit else credit``, NaN and signed zeros included.
    while pos.size >= _LOCKSTEP_MIN:
        x = credit + adv[pos]
        credit = np.where(x < cap, x, cap)
        at = np.flatnonzero(fill_at[pos])
        if at.size:
            where = pos[at]
            c, fill = credit[at], fill_at[where]
            hid = np.where(fill < c, fill, c)
            exp = fill - hid
            hidden[where] = hid
            exposed[where] = exp
            bump = np.flatnonzero(exp)
            if bump.size:
                x = c[bump] + exp[bump] * gain
                credit[at[bump]] = np.where(x < cap, x, cap)
        stop = pos == ends
        if absorbs:
            stop |= credit == cap
        if stop.any():
            if stop[-1] and ends[-1] == last:
                end_credit = credit[-1]
            keep = ~stop
            pos, ends, credit = pos[keep], ends[keep], credit[keep]
        pos += 1
    for p, e, c in zip(pos.tolist(), ends.tolist(), credit.tolist()):
        while True:
            x = c + adv[p]
            c = x if x < cap else cap
            fill = fill_at[p]
            if fill:
                hid = fill if fill < c else c
                exp = fill - hid
                hidden[p] = hid
                exposed[p] = exp
                if exp:
                    x = c + exp * gain
                    c = x if x < cap else cap
            if p == e or (absorbs and c == cap):
                break
            p += 1
        if e == last:
            end_credit = c
    fdip.hidden_latency = _ordered_sum(
        np.concatenate(([fdip.hidden_latency], hidden[filled])))
    fdip.exposed_latency = _ordered_sum(
        np.concatenate(([fdip.exposed_latency], exposed[filled])))
    fdip.credit = 0.0 if redirects[last] else float(end_credit)
    fdip.resets += int(redirects.sum())
    return exposed


# ----------------------------------------------------------------------
# Shared passes
# ----------------------------------------------------------------------
# The direction and I-cache passes are pure functions of (trace,
# component start state[, warmup_end]) -> (output column, component end
# state).  A memo hit replays both: the output into the caller's column
# and the end state into the live components in place, so every object a
# caller holds keeps its identity.  The key names the component's start
# state by a token from :class:`_StartStates`, so a warmed or foreign
# component is simply a miss.  End states are flat tuples of atoms and
# packed ints, which the cyclic GC stops tracking.  A Harness keeps
# every trace alive, hence the small LRU bound.

_pass_memo = TraceMemo(capacity=8)


class _Unflattenable(Exception):
    """A state :func:`_flatten` cannot compare exactly (a dict, an
    array, a list of floats, ...)."""


def _frozen_list(items: list) -> list:
    """A private deep copy of a list of ints or of such lists."""
    kinds = set(map(type, items))
    if kinds <= {int}:
        return items[:]
    if kinds == {list}:
        return [_frozen_list(row) for row in items]
    raise _Unflattenable


def _flatten(value, out: list, frozen: bool) -> list:
    """Append ``value``'s state to ``out`` in a fixed walk order: an
    object as its type, attribute count, then each name and state; a
    list of objects as its length and their states; another list as
    itself (``frozen``: as a private deep copy of its ints); a scalar as
    its type and value (a float as its hex spelling, so ``-0.0`` and
    ``0.0`` differ)."""
    kind = type(value)
    if kind is list:
        if value and hasattr(value[0], "__dict__"):
            out.append(len(value))
            for item in value:
                _flatten(item, out, frozen)
        else:
            out.append(_frozen_list(value) if frozen else value)
    elif kind in (int, bool, str, type(None)):
        out += (kind, value)
    elif kind is float:
        out += (kind, value.hex())
    elif (hasattr(value, "__dict__") and not callable(value)
          and kind.__module__ != "builtins"):
        state = vars(value)
        out += (kind, len(state))
        for name, item in state.items():
            out.append(name)
            _flatten(item, out, frozen)
    else:
        raise _Unflattenable
    return out


class _StartStates:
    """Tokens that name distinct component start states exactly.

    The pool keeps a private flat copy of each start state it has named
    (LRU, a few); a live component gets an entry's token when its flat
    state compares equal to that copy.  The compare runs in C, list by
    list, and costs a fraction of pickling the state; a fresh component
    matches the copy every other fresh one of its kind left.  Lists
    compare their ints by value; a state with anything the walk cannot
    copy exactly is named by its type and pickled ``__dict__`` instead.
    Tokens are never reused, so a key holding an evicted token can only
    miss.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[int, list]" = OrderedDict()
        self._next = count()
        self._lock = threading.Lock()

    def token(self, component):
        try:
            live = _flatten(component, [], False)
            with self._lock:
                for token, saved in reversed(self._entries.items()):
                    if saved == live:
                        self._entries.move_to_end(token)
                        return token
            saved = _flatten(component, [], True)
        except _Unflattenable:
            return type(component), _state_bytes(component.__dict__)
        with self._lock:
            token = next(self._next)
            self._entries[token] = saved
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return token

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_start_states = _StartStates(capacity=4)


def clear_pass_memo() -> None:
    """Drop every memoized pass result (``clear_stream_cache`` does too)."""
    _pass_memo.clear()
    _start_states.clear()


def _state_bytes(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _compact(items: list):
    """A flat list's plain int64 items packed at the narrowest width that
    holds them (the first byte gives it), any other items as a tuple."""
    if set(map(type, items)) <= {int}:
        bound = max(max(items, default=0), ~min(items, default=0))
        for width in (1, 2, 8):
            if bound < 1 << (8 * width - 1):
                return bytes([width]) + np.fromiter(
                    items, f"<i{width}", len(items)).tobytes()
    return tuple(items)


def _items(saved) -> list:
    if type(saved) is bytes:
        return np.frombuffer(saved, f"<i{saved[0]}", offset=1).tolist()
    return list(saved)


def _snapshot(value, out: list) -> list:
    """Append ``value``'s state to ``out`` as atoms, in the order
    :func:`_restore` reads them: an object as its attribute count, then
    each name and state; a list of objects as their states; a list of
    rows as all items, then row lengths; other lists as their items."""
    if type(value) is list:
        if value and type(value[0]) is list:
            out += (_compact(list(chain.from_iterable(value))),
                    _compact(list(map(len, value))))
        elif value and hasattr(value[0], "__dict__"):
            for item in value:
                _snapshot(item, out)
        else:
            out.append(_compact(value))
    elif hasattr(value, "__dict__"):
        out.append(len(vars(value)))
        for name, item in vars(value).items():
            out.append(name)
            _snapshot(item, out)
    else:
        out.append(value)
    return out


def _restore(live, saved):
    """Write the :func:`_snapshot` read from iterator ``saved`` back into
    ``live`` in place; returns what the owner should hold (``live`` for
    lists and objects, so every list and object keeps its identity)."""
    if type(live) is list:
        if live and type(live[0]) is list:
            items, sizes, at = _items(next(saved)), _items(next(saved)), 0
            for row, size in zip(live, sizes):
                row[:] = items[at:at + size]
                at += size
        elif live and hasattr(live[0], "__dict__"):
            for item in live:
                _restore(item, saved)
        else:
            live[:] = _items(next(saved))
        return live
    if hasattr(live, "__dict__"):
        state = live.__dict__
        for _ in range(next(saved)):
            name = next(saved)
            state[name] = _restore(state.get(name), saved)
        return live
    return next(saved)


def _memo_get(trace: BranchTrace, key):
    value = _pass_memo.get(trace, key)
    get_registry().count("sim/pass_memo_hits" if value is not None
                         else "sim/pass_memo_misses")
    return value


def _shared_direction_pass(trace: BranchTrace, predictor,
                           dir_wrong: np.ndarray) -> None:
    """:func:`_direction_pass` over ``trace``, memoized."""
    key = ("direction", _start_states.token(predictor))
    hit = _memo_get(trace, key)
    if hit is not None:
        wrong, end_state = hit
        dir_wrong[wrong] = True
        _restore(predictor, iter(end_state))
        return
    _direction_pass(predictor, trace.pcs, trace.kinds, trace.taken,
                    dir_wrong)
    _pass_memo.put(trace, key,
                   (np.flatnonzero(dir_wrong),
                    tuple(_snapshot(predictor, []))))


def _shared_icache_pass(trace: BranchTrace, sim, next_fetch: np.ndarray,
                        warmup_end: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_icache_pass` over ``trace``, memoized: returns the fill
    records and latencies that :func:`_fdip_pass` absorbs."""
    icache = sim.icache
    levels = [icache.l1i, icache.l2, icache.llc]
    key = ("icache", warmup_end, _start_states.token(icache))
    hit = _memo_get(trace, key)
    if hit is not None:
        end_state, sim._l2_misses_at_warmup, filled, fill_values = hit
        _restore(levels, iter(end_state))
        return filled, fill_values
    filled, fill_values = _icache_pass(sim, next_fetch, trace.ilens,
                                       warmup_end)
    _pass_memo.put(trace, key, (tuple(_snapshot(levels, [])),
                                sim._l2_misses_at_warmup, filled,
                                fill_values))
    return filled, fill_values


# ----------------------------------------------------------------------
# The fast simulate
# ----------------------------------------------------------------------

def try_fast_simulate(sim, trace: BranchTrace, warmup_fraction: float,
                      stream: Optional[AccessStream]):
    """Stage-decoupled simulate; returns a bit-identical
    :class:`~repro.frontend.simulator.SimResult` or None when dispatch
    must fall back to the reference loop.

    All dispatch checks run before any state is touched, so a None
    return leaves the machine exactly as constructed.
    """
    from repro.frontend.simulator import SimResult
    registry = get_registry()
    reason = fast_sim_supported(sim)
    n = len(trace.pcs)
    if reason is None and n == 0:
        reason = "empty trace"
    if reason is not None:
        registry.count("sim/fallback/" + _slug(reason))
        return None
    params = sim.params
    btb = sim.btb
    perfect_btb = sim.perfect_btb
    if not perfect_btb and (stream is None or stream.config != btb.config):
        # The monolith resolves set indices through the BTB's own config
        # even when handed a foreign-geometry stream; the memoized
        # stream for the right geometry reproduces that exactly.
        stream = access_stream_for(trace, btb.config)

    with span("frontend.simulate"):
        pcs = trace.pcs
        targets = trace.targets
        kinds = trace.kinds
        taken = trace.taken
        ilens = trace.ilens
        warmup_end = int(n * warmup_fraction)

        # -- vectorized precompute -------------------------------------
        demand = ilens * params.backend_cpi
        next_fetch = np.empty(n, dtype=np.int64)
        next_fetch[0] = pcs[0] - (int(ilens[0]) - 1) * INSTRUCTION_BYTES
        if n > 1:
            next_fetch[1:] = np.where(taken[:-1], targets[:-1],
                                      pcs[:-1] + INSTRUCTION_BYTES)
        is_ret = kinds == _RETURN
        access_mask = taken & ~is_ret
        is_indirect = ((kinds == _CALL_INDIRECT)
                       | (kinds == _UNCOND_INDIRECT))

        # -- independent outcome passes --------------------------------
        dir_wrong = np.zeros(n, dtype=bool)
        with span("frontend.direction"):
            _shared_direction_pass(trace, sim.predictor, dir_wrong)

        ras_wrong = np.zeros(n, dtype=bool)
        with span("frontend.ras"):
            _ras_pass(sim.ras, pcs, targets, kinds, taken, ras_wrong)

        if perfect_btb:
            hit_rec = access_mask
        else:
            with span("frontend.btb"):
                hit_stream = _btb_pass(btb, stream)
            hit_rec = np.zeros(n, dtype=bool)
            hit_rec[stream.trace_positions] = hit_stream.astype(bool)
        btb_miss = access_mask & ~hit_rec

        ibtb_wrong = np.zeros(n, dtype=bool)
        with span("frontend.ibtb"):
            _ibtb_pass(sim.ibtb, pcs, targets,
                       np.flatnonzero(is_indirect & taken & hit_rec),
                       ibtb_wrong)

        with span("frontend.icache"):
            filled, fill_values = _shared_icache_pass(trace, sim,
                                                      next_fetch, warmup_end)

        redirects = (dir_wrong.astype(np.int8) + ras_wrong
                     + btb_miss + ibtb_wrong)
        with span("frontend.fdip"):
            exposed = _fdip_pass(sim.fdip, demand * sim.fdip.gain, filled,
                                 fill_values, redirects)

        # -- exact-order reduction over the measured region ------------
        with span("frontend.reduce"):
            w = warmup_end
            # The monolith's per-record order: demand, exposed I-cache
            # fill, direction penalty, target penalty.  Skipped stages
            # charge 0.0, and x + 0.0 is an IEEE identity for these
            # non-negative accumulators, so the flattened (n, 4) scan
            # reproduces ``cycles`` bit for bit.  At most one
            # target-stage charge applies per record, so the three
            # target columns write disjoint entries of one column.
            charges = np.zeros((n - w, 4))
            charges[:, 0] = demand[w:]
            charges[:, 1] = exposed[w:]
            charges[dir_wrong[w:], 2] = params.mispredict_penalty
            tgt_charge = charges[:, 3]
            tgt_charge[btb_miss[w:]] = params.btb_miss_penalty
            tgt_charge[ras_wrong[w:]] = params.ras_penalty
            tgt_charge[ibtb_wrong[w:]] = params.indirect_penalty

            result = SimResult(trace_name=trace.name)
            # Every record charges a nonzero demand, so masking the
            # zeros out of ``charges`` (about two thirds of it) costs
            # more than the shorter scan saves; the sparse columns drop
            # theirs.
            result.cycles = _ordered_sum(charges.ravel())
            result.instructions = int(ilens[w:].sum())
            result.base_cycles = _ordered_sum(demand[w:])
            result.icache_stall_cycles = _nonzero_sum(exposed[w:])
            result.mispredict_stall_cycles = _penalty_sum(
                dir_wrong[w:], params.mispredict_penalty)
            result.btb_stall_cycles = _penalty_sum(
                btb_miss[w:], params.btb_miss_penalty)
            result.indirect_stall_cycles = _penalty_sum(
                ibtb_wrong[w:], params.indirect_penalty)
            result.ras_stall_cycles = _penalty_sum(
                ras_wrong[w:], params.ras_penalty)
            result.mispredicts = int(np.count_nonzero(dir_wrong[w:]))
            result.ras_mispredicts = int(np.count_nonzero(ras_wrong[w:]))
            result.indirect_mispredicts = int(
                np.count_nonzero(ibtb_wrong[w:]))

    if btb is not None:
        result.btb_stats = btb.stats
    l2_misses = sim.icache.l2.misses - sim._l2_misses_at_warmup
    if result.instructions > 0:
        result.l2_instruction_mpki = 1000.0 * l2_misses \
            / result.instructions
    result.fdip_hide_rate = sim.fdip.hide_rate
    sim._record_telemetry(registry, result)
    registry.count("sim/fast_path")
    return result
