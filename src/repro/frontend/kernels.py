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

The direction and I-cache passes never see the BTB, so every simulation
of one trace on identically-started components computes the same
outcome column and end state.  A per-trace memo (:func:`clear_pass_memo`)
keeps those results, so a figure that simulates many policies runs
each pass once per trace.
"""

from __future__ import annotations

import pickle
import re
from typing import List, Optional

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
    cond_pcs = pcs[cond_pos].tolist()
    cond_tk = cond_taken.tolist()
    if (ptype is TageLitePredictor
            and type(predictor._base) is BimodalPredictor
            and not _patched(predictor._base, _PREDICTOR_HOOKS)):
        _tage_pass(predictor, cond_pos.tolist(), cond_pcs, cond_tk,
                   dir_wrong)
        return
    # Generic pass: identical call sequence, so any stock predictor's
    # internal state evolves exactly as under the monolith.
    pt = predictor.predict_and_train
    pos_list = cond_pos.tolist()
    for j, pc in enumerate(cond_pcs):
        if not pt(pc, cond_tk[j]):
            dir_wrong[pos_list[j]] = True


def _tage_pass(p: TageLitePredictor, pos_list: List[int],
               cond_pcs: List[int], cond_tk: List[bool],
               dir_wrong: np.ndarray) -> None:
    """TAGE-lite predict+train inlined over the conditional column."""
    base = p._base
    bc = base._counters
    bmask = base._mask
    tbls = [(t.tags, t.counters, t.useful,
             (1 << t.history_bits) - 1,
             (1 << t.table_bits) - 1,
             (1 << t.tag_bits) - 1)
            for t in p._tables]
    levels = len(tbls)
    probe_order = range(levels - 1, -1, -1)
    hist = p._history
    hist_mask = (1 << 64) - 1
    last_prov: Optional[int] = None
    slot = p._provider_slot
    for j, pc in enumerate(cond_pcs):
        tk = cond_tk[j]
        w = pc >> 2
        prov = -1
        pidx = 0
        pred = False
        for lvl in probe_order:
            tags_l, ctr_l, use_l, hm, im, tm = tbls[lvl]
            f = hist & hm
            idx = (w ^ f ^ (f >> 3)) & im
            if tags_l[idx] == (w ^ (f << 1)) & tm:
                prov = lvl
                pidx = idx
                pred = ctr_l[idx] >= 4
                break
        if prov < 0:
            bidx = w & bmask
            v = bc[bidx]
            pred = v >= 2
            # Base training (2-bit saturating counter).
            if tk:
                if v < 3:
                    bc[bidx] = v + 1
            elif v > 0:
                bc[bidx] = v - 1
            last_prov = None
        else:
            tags_l, ctr_l, use_l = tbls[prov][:3]
            v = ctr_l[pidx]
            if tk:
                if v < 7:
                    ctr_l[pidx] = v + 1
            elif v > 0:
                ctr_l[pidx] = v - 1
            if pred == tk and use_l[pidx] < 3:
                use_l[pidx] = use_l[pidx] + 1
            last_prov = prov
            slot = pidx
        if pred != tk:
            dir_wrong[pos_list[j]] = True
            # Usefulness-guarded allocation above the provider, with the
            # pre-update history (exactly _allocate's probe).
            for lvl in range(prov + 1, levels):
                tags_l, ctr_l, use_l, hm, im, tm = tbls[lvl]
                f = hist & hm
                idx = (w ^ f ^ (f >> 3)) & im
                if use_l[idx] == 0:
                    tags_l[idx] = (w ^ (f << 1)) & tm
                    ctr_l[idx] = 4 if tk else 3
                    break
                use_l[idx] = use_l[idx] - 1
        hist = ((hist << 1) | (1 if tk else 0)) & hist_mask
    p._history = hist
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
                 warmup_end: int) -> List[float]:
    """Fetch every record's block through the L1I/L2/LLC stack, inlined.

    Returns the per-record fill latency column and snapshots
    ``sim._l2_misses_at_warmup`` at the region boundary.  The per-set
    MRU lists are the caches' own (mutated in place); counters are
    accumulated locally and folded back once.
    """
    icache = sim.icache
    n = len(ilens)
    if icache.perfect:
        sim._l2_misses_at_warmup = icache.l2.misses
        return [0.0] * n
    shift = icache._line_shift
    first = (next_fetch >> shift).tolist()
    last = ((next_fetch + ilens.astype(np.int64) * INSTRUCTION_BYTES - 1)
            >> shift).tolist()
    l1, l2, llc = icache.l1i, icache.l2, icache.llc
    s1, n1, w1 = l1._sets, l1.num_sets, l1.ways
    s2, n2, w2 = l2._sets, l2.num_sets, l2.ways
    s3, n3, w3 = llc._sets, llc.num_sets, llc.ways
    lat2, lat3, latm = icache._lat.l2, icache._lat.llc, icache._lat.memory
    a1 = m1 = a2 = m2 = a3 = m3 = 0
    l2_misses_at_warmup = 0
    snapshot_at = warmup_end - 1
    fills = [0.0] * n
    for i in range(n):
        line = first[i]
        line_last = last[i]
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
        if total:
            fills[i] = total
        if i == snapshot_at:
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
    return fills


def _fdip_pass(fdip: FDIPEngine, demand: np.ndarray, fills: List[float],
               redirects: np.ndarray) -> np.ndarray:
    """Run the run-ahead credit over the whole trace; returns the
    per-record *exposed* fill latency column.

    Credit only matters at *events* (a fill to absorb or a redirect);
    between events it monotonically ramps to the capacity cap, so the
    pass hops event to event and walks records only while the credit is
    still ramping — identical arithmetic, a fraction of the iterations.
    """
    n = demand.shape[0]
    exposed = np.zeros(n)
    fills_np = np.asarray(fills)
    events = np.flatnonzero((fills_np > 0.0) | (redirects > 0))
    adv = (demand * fdip.gain).tolist()
    credit = fdip.credit
    cap = fdip.capacity
    gain = fdip.gain
    hidden_acc = fdip.hidden_latency
    exposed_acc = fdip.exposed_latency
    resets = fdip.resets
    ev_list = events.tolist()
    ev_red = redirects[events].tolist()
    cursor = 0
    for j, e in enumerate(ev_list):
        if credit < cap:
            k = cursor
            while k < e:
                c = credit + adv[k]
                if c >= cap:
                    credit = cap
                    break
                credit = c
                k += 1
        c = credit + adv[e]
        credit = cap if c > cap else c
        fill = fills[e]
        if fill:
            if credit >= fill:
                hidden_acc += fill
                exposed_acc += 0.0
            else:
                exp = fill - credit
                hidden_acc += credit
                exposed_acc += exp
                exposed[e] = exp
                c = credit + exp * gain
                credit = cap if c > cap else c
        r = ev_red[j]
        if r:
            credit = 0.0
            resets += r
        cursor = e + 1
    if credit < cap:
        k = cursor
        while k < n:
            c = credit + adv[k]
            if c >= cap:
                credit = cap
                break
            credit = c
            k += 1
    fdip.credit = credit
    fdip.hidden_latency = hidden_acc
    fdip.exposed_latency = exposed_acc
    fdip.resets = resets
    return exposed


# ----------------------------------------------------------------------
# Shared passes
# ----------------------------------------------------------------------
# The direction and I-cache passes are pure functions of (trace,
# component start state[, warmup_end]) -> (output column, component end
# state).  A memo hit replays both: the output into the caller's column
# and the end state into the live components in place, so every object a
# caller holds keeps its identity.  The key carries the component's type
# and its pickled start state, so a warmed or foreign component is simply
# a miss.  A Harness keeps every trace alive, hence the small LRU bound.

_pass_memo = TraceMemo(capacity=8)


def clear_pass_memo() -> None:
    """Drop every memoized pass result (``clear_stream_cache`` does too)."""
    _pass_memo.clear()


def _state_bytes(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _restored(live, saved):
    """``saved``'s state written into ``live`` in place when both are the
    same type of list or plain object, else ``saved`` itself; nested lists
    and objects keep their identity all the way down."""
    if type(live) is not type(saved):
        return saved
    if type(saved) is list:
        if saved and len(live) == len(saved) \
                and (type(saved[0]) is list or hasattr(saved[0], "__dict__")):
            saved = [_restored(a, b) for a, b in zip(live, saved)]
        live[:] = saved
        return live
    if hasattr(saved, "__dict__"):
        state = live.__dict__
        for name, value in vars(saved).items():
            state[name] = _restored(state.get(name), value)
        return live
    return saved


def _memo_get(trace: BranchTrace, key):
    value = _pass_memo.get(trace, key)
    get_registry().count("sim/pass_memo_hits" if value is not None
                         else "sim/pass_memo_misses")
    return value


def _shared_direction_pass(trace: BranchTrace, predictor,
                           dir_wrong: np.ndarray) -> None:
    """:func:`_direction_pass` over ``trace``, memoized."""
    key = ("direction", type(predictor), _state_bytes(predictor.__dict__))
    hit = _memo_get(trace, key)
    if hit is not None:
        wrong, end_state = hit
        dir_wrong[wrong] = True
        _restored(predictor, pickle.loads(end_state))
        return
    _direction_pass(predictor, trace.pcs, trace.kinds, trace.taken,
                    dir_wrong)
    _pass_memo.put(trace, key,
                   (np.flatnonzero(dir_wrong), _state_bytes(predictor)))


def _shared_icache_pass(trace: BranchTrace, sim, next_fetch: np.ndarray,
                        warmup_end: int) -> List[float]:
    """:func:`_icache_pass` over ``trace``, memoized."""
    icache = sim.icache
    levels = (icache.l1i, icache.l2, icache.llc)
    key = ("icache", warmup_end, type(icache),
           _state_bytes(icache.__dict__))
    hit = _memo_get(trace, key)
    if hit is not None:
        filled, fill_values, l2_misses_at_warmup, end_state = hit
        fills = [0.0] * len(trace.ilens)
        for i, value in zip(filled, fill_values):
            fills[i] = value
        for live, saved in zip(levels, pickle.loads(end_state)):
            _restored(live, saved)
        sim._l2_misses_at_warmup = l2_misses_at_warmup
        return fills
    fills = _icache_pass(sim, next_fetch, trace.ilens, warmup_end)
    filled = np.flatnonzero(np.asarray(fills)).tolist()
    _pass_memo.put(trace, key,
                   (filled, [fills[i] for i in filled],
                    sim._l2_misses_at_warmup, _state_bytes(levels)))
    return fills


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
        with span("frontend.warmup"):
            pcs = trace.pcs
            targets = trace.targets
            kinds = trace.kinds
            taken = trace.taken
            ilens = trace.ilens
            warmup_end = int(n * warmup_fraction)

            # -- vectorized precompute ---------------------------------
            demand = ilens * params.backend_cpi
            next_fetch = np.empty(n, dtype=np.int64)
            next_fetch[0] = pcs[0] - (int(ilens[0]) - 1) * INSTRUCTION_BYTES
            if n > 1:
                next_fetch[1:] = np.where(
                    taken[:-1], targets[:-1],
                    pcs[:-1] + INSTRUCTION_BYTES)
            is_ret = kinds == _RETURN
            access_mask = taken & ~is_ret
            is_indirect = ((kinds == _CALL_INDIRECT)
                           | (kinds == _UNCOND_INDIRECT))

            # -- independent outcome passes ----------------------------
            dir_wrong = np.zeros(n, dtype=bool)
            _shared_direction_pass(trace, sim.predictor, dir_wrong)

            ras_wrong = np.zeros(n, dtype=bool)
            _ras_pass(sim.ras, pcs, targets, kinds, taken, ras_wrong)

            if perfect_btb:
                hit_rec = access_mask
            else:
                hit_stream = _btb_pass(btb, stream)
                hit_rec = np.zeros(n, dtype=bool)
                hit_rec[stream.trace_positions] = hit_stream.astype(bool)
            btb_miss = access_mask & ~hit_rec

            ibtb_wrong = np.zeros(n, dtype=bool)
            _ibtb_pass(sim.ibtb, pcs, targets,
                       np.flatnonzero(is_indirect & taken & hit_rec),
                       ibtb_wrong)

            fills = _shared_icache_pass(trace, sim, next_fetch, warmup_end)

            redirects = (dir_wrong.astype(np.int8) + ras_wrong
                         + btb_miss + ibtb_wrong)
            exposed = _fdip_pass(sim.fdip, demand, fills, redirects)

        # -- exact-order reduction over the measured region ------------
        with span("frontend.measure"):
            dir_charge = np.where(dir_wrong, params.mispredict_penalty, 0.0)
            ras_charge = np.where(ras_wrong, params.ras_penalty, 0.0)
            btb_charge = np.where(btb_miss, params.btb_miss_penalty, 0.0)
            ind_charge = np.where(ibtb_wrong, params.indirect_penalty, 0.0)
            # At most one target-stage charge per record, so summing the
            # disjoint columns is a chain of +0.0 identities.
            tgt_charge = btb_charge + ras_charge + ind_charge

            w = warmup_end
            # The monolith's per-record order: demand, exposed I-cache
            # fill, direction penalty, target penalty.  Skipped stages
            # charge 0.0, and x + 0.0 is an IEEE identity for these
            # non-negative accumulators, so the flattened (n, 4) scan
            # reproduces ``cycles`` bit for bit.
            charges = np.empty((n - w, 4))
            charges[:, 0] = demand[w:]
            charges[:, 1] = exposed[w:]
            charges[:, 2] = dir_charge[w:]
            charges[:, 3] = tgt_charge[w:]

            result = SimResult(trace_name=trace.name)
            result.cycles = _ordered_sum(charges.ravel())
            result.instructions = int(ilens[w:].sum())
            result.base_cycles = _ordered_sum(demand[w:])
            result.icache_stall_cycles = _ordered_sum(exposed[w:])
            result.mispredict_stall_cycles = _ordered_sum(dir_charge[w:])
            result.btb_stall_cycles = _ordered_sum(btb_charge[w:])
            result.indirect_stall_cycles = _ordered_sum(ind_charge[w:])
            result.ras_stall_cycles = _ordered_sum(ras_charge[w:])
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
