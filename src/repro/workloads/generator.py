"""Parameterized synthetic branch-trace generator.

A workload is laid out once (deterministically from its name) as a set of
code regions, then *emitted* any number of times with different dynamic
mixture parameters.  Keeping layout and emission separate mirrors how a real
binary behaves across inputs: the static branches (pcs, targets, biases) stay
fixed while the dynamic mixture shifts — which is exactly what the paper's
cross-input experiment (Fig. 13) relies on.

Layout structure
----------------
* **Hot loops** — compact regions whose branches execute in tight iteration;
  they produce the ``hot`` temperature class (high hit-to-taken under OPT).
* **Warm functions** — small callees invoked from hot code at moderate
  frequency; medium reuse distance, the ``warm`` class.
* **Cold chain** — a long run of once-in-a-while branches (initialization,
  error paths, rarely-taken handlers) executed in sequential *bursts*.  The
  bursts sweep the BTB like a scan, thrashing LRU while an optimal policy
  bypasses them; this is the ``cold`` class and the source of the paper's
  transient-variance observation (Fig. 5).

Emission walks phases; each phase activates a subset of hot loops, giving
branches time-varying transient reuse distances while their holistic (whole
execution) behavior stays stable.

Columns, and why the draw order matters
---------------------------------------
Both stages are column-driven.  The layout is a *site table* (per-site pc,
static target, kind, bias and block length), and :class:`StaticBranch`
objects are only built when :attr:`SyntheticWorkload.static_branches` or a
region's ``body`` is read.  Emission appends a site index and a taken bit
per record (plus a target override for indirect dispatch, calls and
returns) and :meth:`SyntheticWorkload.generate` gathers the five
:class:`~repro.trace.record.BranchTrace` columns in one numpy pass.

A trace is fully determined by the sequence of ``random.Random`` draws the
two stages make, so every draw keeps its place and order: a cheaper way to
produce the same records is fine, a different draw is a different trace.
``tests/test_trace_digests.py`` pins the bytes of all 13 applications'
traces and layouts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.record import INSTRUCTION_BYTES, BranchKind, BranchTrace

__all__ = ["LayoutParams", "MixParams", "StaticBranch", "SyntheticWorkload",
           "WorkloadSpec"]


@dataclass(frozen=True)
class StaticBranch:
    """One static branch site produced by the layout stage."""

    pc: int
    target: int
    kind: BranchKind
    bias: float
    ilen: int
    #: Candidate targets for indirect branches (empty for direct branches).
    targets: Tuple[int, ...] = ()


@dataclass(frozen=True)
class LayoutParams:
    """Static code-layout knobs: how big the binary is and how it is shaped.

    The branch footprint (``n_hot_loops * hot_loop_branches`` plus warm and
    cold counts) relative to the BTB capacity determines how much pressure
    the replacement policy is under; ``region_gap_bytes`` spreads code across
    the address space and therefore controls the instruction-cache footprint
    (the paper's L2iMPKI axis, Fig. 3).
    """

    n_hot_loops: int = 24
    hot_loop_branches: Tuple[int, int] = (8, 24)
    n_warm_funcs: int = 64
    warm_func_branches: Tuple[int, int] = (3, 8)
    n_cold_branches: int = 4000
    block_len: Tuple[int, int] = (3, 8)
    #: Taken-probability range for *hard* conditional branches (the ones a
    #: direction predictor actually mispredicts).
    cond_bias: Tuple[float, float] = (0.70, 0.98)
    #: Fraction of conditional branches that are hard; the rest are strongly
    #: biased (taken probability in ``easy_bias``) and nearly free for any
    #: direction predictor — matching how TAGE-class predictors behave on
    #: real code.
    hard_branch_fraction: float = 0.08
    easy_bias: Tuple[float, float] = (0.96, 0.998)
    #: Fraction of hot loops that contain one indirect dispatch branch
    #: (interpreter/vtable style).
    indirect_loop_fraction: float = 0.25
    indirect_fanout: int = 8
    #: Gap between consecutive code regions, in bytes.  Larger gaps inflate
    #: the I-cache footprint without changing branch behavior.
    region_gap_bytes: int = 256
    #: Base address of the code segment.
    text_base: int = 0x400000
    #: Maximum trip count per loop visit, granted to the highest-weight
    #: loops; the tail of the loop distribution gets 1-2 trips per visit.
    loop_trips_max: int = 24
    #: Zipf exponent for hot-loop visit weights.  Loop ``i`` is visited with
    #: probability proportional to ``1 / (i + 1) ** loop_zipf_s``, so early
    #: loops are revisited often (short holistic reuse distance → hot) and
    #: the tail is revisited rarely (→ warm/cold).
    loop_zipf_s: float = 0.8


@dataclass(frozen=True)
class MixParams:
    """Dynamic mixture knobs: how the laid-out code is exercised."""

    #: Number of hot loops simultaneously active within a phase (on top of
    #: the always-active core).
    active_loops: int = 6
    #: Number of highest-weight loops that stay active in every phase.
    #: These form the stable hot core of the application.
    core_loops: int = 4
    #: Dynamic branch records per phase before the active set rotates.
    phase_len: int = 20_000
    #: Multiplier on per-loop trip counts (input-dependent load level).
    trip_scale: float = 1.0
    #: Probability that the next loop visit returns to the same loop
    #: (bursty temporal locality; gives recency-based tie-breaking real
    #: signal, as in actual request-processing phases).
    p_revisit_loop: float = 0.4
    #: Probability of calling a warm function after a loop iteration.
    p_call: float = 0.15
    #: Probability of a cold burst after a loop iteration.
    p_cold_burst: float = 0.04
    cold_burst_len: Tuple[int, int] = (20, 120)
    #: Probability that a cold burst replays a recently visited stretch of
    #: the cold chain instead of advancing the cursor (creates the medium
    #: reuse-distance tail).
    cold_revisit: float = 0.15


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete description of a synthetic workload."""

    name: str
    layout: LayoutParams = field(default_factory=LayoutParams)
    mix: MixParams = field(default_factory=MixParams)
    #: Default dynamic length (branch records) when none is requested.
    default_length: int = 200_000

    def scaled(self, factor: float) -> "WorkloadSpec":
        """A spec with the dynamic length scaled by ``factor``."""
        return replace(self,
                       default_length=max(1, int(self.default_length * factor)))


class SyntheticWorkload:
    """Lays out a synthetic binary and emits dynamic branch traces from it."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self._lay = _Layout(spec.layout, seed=_stable_seed(spec.name))

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def static_branches(self) -> List[StaticBranch]:
        """Every static branch site in the laid-out binary."""
        out: List[StaticBranch] = []
        for loop in self._lay.loops:
            out.extend(loop.body)
            out.append(loop.backedge)
        for func in self._lay.funcs:
            out.extend(func.body)
            out.append(func.ret)
        out.extend(self._lay.cold)
        return out

    def generate(self, input_id: int = 0, length: Optional[int] = None,
                 seed: int = 0) -> BranchTrace:
        """Emit a dynamic trace.

        ``input_id`` selects an input configuration: it perturbs the dynamic
        mixture (active loop rotation, call/cold probabilities, trip counts)
        while leaving the static layout untouched, modeling running the same
        binary on a different input.
        """
        if length is None:
            length = self.spec.default_length
        if length < 0:
            raise ValueError("length must be non-negative")
        mix = _perturb_mix(self.spec.mix, input_id)
        rng = random.Random(_stable_seed(self.spec.name, input_id, seed))
        emitter = _Emitter(self._lay, mix, rng)
        emitter.emit(length)
        pcs, targets, kinds, taken, ilens = emitter.columns()
        trace = BranchTrace(pcs=pcs, targets=targets, kinds=kinds,
                            taken=taken, ilens=ilens,
                            name=f"{self.spec.name}#{input_id}")
        trace.metadata.update({"workload": self.spec.name,
                               "input_id": input_id, "seed": seed})
        return trace


# ----------------------------------------------------------------------
# Layout stage
# ----------------------------------------------------------------------

# Site-table kind codes (plain ints gather into a uint8 column cheaply).
_COND = int(BranchKind.COND_DIRECT)
_JUMP = int(BranchKind.UNCOND_DIRECT)
_CALL = int(BranchKind.CALL_DIRECT)
_RETURN = int(BranchKind.RETURN)
_INDIRECT = int(BranchKind.UNCOND_INDIRECT)


@dataclass
class _Loop:
    base: int
    #: Site-table index of the first body branch; the ``n`` body branches
    #: are ``first, first + 1, ...``, then the backedge.
    first: int
    n: int
    #: Position of the indirect dispatch branch in the body, or -1.
    indirect_pos: int
    #: Taken probabilities of the conditional body branches, in order.
    biases: List[float]
    #: Site-table index of the backedge pc acting as a direct call to a
    #: warm function, and the address that call returns to.
    call_site: int
    call_return: int
    sites: _Sites = field(repr=False, compare=False)
    #: Trip-count range for one visit; correlated with the loop's visit
    #: weight (hot inner loops iterate more), which is what separates the
    #: hot/warm/cold hit-to-taken regimes.
    trips: Tuple[int, int] = (1, 2)

    @property
    def body(self) -> List[StaticBranch]:
        return self.sites.branches(self.first, self.first + self.n)

    @property
    def backedge(self) -> StaticBranch:
        return self.sites.branch(self.first + self.n)


@dataclass
class _Func:
    base: int
    #: Site-table index of the first body branch; ``ret`` follows the body.
    first: int
    n: int
    biases: List[float]
    sites: _Sites = field(repr=False, compare=False)

    @property
    def body(self) -> List[StaticBranch]:
        return self.sites.branches(self.first, self.first + self.n)

    @property
    def ret(self) -> StaticBranch:
        return self.sites.branch(self.first + self.n)


class _Sites:
    """A layout's site table: parallel per-site columns (pc, static
    target, kind, bias, ilen), numbered in build order.

    A site is a static branch, or a loop backedge acting as the call site
    of a warm function.  Regions refer to their sites by index, emission
    records site indices, and :class:`StaticBranch` views are built only
    when asked for.  The table holds no reference back to its regions, so
    a layout is freed as soon as its workload is.
    """

    def __init__(self) -> None:
        self.pcs: List[int] = []
        self.targets: List[int] = []
        self.kinds: List[int] = []
        self.biases: List[float] = []
        self.ilens: List[int] = []
        #: Candidate targets of the indirect sites.
        self.fanout: Dict[int, Tuple[int, ...]] = {}

    def add(self, pcs: Sequence[int], targets: Sequence[int],
            kinds: Sequence[int], biases: Sequence[float],
            ilens: Sequence[int]) -> int:
        """Append sites; returns the index of the first."""
        first = len(self.pcs)
        self.pcs.extend(pcs)
        self.targets.extend(targets)
        self.kinds.extend(kinds)
        self.biases.extend(biases)
        self.ilens.extend(ilens)
        return first

    def branch(self, site: int) -> StaticBranch:
        return StaticBranch(
            pc=self.pcs[site], target=self.targets[site],
            kind=BranchKind(self.kinds[site]), bias=self.biases[site],
            ilen=self.ilens[site], targets=self.fanout.get(site, ()))

    def branches(self, start: int, stop: int) -> List[StaticBranch]:
        return [self.branch(site) for site in range(start, stop)]


def _check_range(name: str, bounds: Tuple[int, int]) -> None:
    """Reject an empty inclusive ``(lo, hi)`` range up front.

    Integer draws below are ``lo + rng._randbelow(hi - lo + 1)``: the
    value ``rng.randint(lo, hi)`` returns from the same generator state,
    without its two wrapper frames per draw.  ``_randbelow`` does not
    check its argument (it loops forever on 0), so the ranges taken from
    parameters are checked here, as ``randint`` would have."""
    lo, hi = bounds
    if hi < lo:
        raise ValueError(f"empty range for {name}: {bounds!r}")


class _Layout:
    """Deterministic static code layout for one workload: regions over a
    :class:`_Sites` table, plus the table's columns as numpy arrays for
    the emitter's gather."""

    def __init__(self, params: LayoutParams, seed: int):
        for name in ("block_len", "warm_func_branches",
                     "hot_loop_branches"):
            _check_range(name, getattr(params, name))
        rng = random.Random(seed)
        self.params = params
        self._trip_hi = params.loop_trips_max
        self._cursor = params.text_base
        self.sites = _Sites()
        self.loops: List[_Loop] = []
        self.funcs: List[_Func] = []
        self._build_funcs(rng)
        self._build_loops(rng)
        self._build_cold(rng)
        s = params.loop_zipf_s
        self.loop_weights = [1.0 / (i + 1) ** s
                             for i in range(len(self.loops))]
        self.func_weights = [1.0 / (i + 1) ** 1.2
                             for i in range(len(self.funcs))]
        self.func_cum = list(accumulate(self.func_weights))
        self.site_pcs = np.array(self.sites.pcs, dtype=np.int64)
        self.site_targets = np.array(self.sites.targets, dtype=np.int64)
        self.site_kinds = np.array(self.sites.kinds, dtype=np.uint8)
        self.site_ilens = np.array(self.sites.ilens, dtype=np.int32)

    @property
    def cold(self) -> List[StaticBranch]:
        return self.sites.branches(self.cold_first,
                                   self.cold_first + self.n_cold)

    # -- helpers -------------------------------------------------------
    def _alloc_region(self, n_instructions: int) -> int:
        base = self._cursor
        self._cursor += (n_instructions * INSTRUCTION_BYTES
                         + self.params.region_gap_bytes)
        return base

    def _draw_blocks(self, rng: random.Random, count: int) -> List[int]:
        lo, hi = self.params.block_len
        below = rng._randbelow
        width = hi - lo + 1
        return [lo + below(width) for _ in range(count)]

    def _draw_bias(self, rng: random.Random) -> float:
        if rng.random() < self.params.hard_branch_fraction:
            lo, hi = self.params.cond_bias
        else:
            lo, hi = self.params.easy_bias
        return rng.uniform(lo, hi)

    def _straight_line(self, base: int, blocks: List[int], n: int):
        """pcs and forward-skip targets of ``n`` branches ending the first
        ``n`` blocks of a region at ``base``, and the pc ending block
        ``n``."""
        ends = list(accumulate(blocks[:n + 1]))
        pcs = [base + e * INSTRUCTION_BYTES for e in ends]
        # Each branch skips forward over the next block.
        targets = [pcs[i] + (blocks[i + 1] + 1) * INSTRUCTION_BYTES
                   for i in range(n)]
        return pcs[:n], targets, pcs[n]

    # -- regions -------------------------------------------------------
    def _build_funcs(self, rng: random.Random) -> None:
        lo, hi = self.params.warm_func_branches
        for _ in range(self.params.n_warm_funcs):
            n = lo + rng._randbelow(hi - lo + 1)
            blocks = self._draw_blocks(rng, n + 1)
            base = self._alloc_region(sum(blocks) + 4)
            pcs, targets, ret_pc = self._straight_line(base, blocks, n)
            biases = [self._draw_bias(rng) for _ in range(n)]
            first = self.sites.add(
                pcs + [ret_pc], targets + [0],
                [_COND] * n + [_RETURN],
                biases + [1.0], blocks)
            self.funcs.append(_Func(base=base, first=first, n=n,
                                    biases=biases, sites=self.sites))

    def _build_loops(self, rng: random.Random) -> None:
        lo, hi = self.params.hot_loop_branches
        for loop_idx in range(self.params.n_hot_loops):
            n = lo + rng._randbelow(hi - lo + 1)
            blocks = self._draw_blocks(rng, n + 1)
            base = self._alloc_region(sum(blocks) + 4)
            has_indirect = (rng.random() < self.params.indirect_loop_fraction)
            indirect_pos = rng.randrange(n) if has_indirect and n else -1
            pcs, targets, back_pc = self._straight_line(base, blocks, n)
            kinds = [_COND] * n
            biases = [self._draw_bias(rng)
                      for _ in range(n - (indirect_pos >= 0))]
            site_biases = list(biases)
            if indirect_pos >= 0:
                fanout = max(2, self.params.indirect_fanout)
                pc = pcs[indirect_pos]
                fan = tuple(pc + (j + 2) * 4 * INSTRUCTION_BYTES
                            for j in range(fanout))
                targets[indirect_pos] = fan[0]
                kinds[indirect_pos] = _INDIRECT
                site_biases.insert(indirect_pos, 1.0)
            first = self.sites.add(
                pcs + [back_pc, back_pc], targets + [base, base],
                kinds + [_COND, _CALL],
                site_biases + [0.95, 1.0], blocks + [blocks[n]])
            if indirect_pos >= 0:
                self.sites.fanout[first + indirect_pos] = fan
            self.loops.append(_Loop(
                base=base, first=first, n=n, indirect_pos=indirect_pos,
                biases=biases, call_site=first + n + 1,
                call_return=back_pc + INSTRUCTION_BYTES, sites=self.sites))
        self._assign_trip_counts()

    def _assign_trip_counts(self) -> None:
        """Correlate per-loop trip counts with visit rank.

        The highest-weight loops iterate many times per visit (hot inner
        loops), the tail barely iterates (rarely-executed outer code).  The
        resulting bimodal hit-to-taken distribution is the paper's Fig. 6
        cliff structure.
        """
        n = len(self.loops)
        if n == 0:
            return
        for i, loop in enumerate(self.loops):
            frac = i / max(1, n - 1)
            if frac <= 0.30:
                # Hot tier: deep trip counts, scaled within the tier.
                tier = frac / 0.30 if n > 1 else 0.0
                hi = max(6, round(self._trip_hi - (self._trip_hi - 6) * tier))
                loop.trips = (max(3, hi // 2), hi)
            else:
                # Tail tier: barely iterates — low hit-to-taken by design.
                loop.trips = (1, 2)

    def _build_cold(self, rng: random.Random) -> None:
        """Cold branches form one long chain of taken branches.

        Kinds are mixed (strongly-biased conditionals and unconditional
        jumps) so that branch *type* carries no temperature signal — the
        paper's Fig. 8 finding.
        """
        n = self.params.n_cold_branches
        blocks = self._draw_blocks(rng, n)
        kinds = [_COND if rng.random() < 0.6 else _JUMP for _ in range(n)]
        # One region per branch; each branch jumps to the next region.
        gap = self.params.region_gap_bytes
        bases = list(accumulate(
            ((blk + 1) * INSTRUCTION_BYTES + gap for blk in blocks),
            initial=self._cursor))
        self._cursor = bases.pop()
        pcs = [b + blk * INSTRUCTION_BYTES for b, blk in zip(bases, blocks)]
        self.cold_first = self.sites.add(
            pcs, bases[1:] + bases[:1], kinds, [1.0] * n, blocks)
        self.n_cold = n


# ----------------------------------------------------------------------
# Emission stage
#
# The emitter's control flow is the trace definition: moving, adding or
# dropping an ``rng`` call below changes every trace (the digests in
# tests/test_trace_digests.py pin them).  Records are appended as column
# entries (site index, taken bit, rare target overrides) and straight-line
# runs go in with one ``extend``; only the draws stay per-record Python.
# ``rng.choices`` gets precomputed ``cum_weights``, which draws exactly
# what ``weights=`` would without re-accumulating the weights per call.
# ----------------------------------------------------------------------

def _perturb_mix(mix: MixParams, input_id: int) -> MixParams:
    """Derive the dynamic mixture for a given input configuration.

    Perturbations are modest (±25% on probabilities, shifted trip counts) so
    that most static branches keep their temperature class across inputs —
    the paper reports 81% category stability (Fig. 13).
    """
    if input_id == 0:
        return mix
    rng = random.Random(_stable_seed("mix", input_id))
    scale = rng.uniform(0.75, 1.25)
    return replace(
        mix,
        p_call=min(0.9, mix.p_call * rng.uniform(0.75, 1.25)),
        p_cold_burst=min(0.5, mix.p_cold_burst * scale),
        trip_scale=mix.trip_scale * rng.uniform(0.9, 1.2),
        cold_revisit=min(0.9, mix.cold_revisit * rng.uniform(0.6, 1.4)),
    )


class _Emitter:
    """Walks the layout, appending each dynamic record as column entries.

    A record is a static-site index (into the layout's site table) and a
    taken bit; the few records whose target is not their site's static
    target (indirect dispatch, calls, returns) also log a target
    override.  :meth:`columns` gathers the five trace columns once.
    """

    def __init__(self, lay: _Layout, mix: MixParams, rng: random.Random):
        _check_range("cold_burst_len", mix.cold_burst_len)
        self._lay = lay
        self._mix = mix
        self._rng = rng
        self._cold_cursor = 0
        self._phase_index = 0
        self._last_loop: Optional[int] = None
        self._sites: List[int] = []
        self._taken: List[bool] = []
        self._override_at: List[int] = []
        self._override_target: List[int] = []
        self._limit = 0

    def _full(self) -> bool:
        return len(self._sites) >= self._limit

    def _override(self, target: int) -> None:
        """The next record's target is ``target``, not the static one."""
        self._override_at.append(len(self._sites))
        self._override_target.append(target)

    # -- structure ------------------------------------------------------
    def _active_loops(self) -> Tuple[List[int], List[float]]:
        """Indices of the loops active in the current phase, with the
        cumulative visit weights ``rng.choices`` takes.

        The top-weight core loops are always active; the remainder of the
        active set is a window over the other loops that rotates each phase.
        """
        weights = self._lay.loop_weights
        n = len(weights)
        core = min(self._mix.core_loops, n)
        k = min(self._mix.active_loops, n - core)
        chosen = list(range(core))
        if k > 0 and n > core:
            span = n - core
            start = (self._phase_index * max(1, k // 2)) % span
            chosen.extend(core + (start + i) % span for i in range(k))
        return chosen, list(accumulate(weights[i] for i in chosen))

    def _emit_body(self, first: int, biases: Sequence[float],
                   indirect_pos: int, indirect_target: int, n: int) -> int:
        """Emit up to ``n`` straight-line sites from ``first`` on, stopping
        when the trace is full; returns how many were emitted.

        Conditional sites draw their taken bit in order; the indirect site
        at ``indirect_pos`` (if any) is taken to ``indirect_target``
        without a draw.
        """
        sites = self._sites
        m = min(n, self._limit - len(sites))
        rand = self._rng.random
        if 0 <= indirect_pos < m:
            drawn = [rand() < b for b in biases[:m - 1]]
            drawn.insert(indirect_pos, True)
            self._override_at.append(len(sites) + indirect_pos)
            self._override_target.append(indirect_target)
        elif m == n:
            drawn = [rand() < b for b in biases]
        else:
            drawn = [rand() < b for b in biases[:m]]
        sites.extend(range(first, first + m))
        self._taken.extend(drawn)
        return m

    def _emit_warm_call(self, loop: _Loop) -> None:
        lay = self._lay
        func = self._rng.choices(lay.funcs, cum_weights=lay.func_cum)[0]
        # The call itself: the loop's backedge pc as a direct call.
        self._override(func.base)
        self._sites.append(loop.call_site)
        self._taken.append(True)
        n = func.n
        if self._emit_body(func.first, func.biases, -1, 0, n) < n:
            return
        if not self._full():
            self._override(loop.call_return)
            self._sites.append(func.first + n)
            self._taken.append(True)

    def _emit_cold_burst(self) -> None:
        lo, hi = self._mix.cold_burst_len
        burst = lo + self._rng._randbelow(hi - lo + 1)
        n_cold = self._lay.n_cold
        if not n_cold:
            return
        if self._rng.random() < self._mix.cold_revisit:
            # Replay a recent stretch rather than advancing.
            back = burst + self._rng._randbelow(3 * burst + 1)
            start = (self._cold_cursor - back) % n_cold
        else:
            start = self._cold_cursor
            self._cold_cursor = (self._cold_cursor + burst) % n_cold
        m = min(burst, self._limit - len(self._sites))
        self._taken.extend([True] * m)
        first = self._lay.cold_first
        while m > 0:
            run = min(m, n_cold - start)
            self._sites.extend(range(first + start, first + start + run))
            m -= run
            start = 0

    def _emit_loop_visit(self, loop: _Loop) -> None:
        lo, hi = loop.trips
        iters = max(1, round((lo + self._rng._randbelow(hi - lo + 1))
                             * self._mix.trip_scale))
        # Indirect dispatch targets are sticky for the duration of a visit
        # (batches of same-typed work), which is what makes real indirect
        # branches predictable by a history-based IBTB.
        pos = loop.indirect_pos
        target = (self._rng.choice(self._lay.sites.fanout[loop.first + pos])
                  if pos >= 0 else 0)
        rand = self._rng.random
        p_call = self._mix.p_call
        p_cold_burst = self._mix.p_cold_burst
        n = loop.n
        backedge = loop.first + n
        for it in range(iters):
            if self._emit_body(loop.first, loop.biases, pos, target, n) < n:
                return
            if self._full():
                return
            self._sites.append(backedge)
            self._taken.append(it != iters - 1)
            if self._full():
                return
            if rand() < p_call:
                self._emit_warm_call(loop)
                if self._full():
                    return
            if rand() < p_cold_burst:
                self._emit_cold_burst()
                if self._full():
                    return

    # -- driver ----------------------------------------------------------
    def emit(self, length: int) -> None:
        self._limit = length
        if length == 0:
            return
        loops = self._lay.loops
        phase_len = max(1, self._mix.phase_len)
        while not self._full():
            phase_end = len(self._sites) + phase_len
            active, cum_weights = self._active_loops()
            if not active:
                # Degenerate layout with no hot loops: emit the cold chain.
                if not self._lay.n_cold:
                    raise ValueError(
                        "workload layout has neither hot loops nor cold "
                        "branches; nothing to emit")
                self._emit_cold_burst()
                continue
            is_active = set(active)
            while len(self._sites) < phase_end and not self._full():
                if (self._last_loop is not None
                        and self._last_loop in is_active
                        and self._rng.random() < self._mix.p_revisit_loop):
                    i = self._last_loop
                else:
                    i = self._rng.choices(active, cum_weights=cum_weights)[0]
                self._last_loop = i
                self._emit_loop_visit(loops[i])
            self._phase_index += 1

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The five trace columns: pcs, targets, kinds, taken, ilens."""
        lay = self._lay
        sites = np.array(self._sites, dtype=np.intp)
        targets = lay.site_targets[sites]
        targets[self._override_at] = self._override_target
        return (lay.site_pcs[sites], targets, lay.site_kinds[sites],
                np.array(self._taken, dtype=np.bool_),
                lay.site_ilens[sites])


# ----------------------------------------------------------------------

def _stable_seed(*parts) -> int:
    """A deterministic seed derived from arbitrary parts (no hash()
    randomization)."""
    acc = 0xCBF29CE484222325
    for part in parts:
        for byte in str(part).encode("utf-8"):
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        acc ^= 0xFF
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc
