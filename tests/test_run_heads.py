"""Run-head replay: the kernels that skip each run's tail stay exact.

Within a set's sub-stream, a run is a maximal stretch of one pc
(:class:`~repro.trace.stream.SetPartition`).  Ten kernels iterate run
heads only and credit each tail in bulk, relying on two edge rules: a
bypassed Thermometer head bypasses its whole run, and OPT never bypasses
a head that has a tail.  The property below builds streams made of long
runs with changing targets, on geometries small enough that sets fill,
thrash and bypass, and compares every run-head kernel with the reference
per-access loop: stats, per-access hits, OPT outcome codes, BTB storage,
policy state and generator state.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import runtime
from repro.btb import kernels
from repro.btb.btb import BTB
from repro.btb.config import BTBConfig
from repro.btb.replacement.dip import DIPPolicy
from repro.btb.replacement.fifo import FIFOPolicy, RandomPolicy
from repro.btb.replacement.lru import LRUPolicy, MRUPolicy
from repro.btb.replacement.opt import BeladyOptimalPolicy
from repro.btb.replacement.plru import TreePLRUPolicy
from repro.btb.replacement.srrip import BRRIPPolicy, SRRIPPolicy
from repro.btb.replacement.thermometer import ThermometerPolicy
from repro.core.hints import HintMap
from repro.trace.record import BranchKind, BranchRecord, BranchTrace
from repro.trace.stream import AccessStream
from tests.test_fast_kernels import _policy_state

#: Tiny geometries: 4 sets x 2 ways, 2 x 4, 1 x 4 and 8 x 2.
CONFIGS = (BTBConfig(entries=8, ways=2), BTBConfig(entries=8, ways=4),
           BTBConfig(entries=4, ways=4), BTBConfig(entries=16, ways=2))

#: Distinct pcs of the random part of a stream.
NUM_PCS = 12

#: The kernels that iterate run heads.
RUN_HEAD_POLICIES = ("lru", "mru", "fifo", "srrip", "plru", "opt",
                     "thermometer", "dip", "random", "brrip")


def _pc(k: int) -> int:
    """The ``k``-th branch pc; it maps to set ``k % num_sets``."""
    return 0x1000 + 4 * k


def _forced_bypass(config: BTBConfig):
    """A prefix that fills set 0 with hot branches and then runs a cold
    one three times, plus the hints that make it the unique coldest."""
    nsets, ways = config.num_sets, config.ways
    hot = [_pc((NUM_PCS + j) * nsets) for j in range(ways)]
    cold = _pc((NUM_PCS + ways) * nsets)
    accesses = [(pc, 0) for pc in hot] + [(cold, 1), (cold, 2), (cold, 2)]
    hints = dict.fromkeys(hot, 2)
    hints[cold] = 0
    return accesses, hints


def _stream(config: BTBConfig, runs) -> AccessStream:
    """The forced-bypass prefix, then each ``(pc index, length,
    targets)`` run, cycling through its targets."""
    accesses = _forced_bypass(config)[0]
    for k, length, targets in runs:
        accesses += [(_pc(k), targets[i % len(targets)])
                     for i in range(length)]
    records = [BranchRecord(pc=pc, target=0x8000 + 4 * t,
                            kind=BranchKind.UNCOND_DIRECT, taken=True,
                            ilen=4)
               for pc, t in accesses]
    return AccessStream(BranchTrace.from_records(records, name="runs"),
                        config)


def _policy(name: str, stream: AccessStream, hints, knobs):
    bypass, seed = knobs
    if name == "opt":
        return BeladyOptimalPolicy.from_access_stream(stream,
                                                      bypass_enabled=bypass)
    if name == "thermometer":
        return ThermometerPolicy(HintMap(hints, num_categories=3,
                                         default_category=1),
                                 default_category=1, bypass_enabled=bypass,
                                 tiebreak="static" if seed % 2 else "lru")
    if name == "dip":
        # Leaders at sets 0 and 2, followers between; a 2-bit PSEL and a
        # 1-in-2 BIP period so both insertion modes and swings occur.
        return DIPPolicy(leader_spacing=4, psel_bits=2,
                         bip_mru_probability=0.5)
    if name == "random":
        return RandomPolicy(seed=seed)
    if name == "brrip":
        return BRRIPPolicy(long_probability=0.5, seed=seed)
    return {"lru": LRUPolicy, "mru": MRUPolicy, "fifo": FIFOPolicy,
            "srrip": SRRIPPolicy, "plru": TreePLRUPolicy}[name]()


def _storage(btb: BTB) -> dict:
    return {"stats": dataclasses.asdict(btb.stats), "tags": btb._tags,
            "targets": btb._targets, "reused": btb._reused,
            "fill_index": btb._fill_index, "dir": btb._dir}


def _reference(stream: AccessStream, btb: BTB):
    """Per-access hits and OPT outcome codes from the reference loop."""
    hits = bytearray(len(stream))
    outcomes = bytearray(len(stream))
    stats = btb.stats
    for i, (s, pc, target) in enumerate(zip(stream.sets_list,
                                            stream.pcs_list,
                                            stream.targets_list)):
        bypasses = stats.bypasses
        if btb._access_with_set(s, pc, target, i):
            hits[i] = 1
            outcomes[i] = kernels.OUTCOME_HIT
        elif stats.bypasses > bypasses:
            outcomes[i] = kernels.OUTCOME_BYPASS
        else:
            outcomes[i] = kernels.OUTCOME_INSERT
    return hits, outcomes


def _bypassed_runs(stream: AccessStream, outcomes: bytearray):
    """(bypassed run lengths, whether any head with a tail was bypassed)
    under the reference outcome codes."""
    part = stream.partition()
    lengths = part.lengths.tolist()
    whole, head_with_tail = [], False
    repeats = iter(part.repeats.tolist())
    for head, length in zip(part.heads, lengths):
        tail = [next(repeats) for _ in range(length - 1)]
        if outcomes[head] == kernels.OUTCOME_BYPASS:
            head_with_tail |= length > 1
            if all(outcomes[p] == kernels.OUTCOME_BYPASS for p in tail):
                whole.append(length)
    return whole, head_with_tail


runs = st.lists(st.tuples(st.integers(0, NUM_PCS - 1), st.integers(1, 7),
                          st.lists(st.integers(0, 3), min_size=1,
                                   max_size=3)),
                min_size=0, max_size=40)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=st.sampled_from(CONFIGS), runs=runs,
       temperatures=st.lists(st.integers(0, 2), min_size=NUM_PCS,
                             max_size=NUM_PCS),
       bypass=st.booleans(), seed=st.integers(0, 2**16))
def test_run_head_kernels_match_the_reference_loop(config, runs,
                                                   temperatures, bypass,
                                                   seed):
    hints = _forced_bypass(config)[1]
    hints.update({_pc(k): c for k, c in enumerate(temperatures)})
    knobs = (bypass, seed)
    for name in RUN_HEAD_POLICIES:
        stream = _stream(config, runs)
        reference = BTB(config, _policy(name, stream, hints, knobs))
        ref_hits, ref_outcomes = _reference(stream, reference)

        fast = BTB(config, _policy(name, stream, hints, knobs))
        hits_out = bytearray(len(stream))
        with runtime.override(fast_replay=True):
            assert kernels.try_fast_replay(stream, fast,
                                           hits_out=hits_out) \
                is not None, name
        assert _storage(fast) == _storage(reference), name
        assert _policy_state(fast.policy) == \
            _policy_state(reference.policy), name
        assert hits_out == ref_hits, name

        whole, head_with_tail = _bypassed_runs(stream, ref_outcomes)
        if name == "opt":
            assert not head_with_tail
            profiled = BTB(config, _policy(name, stream, hints, knobs))
            with runtime.override(fast_replay=True):
                outcomes = kernels.try_fast_opt_profile(stream, profiled)
            assert outcomes == ref_outcomes
            assert _storage(profiled) == _storage(reference)
            assert _policy_state(profiled.policy) == \
                _policy_state(reference.policy)
        if name == "thermometer" and bypass:
            # The forced prefix's cold run of three is bypassed whole.
            assert any(length >= 2 for length in whole)
            assert reference.policy.covered_decisions > 0
