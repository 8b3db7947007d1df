"""Run-head replay: the kernels that skip each run's tail stay exact.

Within a set's sub-stream, a run is a maximal stretch of one pc
(:class:`~repro.trace.stream.SetPartition`).  Every kernel skips the
work a run tail cannot change and credits the tails in bulk.  Eleven
iterate run heads only (in stream order for DIP, random, BRRIP and the
dueling Thermometer); SHiP adds each run's first tail; Hawkeye adds the
accesses of sampled sets and the run ends of the rest; GHRP and the
online Thermometer walk every access but give a tail a short step.
The edge rules: a bypassed Thermometer head bypasses its whole run, OPT
never bypasses a head that has a tail, and in GHRP and the dueling and
online Thermometers a bypassed head leaves its run *open*, so its tails
step as misses again.  Kernels that stamp recency store stream
positions and convert them to clock values at the end.

The property below builds streams made of long runs with changing
targets, optionally interleaved access by access, on geometries small
enough that sets fill, thrash and bypass, and compares every kernel with
the reference per-access loop: stats, per-access hits, OPT outcome
codes, BTB storage, policy state and generator state.
"""

from __future__ import annotations

import dataclasses

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import runtime
from repro.btb import kernels
from repro.btb.btb import BTB
from repro.btb.config import BTBConfig
from repro.btb.replacement.dip import DIPPolicy
from repro.btb.replacement.dueling_thermometer import \
    DuelingThermometerPolicy
from repro.btb.replacement.fifo import FIFOPolicy, RandomPolicy
from repro.btb.replacement.ghrp import GHRPPolicy
from repro.btb.replacement.hawkeye import HawkeyePolicy
from repro.btb.replacement.lru import LRUPolicy, MRUPolicy
from repro.btb.replacement.online_thermometer import \
    OnlineThermometerPolicy
from repro.btb.replacement.opt import BeladyOptimalPolicy
from repro.btb.replacement.plru import TreePLRUPolicy
from repro.btb.replacement.ship import SHiPPolicy
from repro.btb.replacement.srrip import BRRIPPolicy, SRRIPPolicy
from repro.btb.replacement.thermometer import ThermometerPolicy
from repro.core.hints import HintMap
from repro.trace.record import BranchKind, BranchRecord, BranchTrace
from repro.trace.stream import AccessStream
from tests.test_fast_kernels import _policy_state

#: Tiny geometries: 4 sets x 2 ways, 2 x 4, 1 x 4 and 8 x 2.
CONFIGS = (BTBConfig(entries=8, ways=2), BTBConfig(entries=8, ways=4),
           BTBConfig(entries=4, ways=4), BTBConfig(entries=16, ways=2))

#: Distinct pcs of the random part of a stream; pcs 16 and up share
#: SHiP, Hawkeye and online-Thermometer table slots with pcs of other
#: sets, so global state read between a head and its tail matters.
NUM_PCS = 24

#: Every kernel policy: each one skips what a run tail cannot change.
RUN_HEAD_POLICIES = ("lru", "mru", "fifo", "srrip", "plru", "opt",
                     "thermometer", "dip", "random", "brrip", "ship",
                     "ghrp", "hawkeye", "thermometer-dueling",
                     "thermometer-online")


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


def _stream(config: BTBConfig, runs, interleave: bool = False
            ) -> AccessStream:
    """The forced-bypass prefix, then each ``(pc index, length,
    targets)`` run, cycling through its targets.  With ``interleave``,
    each pair of consecutive runs is merged access by access, so other
    sets' accesses fall between a run's head and its tail."""
    accesses = _forced_bypass(config)[0]
    spans = [[(_pc(k), targets[i % len(targets)]) for i in range(length)]
             for k, length, targets in runs]
    if interleave:
        merged = []
        for a, b in zip(spans[::2], spans[1::2] + [[]]):
            for i in range(max(len(a), len(b))):
                merged += a[i:i + 1] + b[i:i + 1]
        spans = [merged]
    for span in spans:
        accesses += span
    records = [BranchRecord(pc=pc, target=0x8000 + 4 * t,
                            kind=BranchKind.UNCOND_DIRECT, taken=True,
                            ilen=4)
               for pc, t in accesses]
    return AccessStream(BranchTrace.from_records(records, name="runs"),
                        config)


def _warm_ghrp(policy: GHRPPolicy, rng: random.Random) -> None:
    """A nonzero history, counter tables, signatures, dead bits and
    stamps, as a policy left by an earlier replay."""
    policy._history = rng.randrange(1 << 16)
    for table in policy._tables:
        table[:] = [rng.randint(0, policy.counter_max) for _ in table]
    for row in policy._signature:
        row[:] = [rng.randrange(1, 1 << 26) for _ in row]
    for row in policy._dead:
        row[:] = [rng.random() < 0.5 for _ in row]
    for row in policy._stamps:
        row[:] = [rng.randrange(1, 100) for _ in row]
    policy._clock = rng.randrange(100, 200)


def _warm_online(policy: OnlineThermometerPolicy,
                 rng: random.Random) -> None:
    """Nonzero taken/hit counters, stamps and clock."""
    for slot in range(len(policy._taken)):
        taken = rng.randint(0, policy.counter_max)
        policy._taken[slot] = taken
        policy._hits[slot] = rng.randint(0, taken)
    for row in policy._stamps:
        row[:] = [rng.randrange(1, 100) for _ in row]
    policy._clock = rng.randrange(100, 200)


def _btb(name: str, config: BTBConfig, stream: AccessStream, hints,
         knobs) -> BTB:
    """A pristine BTB under the policy ``name`` with test-sized tables
    (and, for GHRP and the online Thermometer, a warmed start state on
    odd seeds)."""
    btb = BTB(config, _policy(name, stream, hints, knobs))
    seed = knobs[1]
    if seed % 2:
        if name == "ghrp":
            _warm_ghrp(btb.policy, random.Random(seed))
        elif name == "thermometer-online":
            _warm_online(btb.policy, random.Random(seed))
    return btb


def _policy(name: str, stream: AccessStream, hints, knobs):
    bypass, seed = knobs
    if name == "ghrp":
        # Small aliasing tables; 1-4 of them so both the written-out
        # three-table detrain and the generic one run.
        return GHRPPolicy(table_bits=4, num_tables=3 if seed % 3 else
                          1 + seed % 4, dead_threshold=6,
                          bypass_enabled=bypass)
    if name == "hawkeye":
        # Every other set sampled: both kinds exist on every geometry
        # with more than one set.
        return HawkeyePolicy(predictor_bits=4, sample_every=2)
    if name == "ship":
        return SHiPPolicy(table_bits=4, counter_max=2)
    if name == "thermometer-dueling":
        # Leaders at sets 0 (Thermometer) and 2 (LRU), followers
        # between, and a 2-bit PSEL that swings often.
        policy = DuelingThermometerPolicy(
            HintMap(hints, num_categories=3, default_category=1),
            default_category=1, bypass_enabled=bypass, leader_spacing=4,
            psel_bits=2)
        policy.tiebreak = "static" if seed % 2 else "lru"
        return policy
    if name == "thermometer-online":
        return OnlineThermometerPolicy(table_bits=4, counter_max=7,
                                       warm_floor=1 + seed % 3,
                                       bypass_enabled=bypass)
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
    """Under the reference outcome codes: the lengths of the runs
    bypassed whole, whether any head with a tail was bypassed, and
    whether a later tail of such a run was filled."""
    part = stream.partition()
    lengths = part.lengths.tolist()
    whole, head_with_tail, refilled = [], False, False
    repeats = iter(part.repeats.tolist())
    for head, length in zip(part.heads, lengths):
        tail = [next(repeats) for _ in range(length - 1)]
        if outcomes[head] == kernels.OUTCOME_BYPASS:
            head_with_tail |= length > 1
            refilled |= any(outcomes[p] == kernels.OUTCOME_INSERT
                            for p in tail)
            if all(outcomes[p] == kernels.OUTCOME_BYPASS for p in tail):
                whole.append(length)
    return whole, head_with_tail, refilled


def _check(name: str, config: BTBConfig, runs, interleave: bool, hints,
           knobs):
    """Replay one stream through the kernel and the reference loop,
    assert they agree, and return the stream, the reference BTB and its
    outcome codes."""
    stream = _stream(config, runs, interleave)
    reference = _btb(name, config, stream, hints, knobs)
    ref_hits, ref_outcomes = _reference(stream, reference)

    fast = _btb(name, config, stream, hints, knobs)
    hits_out = bytearray(len(stream))
    with runtime.override(fast_replay=True):
        assert kernels.try_fast_replay(stream, fast,
                                       hits_out=hits_out) is not None, name
    assert _storage(fast) == _storage(reference), name
    assert _policy_state(fast.policy) == \
        _policy_state(reference.policy), name
    assert hits_out == ref_hits, name
    return stream, reference, ref_outcomes


runs = st.lists(st.tuples(st.integers(0, NUM_PCS - 1), st.integers(1, 7),
                          st.lists(st.integers(0, 3), min_size=1,
                                   max_size=3)),
                min_size=0, max_size=40)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=st.sampled_from(CONFIGS), runs=runs,
       temperatures=st.lists(st.integers(0, 2), min_size=NUM_PCS,
                             max_size=NUM_PCS),
       interleave=st.booleans(), bypass=st.booleans(),
       seed=st.integers(0, 2**16))
def test_run_head_kernels_match_the_reference_loop(config, runs,
                                                   temperatures,
                                                   interleave, bypass,
                                                   seed):
    hints = _forced_bypass(config)[1]
    hints.update({_pc(k): c for k, c in enumerate(temperatures)})
    knobs = (bypass, seed)
    for name in RUN_HEAD_POLICIES:
        stream, reference, ref_outcomes = _check(name, config, runs,
                                                 interleave, hints, knobs)
        whole, head_with_tail, _ = _bypassed_runs(stream, ref_outcomes)
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


def test_every_kernel_is_covered():
    assert sorted(RUN_HEAD_POLICIES) == kernels.kernel_policy_names()


@pytest.mark.parametrize("name", ("ghrp", "thermometer-online"))
def test_open_runs_whose_tail_fills_match_the_reference(name):
    """Seeded streams until the reference bypasses a head with a tail
    and then fills one of that run's tails; the kernel must agree on
    every stream along the way."""
    rng = random.Random(20261019)
    for _ in range(400):
        config = rng.choice(CONFIGS)
        runs = [(rng.randrange(NUM_PCS), rng.randint(1, 7),
                 [rng.randrange(4) for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(10, 40))]
        hints = _forced_bypass(config)[1]
        hints.update({_pc(k): rng.randrange(3) for k in range(NUM_PCS)})
        stream, _, outcomes = _check(name, config, runs, True, hints,
                                     (True, rng.randrange(2**16)))
        if _bypassed_runs(stream, outcomes)[2]:
            return
    pytest.fail(f"no {name} run was reopened")


@pytest.mark.parametrize("seed", (0, 1))
def test_dueling_follower_reopens_a_bypassed_run(seed):
    """A follower set bypasses a cold head while PSEL favours hints; two
    Thermometer-leader misses then flip PSEL, so the run's tail takes
    the LRU path and fills.  Sets: 0 Thermometer leader, 2 LRU leader,
    1 and 3 followers."""
    config = CONFIGS[0]
    runs = [(2, 1, [0]), (6, 1, [0]), (10, 1, [0]),  # PSEL down to 0
            (1, 1, [0]), (5, 1, [0]),                # hot follower fills
            (9, 1, [0]),                             # cold head: bypass
            (4, 1, [0]), (8, 1, [0]),                # PSEL up to 2
            (9, 2, [1])]                             # the tail fills
    hints = _forced_bypass(config)[1]
    hints.update({_pc(k): 1 for k in range(NUM_PCS)})
    hints.update({_pc(1): 2, _pc(5): 2, _pc(9): 0})
    stream, _, outcomes = _check("thermometer-dueling", config, runs, False,
                                 hints, (True, seed))
    assert _bypassed_runs(stream, outcomes)[2]


def test_ship_bumps_its_counter_at_the_first_reuse():
    """SHiP's signature counter moves at a run's first tail, not at its
    head: an aliasing fill in another set between the two reads the
    counter before the bump.  Sets 2 and 3 of 4; pcs 18 and 3 share a
    16-entry SHCT slot that no other pc here uses."""
    config = CONFIGS[0]
    runs = [(18, 1, [0]), (22, 1, [0]),  # fill set 2
            (10, 1, [0]), (1, 1, [0]),   # evict pc 18 unreused: slot -> 0
            (18, 2, [0]), (3, 1, [0])]   # head of 18, fill 3, tail of 18
    stream, reference, _ = _check("ship", config, runs, True, {},
                                  (True, 0))
    assert stream.pcs_list[-3:] == (_pc(18), _pc(3), _pc(18))
    # pc 3's fill saw the slot still at 0: distant insertion.
    way = reference._dir[3][_pc(3)]
    assert reference.policy._rrpv[3][way] == reference.policy.rrpv_max
