"""Property-based tests (hypothesis) on core data structures and
invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.btb.btb import BTB
from repro.btb.config import BTBConfig
from repro.btb.replacement.fifo import FIFOPolicy, RandomPolicy
from repro.btb.replacement.lru import LRUPolicy
from repro.btb.replacement.opt import NEVER, BeladyOptimalPolicy, \
    compute_next_use
from repro.btb.replacement.srrip import SRRIPPolicy
from repro.btb.replacement.thermometer import ThermometerPolicy
from repro.core.hints import ThresholdQuantizer, UniformQuantizer
from repro.core.temperature import TemperatureProfile
from repro.analysis.reuse import holistic_variance, transient_variance
from repro.trace.formats import read_trace, write_trace
from repro.trace.record import BranchKind, BranchRecord, BranchTrace

# -- strategies ---------------------------------------------------------

pc_streams = st.lists(st.integers(min_value=0, max_value=15),
                      min_size=1, max_size=80)

records = st.builds(
    BranchRecord,
    pc=st.integers(min_value=0, max_value=2**40).map(lambda x: x * 4),
    target=st.integers(min_value=0, max_value=2**40).map(lambda x: x * 4),
    kind=st.sampled_from(list(BranchKind)),
    taken=st.booleans(),
    ilen=st.integers(min_value=1, max_value=30),
).map(lambda r: r._replace(taken=True)
      if r.kind != BranchKind.COND_DIRECT else r)


# -- next-use -----------------------------------------------------------

@given(pc_streams)
def test_next_use_matches_naive(pcs):
    nxt = compute_next_use(pcs)
    for i, pc in enumerate(pcs):
        expected = NEVER
        for j in range(i + 1, len(pcs)):
            if pcs[j] == pc:
                expected = j
                break
        assert nxt[i] == expected


# -- OPT dominance ------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(pc_streams, st.integers(min_value=1, max_value=3))
def test_opt_dominates_every_practical_policy(pcs, ways):
    """Belady-with-bypass never has fewer hits than any on-line policy."""
    config = BTBConfig(entries=2 * ways, ways=ways)
    addresses = [pc * 4 for pc in pcs]

    def run(policy):
        btb = BTB(config, policy)
        return sum(btb.access(pc, 0, i) for i, pc in enumerate(addresses))

    opt_hits = run(BeladyOptimalPolicy.from_stream(addresses))
    for policy in (LRUPolicy(), FIFOPolicy(), SRRIPPolicy(),
                   RandomPolicy(seed=1),
                   ThermometerPolicy({}, default_category=0)):
        assert opt_hits >= run(policy)


# -- LRU stack property -------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(pc_streams, st.integers(min_value=1, max_value=4))
def test_lru_hit_iff_stack_distance_within_ways(pcs, ways):
    """LRU hits exactly when the set-local stack distance < ways."""
    config = BTBConfig(entries=ways, ways=ways)   # one set
    btb = BTB(config, LRUPolicy())
    stack = []
    for i, pc in enumerate(pcs):
        address = pc * 4
        if address in stack:
            depth = stack.index(address)
            expected = depth < ways
            stack.remove(address)
        else:
            expected = False
        stack.insert(0, address)
        assert btb.access(address, 0, i) == expected


# -- BTB structural invariants -----------------------------------------

@settings(max_examples=30, deadline=None)
@given(pc_streams)
def test_btb_invariants(pcs):
    config = BTBConfig(entries=8, ways=2)
    btb = BTB(config, LRUPolicy())
    for i, pc in enumerate(pcs):
        btb.access(pc * 4, 0, i)
    stats = btb.stats
    assert stats.hits + stats.misses == stats.accesses == len(pcs)
    resident = btb.resident_pcs()
    assert len(resident) == len(set(resident))       # no duplicate tags
    assert btb.occupancy <= config.capacity
    assert stats.compulsory_fills + stats.evictions + stats.bypasses == \
        stats.misses


# -- trace round trip ---------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.lists(records, min_size=0, max_size=40),
       st.sampled_from([".btrc", ".btrc.gz", ".btxt"]))
def test_trace_roundtrip_property(tmp_path_factory, recs, suffix):
    trace = BranchTrace.from_records(recs, name="prop")
    trace.validate()
    path = tmp_path_factory.mktemp("traces") / f"t{suffix}"
    write_trace(trace, path)
    assert read_trace(path) == trace


# -- quantizers ---------------------------------------------------------

percentages = st.dictionaries(
    st.integers(min_value=1, max_value=10_000).map(lambda x: x * 4),
    st.floats(min_value=0.0, max_value=100.0),
    min_size=1, max_size=60)


@given(percentages)
def test_threshold_quantizer_monotone(pcts):
    quantizer = ThresholdQuantizer((30.0, 70.0))
    hints = quantizer.quantize(TemperatureProfile("p", pcts))
    items = sorted(pcts.items(), key=lambda kv: kv[1])
    categories = [hints[pc] for pc, _ in items]
    assert categories == sorted(categories)
    assert all(0 <= c < 3 for c in categories)


@given(percentages, st.integers(min_value=2, max_value=8))
def test_uniform_quantizer_in_bounds_and_monotone(pcts, k):
    hints = UniformQuantizer(k).quantize(TemperatureProfile("p", pcts))
    assert all(0 <= c < k for c in hints.categories.values())
    items = sorted(pcts.items(), key=lambda kv: kv[1])
    categories = [hints[pc] for pc, _ in items]
    assert categories == sorted(categories)


# -- variance formulas --------------------------------------------------

distances = st.lists(st.floats(min_value=0.0, max_value=1000.0),
                     min_size=3, max_size=50)


@given(distances)
def test_holistic_variance_matches_numpy(values):
    np.testing.assert_allclose(holistic_variance(values),
                               np.var(values, ddof=1), rtol=1e-9,
                               atol=1e-9)


@given(distances)
def test_transient_variance_nonnegative(values):
    assert transient_variance(values) >= 0.0


# -- set index ----------------------------------------------------------

@given(st.integers(min_value=0, max_value=2**48),
       st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=16))
def test_set_index_in_range(pc, sets_factor, ways):
    config = BTBConfig(entries=sets_factor * ways, ways=ways)
    assert 0 <= config.set_index(pc * 4) < config.num_sets


# -- PLRU properties ------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(pc_streams, st.sampled_from([2, 4, 8]))
def test_plru_never_evicts_most_recently_touched(pcs, ways):
    from repro.btb.replacement.plru import TreePLRUPolicy
    config = BTBConfig(entries=ways, ways=ways)
    policy = TreePLRUPolicy()
    btb = BTB(config, policy)
    last_touched = None
    for i, pc in enumerate(pcs):
        address = pc * 4
        resident_before = set(btb.resident_pcs())
        full = len(resident_before) == ways
        btb.access(address, 0, i)
        if full and address not in resident_before and last_touched \
                and last_touched != address:
            # An eviction happened; the most recently touched entry must
            # survive it.
            assert last_touched in btb.resident_pcs()
        last_touched = address


# -- temperature/bypass bookkeeping ---------------------------------------

@settings(max_examples=25, deadline=None)
@given(pc_streams)
def test_profiler_counts_reconcile(pcs):
    from repro.core.profiler import profile_trace
    from tests.helpers import trace_of_pcs
    trace = trace_of_pcs([pc * 4 for pc in pcs])
    config = BTBConfig(entries=4, ways=2)
    profile = profile_trace(trace, config)
    total_taken = sum(b.taken for b in profile.branches.values())
    total_hits = sum(b.hits for b in profile.branches.values())
    total_misses = sum(b.inserts + b.bypasses
                       for b in profile.branches.values())
    assert total_taken == len(pcs)
    assert total_hits == profile.stats.hits
    assert total_misses == profile.stats.misses
    for branch in profile.branches.values():
        assert 0.0 <= branch.hit_to_taken <= 100.0
