"""Set-partitioned fast-path kernels: dispatch and equivalence.

The kernels in :mod:`repro.btb.kernels` must be *invisible*: whenever
``replay_stream`` takes the fast path, the resulting stats, BTB storage,
per-set directory, and policy-internal state must be bit-identical to
the reference per-access loop — and anything the kernels cannot model
exactly (observers, subclassed policies, a pre-touched BTB) must force
the slow path.  The property tests drive randomized streams through
every kernel policy on both paths and diff everything that is reachable
afterwards.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import runtime
from repro.btb import kernels
from repro.btb.btb import BTB, run_btb
from repro.btb.config import BTBConfig
from repro.btb.observer import EventRecorder
from repro.btb.replacement.ghrp import GHRPPolicy
from repro.btb.replacement.lru import LRUPolicy
from repro.btb.replacement.registry import make_policy, policy_names
from repro.btb.replacement.srrip import SRRIPPolicy
from repro.core.hints import HintMap
from repro.trace.record import BranchKind, BranchRecord, BranchTrace
from repro.trace.stream import access_stream_for, clear_stream_cache
from repro.workloads import make_app_trace

#: Tiny geometry so short randomized streams still overflow sets and
#: exercise eviction / bypass decisions.
CONFIG = BTBConfig(entries=8, ways=2)

#: Attributes that, together, capture every kernel policy's mutable
#: state (missing attributes are simply skipped per policy).
_POLICY_ATTRS = ("_stamps", "_clock", "_rrpv", "_temps", "_resident_next",
                 "_last_index", "covered_decisions", "uncovered_decisions",
                 # PLRU / DIP / dueling Thermometer
                 "_bits", "_psel", "_bip_counter", "_role",
                 # SHiP / GHRP
                 "_shct", "_signature", "_outcome", "_dead", "_tables",
                 "_history",
                 # Hawkeye / online Thermometer
                 "_counters", "_friendly", "_taken", "_hits")


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_stream_cache()
    yield
    clear_stream_cache()


def _trace_of(pairs) -> BranchTrace:
    """Always-taken branches over a small pc/target alphabet."""
    records = [BranchRecord(pc=0x1000 + pc * 4, target=0x4000 + t * 4,
                            kind=BranchKind.UNCOND_DIRECT, taken=True,
                            ilen=4)
               for pc, t in pairs]
    return BranchTrace.from_records(records, name="prop")


def _policy(name: str, stream):
    if name == "opt":
        return make_policy("opt", stream=stream)
    if name in ("thermometer", "thermometer-dueling"):
        pcs = set(int(pc) for pc in stream.pcs)
        hints = HintMap({pc: (pc >> 2) % 3 for pc in pcs},
                        num_categories=3)
        return make_policy(name, hints=hints)
    return make_policy(name)


def _policy_state(policy) -> dict:
    state = {a: copy.deepcopy(getattr(policy, a))
             for a in _POLICY_ATTRS if hasattr(policy, a)}
    # Hawkeye's OPTgen objects compare by identity; snapshot their
    # observable state instead.
    gens = getattr(policy, "_optgen", None)
    if gens is not None:
        state["_optgen"] = {s: (g.time, dict(g.last_time), list(g._occ))
                            for s, g in gens.items()}
    # random / BRRIP: the generator must end where the reference draws
    # left it.
    rng = getattr(policy, "_rng", None)
    if rng is not None:
        state["_rng"] = rng.getstate()
    return state


def _btb_state(btb: BTB) -> dict:
    return {
        "stats": dataclasses.asdict(btb.stats),
        "tags": btb._tags,
        "targets": btb._targets,
        "reused": btb._reused,
        "fill_index": btb._fill_index,
        "dir": btb._dir,
    }


def _replay(trace: BranchTrace, name: str, fast: bool) -> BTB:
    stream = access_stream_for(trace, CONFIG)
    btb = BTB(CONFIG, _policy(name, stream))
    with runtime.override(fast_replay=fast):
        run_btb(trace, btb)
    return btb


pairs = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7)),
                 min_size=0, max_size=120)


# ----------------------------------------------------------------------
# Property: fast path is bit-identical for every kernel policy
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=pairs)
def test_fast_replay_bit_identical(pairs):
    trace = _trace_of(pairs)
    for name in kernels.kernel_policy_names():
        clear_stream_cache()
        fast_btb = _replay(trace, name, fast=True)
        clear_stream_cache()
        reference_btb = _replay(trace, name, fast=False)
        assert _btb_state(fast_btb) == _btb_state(reference_btb), name
        assert _policy_state(fast_btb.policy) == \
            _policy_state(reference_btb.policy), name


def _ghrp_from_state(geometry, bypass: bool, seed: int) -> BTB:
    """A pristine BTB whose GHRP policy starts from a random nonzero
    history, counter tables, per-way signatures, dead bits and stamps."""
    table_bits, num_tables = geometry
    policy = GHRPPolicy(table_bits=table_bits, num_tables=num_tables,
                        bypass_enabled=bypass)
    btb = BTB(CONFIG, policy)
    rng = random.Random(seed)
    policy._history = rng.randrange(1, 1 << 16)
    policy._tables = [[rng.randint(0, policy.counter_max)
                       for _ in range(1 << table_bits)]
                      for _ in range(num_tables)]
    policy._signature = [[rng.randrange(1, 1 << 26)
                          for _ in range(CONFIG.ways)]
                         for _ in range(CONFIG.num_sets)]
    policy._dead = [[rng.random() < 0.5 for _ in range(CONFIG.ways)]
                    for _ in range(CONFIG.num_sets)]
    policy._stamps = [[rng.randrange(1, 100) for _ in range(CONFIG.ways)]
                      for _ in range(CONFIG.num_sets)]
    policy._clock = rng.randrange(100, 200)
    return btb


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7)),
                      min_size=0, max_size=8),
       geometry=st.sampled_from([(12, 3), (4, 2), (3, 4), (5, 1), (2, 4)]),
       bypass=st.booleans(), seed=st.integers(0, 2**32))
def test_ghrp_kernel_matches_reference_from_any_start_state(
        pairs, geometry, bypass, seed):
    """The GHRP kernel precomputes signature columns that fold in the
    start history for the first three accesses.  From a random warmed
    policy state, on short streams, with bypass on or off and with
    non-default table geometries, it must equal the reference exactly;
    where the reference's fold shifts by a negative count (``num_tables
    > table_bits + 1``) both must raise."""
    trace = _trace_of(pairs)
    stream = access_stream_for(trace, CONFIG)
    assert isinstance(
        kernels.select_kernel(_ghrp_from_state(geometry, bypass, seed),
                              stream), kernels.GHRPKernel)
    table_bits, num_tables = geometry
    btbs = []
    for fast in (True, False):
        btb = _ghrp_from_state(geometry, bypass, seed)
        with runtime.override(fast_replay=fast):
            if pairs and num_tables > table_bits + 1:
                with pytest.raises(ValueError):
                    run_btb(trace, btb)
                continue
            run_btb(trace, btb)
        btbs.append(btb)
    if len(btbs) == 2:
        fast_btb, reference_btb = btbs
        assert _btb_state(fast_btb) == _btb_state(reference_btb)
        assert _policy_state(fast_btb.policy) == \
            _policy_state(reference_btb.policy)


# ----------------------------------------------------------------------
# Dispatch rules
# ----------------------------------------------------------------------

def _spy(monkeypatch):
    """Record (and forward) try_fast_replay calls out of replay_stream:
    one entry per call, True when the fast path took the replay."""
    calls = []
    real = kernels.try_fast_replay

    def wrapped(stream, btb):
        result = real(stream, btb)
        calls.append(result is not None)
        return result

    monkeypatch.setattr(kernels, "try_fast_replay", wrapped)
    return calls


def test_kernel_selected_for_every_kernel_policy():
    trace = make_app_trace("tomcat", length=3000)
    stream = access_stream_for(trace, CONFIG)
    for name in kernels.kernel_policy_names():
        btb = BTB(CONFIG, _policy(name, stream))
        assert kernels.select_kernel(btb, stream) is not None, name


def test_observer_forces_slow_path(monkeypatch):
    trace = make_app_trace("tomcat", length=3000)
    calls = _spy(monkeypatch)
    observed = BTB(CONFIG, make_policy("lru"))
    recorder = observed.add_observer(EventRecorder())
    observed_stats = run_btb(trace, observed)
    assert calls == [False], "observed replay must decline the fast path"
    assert recorder.events  # the slow path actually emitted events

    plain = BTB(CONFIG, make_policy("lru"))
    plain_stats = run_btb(trace, plain)
    assert calls == [False, True], "unobserved replay should take it"
    assert dataclasses.asdict(plain_stats) == \
        dataclasses.asdict(observed_stats)


def test_kill_switch_disables_dispatch():
    trace = make_app_trace("tomcat", length=3000)
    stream = access_stream_for(trace, CONFIG)
    btb = BTB(CONFIG, make_policy("lru"))
    with runtime.override(fast_replay=False):
        assert not kernels.fast_path_enabled()
        assert kernels.select_kernel(btb, stream) is None
        assert kernels.try_fast_replay(stream, btb) is None
    assert kernels.select_kernel(btb, stream) is not None


def test_pretouched_btb_forces_slow_path():
    trace = make_app_trace("tomcat", length=3000)
    stream = access_stream_for(trace, CONFIG)
    btb = BTB(CONFIG, make_policy("lru"))
    btb.access(0x1000, 0x2000, 0)
    assert kernels.select_kernel(btb, stream) is None


def test_subclassed_policy_forces_slow_path():
    """Exact-type dispatch: semantic subclasses take the reference loop."""
    class _Sub(SRRIPPolicy):
        pass

    trace = make_app_trace("tomcat", length=3000)
    stream = access_stream_for(trace, CONFIG)
    btb = BTB(CONFIG, _Sub())
    assert kernels.select_kernel(btb, stream) is None


def test_choose_victim_override_falls_back_not_raises():
    """A subclass that overrides ``choose_victim`` of a kernelized base
    must silently fall back to the reference loop — never dispatch to the
    base class's kernel, never raise."""
    class PinnedWayZero(LRUPolicy):
        def choose_victim(self, set_idx, resident_pcs, incoming_pc,
                          index):
            return 0

    trace = make_app_trace("tomcat", length=3000)
    stream = access_stream_for(trace, CONFIG)
    btb = BTB(CONFIG, PinnedWayZero())
    assert kernels.select_kernel(btb, stream) is None
    stats = run_btb(trace, btb)
    assert stats.evictions > 0
    # The override was actually honored: every eviction hit way 0, so a
    # set's other way only ever holds its first (compulsory) fill.
    plain = run_btb(trace, BTB(CONFIG, make_policy("lru")))
    assert dataclasses.asdict(stats) != dataclasses.asdict(plain)


def test_instance_patched_hook_falls_back():
    """Hooks monkeypatched onto a policy *instance* would be silently
    ignored by a kernel; dispatch must detect them and fall back."""
    trace = make_app_trace("tomcat", length=3000)
    stream = access_stream_for(trace, CONFIG)
    btb = BTB(CONFIG, make_policy("lru"))
    assert kernels.select_kernel(btb, stream) is not None
    calls = []
    original = btb.policy.choose_victim

    def spying(set_idx, resident_pcs, incoming_pc, index):
        calls.append(set_idx)
        return original(set_idx, resident_pcs, incoming_pc, index)

    btb.policy.choose_victim = spying
    assert kernels.select_kernel(btb, stream) is None
    stats = run_btb(trace, btb)
    assert calls, "the instance patch must be honored by the replay"
    assert stats.evictions == len(calls)


def test_every_registry_policy_has_a_fast_path_story():
    """The dispatch matrix: every policy in the registry has a kernel,
    and every kernel belongs to a registry policy."""
    kernelized = set(kernels.kernel_policy_names())
    registry = set(policy_names())
    missing = registry - kernelized
    assert not missing, (
        f"registry policies {sorted(missing)} have no fast-path kernel. "
        "Add one to repro.btb.kernels.KERNELS (see the add-a-kernel "
        "checklist in docs/ARCHITECTURE.md).")
    stale = kernelized - registry
    assert not stale, (
        f"kernels {sorted(stale)} name policies that are not in the "
        "registry — remove or rename them")


def test_fallbacks_are_counted_by_reason(tmp_path):
    """An all-registry misses sweep never leaves the fast path; a
    subclassed policy does, and says why."""
    from repro.harness.engine import ExperimentEngine, SimJob
    from repro.telemetry.metrics import MetricsRegistry, set_registry

    class _Sub(SRRIPPolicy):
        pass

    def fallbacks(counters) -> dict:
        return {name: value for name, value in counters.items()
                if name.startswith("btb/fallback/")}

    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1,
                                  max_retries=0)
        engine.run([SimJob(app="tomcat", policy=name, length=2000,
                           mode="misses") for name in policy_names()])
        assert fallbacks(registry.counters) == {}
        trace = make_app_trace("tomcat", length=3000)
        run_btb(trace, BTB(CONFIG, _Sub()))
        assert fallbacks(registry.counters) == {"btb/fallback/no-kernel": 1}
        # The OPT profiler's outcome path needs the OPT kernel.
        stream = access_stream_for(trace, CONFIG)
        assert kernels.try_fast_opt_profile(
            stream, BTB(CONFIG, LRUPolicy())) is None
        assert fallbacks(registry.counters) == {
            "btb/fallback/no-kernel": 1,
            "btb/fallback/no-outcome-kernel": 1}
    finally:
        set_registry(previous)
