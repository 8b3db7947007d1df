"""Stage-decoupled fast simulate: differential + dispatch tests.

The fast path in :mod:`repro.frontend.kernels` must be *invisible*:
whenever ``simulate()`` dispatches to it, every ``SimResult`` field
(cycles and stall breakdowns included — same float-addition order),
every event count, the BTB stats, and the end state of every frontend
component must be bit-identical to the reference ``_replay_region``
loop.  Anything the passes cannot reproduce exactly — prefetchers,
observer-carrying or subclassed BTBs, subclassed or monkeypatched
components — must force the reference loop.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import runtime
from repro.btb.btb import BTB
from repro.btb.compressed import PartialTagBTB
from repro.btb.config import BTBConfig, THERMOMETER_7979_CONFIG
from repro.btb.observer import EventRecorder
from repro.frontend import kernels as simk
from repro.frontend.branch_predictor import (AlwaysTakenPredictor,
                                             BimodalPredictor,
                                             GSharePredictor,
                                             PerceptronPredictor,
                                             PerfectPredictor,
                                             TageLitePredictor)
from repro.frontend.fdip import FDIPEngine
from repro.frontend.params import DEFAULT_FRONTEND_PARAMS
from repro.frontend.simulator import FrontendSimulator
from repro.harness.runner import Harness, HarnessConfig
from repro.prefetch import NullPrefetcher
from repro.telemetry.metrics import MetricsRegistry, set_registry
from repro.trace.record import BranchKind, BranchRecord, BranchTrace
from repro.trace.stream import clear_stream_cache
from repro.workloads import make_app_trace
from repro.workloads.datacenter import app_names

#: Small geometry so short traces still churn through evictions.
CONFIG = BTBConfig(entries=128, ways=4)
LENGTH = 3000


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_stream_cache()
    yield
    clear_stream_cache()


@pytest.fixture
def registry():
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


# ----------------------------------------------------------------------
# Differential matrix: 13 apps x 6 configurations
# ----------------------------------------------------------------------

#: name -> (simulator kwargs factory, fast path expected?)
VARIANTS = {
    "default": (lambda: dict(btb=BTB(CONFIG)), True),
    "perfect_btb": (lambda: dict(btb=None, perfect_btb=True), True),
    "perfect_icache": (lambda: dict(btb=BTB(CONFIG), perfect_icache=True),
                       True),
    "perfect_bp": (lambda: dict(btb=BTB(CONFIG), perfect_bp=True), True),
    "compressed": (lambda: dict(btb=PartialTagBTB(CONFIG)), False),
    "prefetcher": (lambda: dict(btb=BTB(CONFIG),
                                prefetcher=NullPrefetcher()), False),
}


def _simulate(trace, kwargs, fast: bool, expect_fast: bool = True):
    sim = FrontendSimulator(**kwargs())
    with runtime.override(fast_sim=fast):
        if fast:
            reason = simk.fast_sim_supported(sim)
            if expect_fast:
                assert reason is None, reason
            else:
                assert reason is not None
        result = sim.simulate(trace, warmup_fraction=0.2)
    return result, sim


def _component_state(sim: FrontendSimulator) -> dict:
    state = {
        "ras": (list(sim.ras._stack), sim.ras.pushes, sim.ras.pops,
                sim.ras.mispredictions, sim.ras.overflows),
        "ibtb": (dict(sim.ibtb._table), sim.ibtb._history,
                 sim.ibtb.hits, sim.ibtb.misses),
        "fdip": (sim.fdip.credit, sim.fdip.hidden_latency,
                 sim.fdip.exposed_latency, sim.fdip.resets),
        "icache": [(c.accesses, c.misses, [list(s) for s in c._sets])
                   for c in (sim.icache.l1i, sim.icache.l2,
                             sim.icache.llc)],
        "l2_warm": sim._l2_misses_at_warmup,
    }
    if sim.btb is not None:
        state["btb"] = (copy.deepcopy(sim.btb._tags),
                        copy.deepcopy(sim.btb._targets),
                        dataclasses.asdict(sim.btb.stats))
    return state


def _predictor_state(predictor) -> dict:
    """Structural snapshot of a predictor (nested objects flattened so
    equality is by value; TAGE's ``_provider`` is a plain level index)."""

    def norm(value):
        if isinstance(value, list):
            return [norm(v) for v in value]
        if hasattr(value, "__dict__"):
            return {k: norm(v) for k, v in vars(value).items()}
        return value

    return {k: norm(v) for k, v in vars(predictor).items()}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("app", app_names())
def test_fast_simulate_bit_identical(app, variant):
    kwargs, expect_fast = VARIANTS[variant]
    trace = make_app_trace(app, length=LENGTH)
    fast_result, fast_sim = _simulate(trace, kwargs, fast=True,
                                      expect_fast=expect_fast)
    clear_stream_cache()
    ref_result, ref_sim = _simulate(trace, kwargs, fast=False)
    assert dataclasses.asdict(fast_result) == dataclasses.asdict(ref_result)
    assert _component_state(fast_sim) == _component_state(ref_sim)


@pytest.mark.parametrize("predictor_cls",
                         [AlwaysTakenPredictor, BimodalPredictor,
                          GSharePredictor, PerceptronPredictor,
                          PerfectPredictor, TageLitePredictor])
def test_fast_simulate_matches_per_predictor(predictor_cls):
    trace = make_app_trace("kafka", length=LENGTH)
    results = {}
    for fast in (True, False):
        clear_stream_cache()
        sim = FrontendSimulator(btb=BTB(CONFIG),
                                predictor=predictor_cls())
        with runtime.override(fast_sim=fast):
            results[fast] = (dataclasses.asdict(sim.simulate(trace)),
                             _component_state(sim),
                             _predictor_state(sim.predictor))
    assert results[True] == results[False]


def test_fast_simulate_tage_end_state_with_provider():
    """kafka above ends with no TAGE provider; python ends with one set,
    so the provider level and slot are compared too."""
    trace = make_app_trace("python", length=LENGTH)
    states = {}
    for fast in (True, False):
        sim = FrontendSimulator(btb=BTB(CONFIG))
        with runtime.override(fast_sim=fast):
            sim.simulate(trace)
        states[fast] = _predictor_state(sim.predictor)
    assert states[False]["_provider"] is not None
    assert states[True] == states[False]


def test_fast_simulate_repeated_runs_match(registry):
    """A second simulate() on the same simulator sees a warmed BTB, which
    routes the BTB pass through the scalar loop — still bit-identical.
    Its warmed predictor and caches must miss the shared-pass memo."""
    trace = make_app_trace("tomcat", length=LENGTH)
    results = {}
    for fast in (True, False):
        clear_stream_cache()
        sim = FrontendSimulator(btb=BTB(CONFIG))
        with runtime.override(fast_sim=fast):
            sim.simulate(trace)
            results[fast] = (dataclasses.asdict(sim.simulate(trace)),
                             _component_state(sim))
    assert results[True] == results[False]
    assert "sim/pass_memo_hits" not in registry.counters
    assert registry.counters["sim/pass_memo_misses"] == 4


# ----------------------------------------------------------------------
# Dispatch: every fallback condition must be detected
# ----------------------------------------------------------------------

def _stock_sim(**kwargs) -> FrontendSimulator:
    return FrontendSimulator(btb=BTB(CONFIG), **kwargs)


def test_dispatch_default_supported():
    assert simk.fast_sim_supported(_stock_sim()) is None


def test_dispatch_kill_switch():
    with runtime.override(fast_sim=False):
        assert simk.fast_sim_supported(_stock_sim()) is not None


def test_dispatch_env_kill_switch(monkeypatch):
    try:
        monkeypatch.setenv("REPRO_FAST_SIM", "0")
        assert runtime.load().fast_sim is False
        assert not simk.fast_sim_enabled()
        monkeypatch.setenv("REPRO_FAST_SIM", "1")
        assert runtime.load().fast_sim is True
        assert simk.fast_sim_enabled()
    finally:
        monkeypatch.undo()
        runtime.load()


def test_dispatch_rejects_prefetcher():
    sim = _stock_sim(prefetcher=NullPrefetcher())
    assert "prefetcher" in simk.fast_sim_supported(sim)


def test_dispatch_rejects_subclassed_btb():
    sim = FrontendSimulator(btb=PartialTagBTB(CONFIG))
    assert "BTB" in simk.fast_sim_supported(sim)


def test_dispatch_rejects_btb_observers():
    sim = _stock_sim()
    sim.btb.add_observer(EventRecorder())
    assert "observer" in simk.fast_sim_supported(sim)


def test_dispatch_rejects_instance_false_hit_attr():
    sim = _stock_sim()
    sim.btb.last_hit_was_false = False
    assert simk.fast_sim_supported(sim) is not None


def test_dispatch_rejects_subclassed_simulator():
    class Custom(FrontendSimulator):
        pass

    assert simk.fast_sim_supported(Custom(btb=BTB(CONFIG))) is not None


@pytest.mark.parametrize("hook", simk._SIM_HOOKS)
def test_dispatch_rejects_patched_simulator_hooks(hook):
    sim = _stock_sim()
    setattr(sim, hook, lambda *a, **k: None)
    assert "monkeypatched" in simk.fast_sim_supported(sim)


@pytest.mark.parametrize("component,hooks", [
    ("fdip", simk._FDIP_HOOKS),
    ("ras", simk._RAS_HOOKS),
    ("ibtb", simk._IBTB_HOOKS),
    ("icache", simk._ICACHE_HOOKS),
    ("predictor", simk._PREDICTOR_HOOKS),
])
def test_dispatch_rejects_patched_component_hooks(component, hooks):
    for hook in hooks:
        sim = _stock_sim()
        setattr(getattr(sim, component), hook, lambda *a, **k: None)
        assert simk.fast_sim_supported(sim) is not None, hook


def test_dispatch_rejects_patched_cache_level():
    sim = _stock_sim()
    sim.icache.l2.access_line = lambda *a, **k: 0
    assert simk.fast_sim_supported(sim) is not None


def test_dispatch_rejects_unknown_predictor():
    class Oracle(PerfectPredictor):
        pass

    sim = _stock_sim(predictor=Oracle())
    assert "predictor" in simk.fast_sim_supported(sim)


def test_fallback_still_simulates():
    """A rejected configuration must flow through the reference loop and
    produce a populated result, not an error."""
    trace = make_app_trace("tomcat", length=500)
    sim = FrontendSimulator(btb=PartialTagBTB(CONFIG))
    result = sim.simulate(trace)
    assert result.cycles > 0.0
    assert result.instructions > 0


def test_try_fast_simulate_returns_none_when_rejected():
    trace = make_app_trace("tomcat", length=500)
    sim = _stock_sim(prefetcher=NullPrefetcher())
    assert simk.try_fast_simulate(sim, trace, 0.2, None) is None


def test_fallback_counted_by_reason(registry):
    trace = make_app_trace("tomcat", length=500)
    _stock_sim(prefetcher=NullPrefetcher()).simulate(trace)
    with runtime.override(fast_sim=False):
        _stock_sim().simulate(trace)
    assert registry.counters["sim/fallback/prefetcher-attached"] == 1
    assert registry.counters["sim/fallback/disabled"] == 1


# ----------------------------------------------------------------------
# Shared passes: the direction / I-cache memo
# ----------------------------------------------------------------------

#: One Fig. 11 row's simulations, in the order the figure runs them.
FIG11_POLICIES = ("lru", "srrip", "ghrp", "hawkeye", "thermometer",
                  "thermometer-7979", "opt")


@pytest.fixture
def pass_calls(monkeypatch):
    """How often the direction and I-cache passes really ran."""
    calls = {"direction": 0, "icache": 0}
    for name in calls:
        real = getattr(simk, f"_{name}_pass")

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(simk, f"_{name}_pass", counted)
    return calls


def _component_objects(sim: FrontendSimulator) -> list:
    """Every object the shared passes mutate, for identity checks."""
    levels = [sim.icache.l1i, sim.icache.l2, sim.icache.llc]
    objects = levels + [row for level in levels for row in level._sets]
    predictor = sim.predictor
    objects += [predictor._base, predictor._base._counters,
                predictor._tables]
    for table in predictor._tables:
        objects += [table, table.tags, table.counters, table.useful]
    return objects


def test_fig11_row_shares_passes(registry, pass_calls):
    """The 7 simulations of one Fig. 11 row, each on a fresh simulator,
    run each shared pass once, stay bit-identical to the reference loop
    (predictor state included), and keep every component object."""
    harness = Harness(HarnessConfig(apps=("python",), length=LENGTH))
    trace = harness.trace("python")
    hints = {"thermometer": harness.hints("python"),
             "thermometer-7979": harness.hints(
                 "python", btb_config=THERMOMETER_7979_CONFIG)}
    for policy in FIG11_POLICIES:
        runs = {}
        for fast in (True, False):
            sim = FrontendSimulator(btb=harness.build_btb(
                policy, trace, hints=hints.get(policy)))
            held = _component_objects(sim)
            with runtime.override(fast_sim=fast):
                result = sim.simulate(trace, warmup_fraction=0.2)
            assert all(a is b for a, b in zip(held, _component_objects(sim)))
            runs[fast] = (dataclasses.asdict(result), _component_state(sim),
                          _predictor_state(sim.predictor))
        assert runs[True] == runs[False], policy
    assert pass_calls == {"direction": 1, "icache": 1}
    assert registry.counters["sim/pass_memo_hits"] == 12
    assert registry.counters["sim/pass_memo_misses"] == 2


@pytest.mark.parametrize("variant", [
    dict(warmup_fraction=0.5),
    dict(params=dataclasses.replace(
        DEFAULT_FRONTEND_PARAMS,
        l2_latency=DEFAULT_FRONTEND_PARAMS.l2_latency + 4)),
], ids=["warmup_fraction", "params"])
def test_pass_memo_keys_on_warmup_and_params(variant, pass_calls):
    """A different warmup boundary or fill latency is a different I-cache
    entry; the direction pass sees neither and is shared."""
    trace = make_app_trace("tomcat", length=LENGTH)
    _stock_sim().simulate(trace, warmup_fraction=0.2)
    warmup = variant.get("warmup_fraction", 0.2)
    params = variant.get("params", DEFAULT_FRONTEND_PARAMS)
    runs = {}
    for fast in (True, False):
        sim = _stock_sim(params=params)
        with runtime.override(fast_sim=fast):
            runs[fast] = (dataclasses.asdict(
                sim.simulate(trace, warmup_fraction=warmup)),
                _component_state(sim))
    assert runs[True] == runs[False]
    assert pass_calls == {"direction": 1, "icache": 2}


def test_clear_stream_cache_empties_pass_memo():
    trace = make_app_trace("tomcat", length=500)
    _stock_sim().simulate(trace)
    assert len(simk._pass_memo) == 2
    clear_stream_cache()
    assert len(simk._pass_memo) == 0


def _reachable(obj) -> list:
    """``obj`` and every list and plain object its state reaches, in a
    stable order, for identity checks across a memo restore."""
    found = [obj]
    values = obj if type(obj) is list else list(vars(obj).values())
    for value in values:
        if type(value) is list or (hasattr(value, "__dict__")
                                   and not dataclasses.is_dataclass(value)):
            found += _reachable(value)
    return found


@pytest.mark.parametrize("predictor_cls",
                         [AlwaysTakenPredictor, BimodalPredictor,
                          GSharePredictor, PerceptronPredictor,
                          PerfectPredictor, TageLitePredictor])
def test_pass_memo_hit_per_predictor(registry, pass_calls, predictor_cls):
    """A second fresh simulator on the same trace hits both shared
    passes, matches the reference loop, and keeps every component
    object (rows and nested objects included)."""
    trace = make_app_trace("kafka", length=LENGTH)
    FrontendSimulator(btb=BTB(CONFIG),
                      predictor=predictor_cls()).simulate(trace)
    runs = {}
    for fast in (True, False):
        sim = FrontendSimulator(btb=BTB(CONFIG), predictor=predictor_cls())
        held = _reachable(sim.predictor) + _reachable(sim.icache)
        with runtime.override(fast_sim=fast):
            result = sim.simulate(trace)
        after = _reachable(sim.predictor) + _reachable(sim.icache)
        assert len(held) == len(after)
        assert all(a is b for a, b in zip(held, after))
        runs[fast] = (dataclasses.asdict(result), _component_state(sim),
                      _predictor_state(sim.predictor))
    assert runs[True] == runs[False]
    assert pass_calls == {"direction": 1, "icache": 1}
    assert registry.counters["sim/pass_memo_hits"] == 2
    assert registry.counters["sim/pass_memo_misses"] == 2


class _Knob:
    """A component whose state is one float and one list."""

    def __init__(self, value=0.0):
        self.value = value
        self.rows = [[1, 2], [3]]


def test_start_state_tokens_name_states_exactly():
    """Equal start states share a token; a warmed, foreign or
    sign-flipped state gets its own; a state the walk cannot copy is
    named by its pickled ``__dict__``."""
    pool = simk._StartStates(capacity=4)
    fresh = pool.token(TageLitePredictor())
    assert pool.token(TageLitePredictor()) == fresh
    warmed = TageLitePredictor()
    warmed.predict_and_train(0x40, True)
    assert pool.token(warmed) not in (fresh, None)
    assert pool.token(GSharePredictor()) != fresh
    assert pool.token(_Knob(0.0)) != pool.token(_Knob(-0.0))
    knob = _Knob()
    token = pool.token(knob)
    knob.rows[1].append(4)      # the pool kept a copy, not the live rows
    assert pool.token(knob) != token
    assert pool.token(_Knob()) == token
    ibtb_key = pool.token(FrontendSimulator().ibtb)    # holds a dict
    assert type(ibtb_key) is tuple and type(ibtb_key[1]) is bytes


def test_start_state_tokens_are_never_reused():
    pool = simk._StartStates(capacity=1)
    first = pool.token(_Knob(1.0))
    pool.token(_Knob(2.0))                      # evicts the first copy
    assert pool.token(_Knob(1.0)) not in (first, pool.token(_Knob(2.0)))


# ----------------------------------------------------------------------
# Property: the TAGE column pass against predict_and_train
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_property_tage_columns_match_predict_and_train(data):
    """Random geometry, start history (bits above the longest window
    included), prefilled tables with nonzero useful bits (so allocation
    decrements them), and streams shorter and longer than the longest
    history window."""
    base_bits = data.draw(st.integers(2, 9), label="base_bits")
    table_bits = data.draw(st.integers(1, 7), label="table_bits")
    tag_bits = data.draw(st.integers(1, 12), label="tag_bits")
    wide = data.draw(st.booleans(), label="wide")
    predictor = TageLitePredictor(base_bits=base_bits,
                                  table_bits=table_bits, tag_bits=tag_bits)
    if wide:  # wider than the int64 columns: the generic pass's case
        predictor._tables[-1].history_bits = 64
    predictor._history = data.draw(st.integers(0, (1 << 64) - 1),
                                   label="history")
    size = 1 << table_bits
    for table in predictor._tables:
        table.tags[:] = data.draw(st.lists(
            st.integers(0, (1 << tag_bits) - 1),
            min_size=size, max_size=size))
        table.counters[:] = data.draw(st.lists(
            st.integers(0, 7), min_size=size, max_size=size))
        table.useful[:] = data.draw(st.lists(
            st.integers(0, 3), min_size=size, max_size=size))
    length = data.draw(st.integers(0, 160), label="length")
    raw = data.draw(st.lists(st.tuples(st.integers(0, 1 << 12),
                                       st.booleans(), st.booleans()),
                             min_size=length, max_size=length))
    pcs = np.array([pc * 4 for pc, _, _ in raw], dtype=np.int64)
    kinds = np.array([int(BranchKind.COND_DIRECT) if cond
                      else int(BranchKind.UNCOND_DIRECT)
                      for _, cond, _ in raw], dtype=np.uint8)
    taken = np.array([tk for _, _, tk in raw], dtype=bool)
    reference = copy.deepcopy(predictor)
    expected = np.zeros(len(raw), dtype=bool)
    for i, (pc, cond, tk) in enumerate(raw):
        if cond:
            expected[i] = not reference.predict_and_train(pc * 4, tk)
    dir_wrong = np.zeros(len(raw), dtype=bool)
    simk._direction_pass(predictor, pcs, kinds, taken, dir_wrong)
    assert dir_wrong.tolist() == expected.tolist()
    assert _predictor_state(predictor) == _predictor_state(reference)


# ----------------------------------------------------------------------
# Property: randomized traces over every branch kind
# ----------------------------------------------------------------------

_KINDS = [BranchKind.COND_DIRECT, BranchKind.UNCOND_DIRECT,
          BranchKind.CALL_DIRECT, BranchKind.RETURN,
          BranchKind.UNCOND_INDIRECT, BranchKind.CALL_INDIRECT]

records = st.lists(
    st.tuples(st.integers(0, 31),          # pc slot
              st.integers(0, 15),          # target slot
              st.integers(0, len(_KINDS) - 1),
              st.booleans()),              # taken
    min_size=0, max_size=160)


def _trace_of(raw) -> BranchTrace:
    recs = [BranchRecord(pc=0x1000 + pc * 4, target=0x8000 + t * 4,
                         kind=_KINDS[k],
                         # unconditional branches are architecturally taken
                         taken=taken or _KINDS[k] != BranchKind.COND_DIRECT,
                         ilen=4 + (pc % 3) * 4)
            for pc, t, k, taken in raw]
    return BranchTrace.from_records(recs, name="prop")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=records, warm=st.sampled_from([0.0, 0.2, 0.5]))
def test_property_fast_matches_reference(raw, warm):
    trace = _trace_of(raw)
    results = {}
    for fast in (True, False):
        clear_stream_cache()
        sim = FrontendSimulator(btb=BTB(BTBConfig(entries=8, ways=2)))
        with runtime.override(fast_sim=fast):
            results[fast] = (
                dataclasses.asdict(sim.simulate(trace,
                                                warmup_fraction=warm)),
                _component_state(sim))
    assert results[True] == results[False]


def _loop_sum(values) -> float:
    """The reference simulator's accumulation: one ``+=`` per entry."""
    acc = 0.0
    for value in values:
        acc += value
    return acc


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)),
    max_size=300))
def test_ordered_sum_with_interleaved_zeros_equals_the_loop(values):
    """Dropping the zeros before the scan (``frontend.reduce``'s sparse
    columns) leaves the left-to-right sum bit-identical."""
    array = np.array(values, dtype=float)
    expected = _loop_sum(values)
    assert simk._ordered_sum(array) == expected
    assert simk._nonzero_sum(array) == expected
    charged = array != 0.0
    for penalty in (0, 3, 14.5, 0.1):
        assert simk._penalty_sum(charged, penalty) == _loop_sum(
            np.where(charged, penalty, 0.0).tolist())


# ----------------------------------------------------------------------
# Property: the segment-parallel FDIP pass against FDIPEngine
# ----------------------------------------------------------------------

def _fdip_reference(engine, demand, fills, redirects):
    """The reference loop's FDIP calls: advance, absorb, then one
    redirect per redirect the record raised."""
    exposed = []
    for d, fill, r in zip(demand, fills, redirects):
        engine.advance(d)
        exposed.append(engine.absorb(fill) if fill else 0.0)
        for _ in range(r):
            engine.redirect()
    return exposed


def _fdip_engine(start_credit, gain, capacity):
    engine = FDIPEngine(DEFAULT_FRONTEND_PARAMS)
    if gain is not None:
        engine.gain = gain
    if capacity is not None:
        engine.capacity = capacity
    if start_credit == "cap":
        engine.credit = engine.capacity
    else:
        engine.credit = start_credit
    # A warmed engine carries statistics as well as credit.
    engine.hidden_latency, engine.exposed_latency = 31.7, 4.25
    engine.resets = 3
    return engine


def _check_fdip_pass(demand, fills, redirects, start_credit=0.0, gain=None,
                     capacity=None, lockstep_min=simk._LOCKSTEP_MIN):
    """``lockstep_min`` 1 runs every step in lockstep, a huge one walks
    every segment record by record."""
    reference = _fdip_engine(start_credit, gain, capacity)
    expected = _fdip_reference(reference, demand, fills, redirects)
    engine = _fdip_engine(start_credit, gain, capacity)
    filled = np.flatnonzero(np.array(fills, dtype=float))
    default, simk._LOCKSTEP_MIN = simk._LOCKSTEP_MIN, lockstep_min
    try:
        exposed = simk._fdip_pass(
            engine, np.array(demand, dtype=float) * engine.gain, filled,
            np.array(fills, dtype=float)[filled],
            np.array(redirects, dtype=np.int8))
    finally:
        simk._LOCKSTEP_MIN = default
    assert exposed.tolist() == expected
    assert vars(engine) == vars(reference)


#: Per-record demands as the simulator makes them (ilen * backend_cpi),
#: fills from the hierarchy's latencies (some above the 67.2-cycle cap)
#: and sums of them, and 0-2 redirects per record.
fdip_records = st.lists(
    st.tuples(st.integers(1, 24).map(lambda ilen: ilen * 0.35),
              st.sampled_from([0.0, 0.0, 0.0, 12.0, 40.0, 150.0, 162.0,
                               52.0]),
              st.sampled_from([0, 0, 0, 1, 1, 2])),
    min_size=1, max_size=400)


@settings(max_examples=150, deadline=None)
@given(records=fdip_records,
       start_credit=st.sampled_from([0.0, 3.7, 60.0, "cap", 500.0]),
       gain=st.sampled_from([None, 0.0, 0.5, -1.0]),
       capacity=st.sampled_from([None, 0.0, 7.0]),
       lockstep_min=st.sampled_from([1, 16, 10 ** 9]))
def test_property_fdip_pass_matches_engine(records, start_credit, gain,
                                           capacity, lockstep_min):
    """Every per-record exposed latency and the engine's end state are
    bit-identical to the scalar engine's, through the lockstep, the
    record-by-record tail, or both; a negative gain turns off the cap
    shortcut (the cap no longer absorbs)."""
    demand, fills, redirects = map(list, zip(*records))
    _check_fdip_pass(demand, fills, redirects, start_credit, gain,
                     capacity, lockstep_min)


@pytest.mark.parametrize("lockstep_min", [1, 10 ** 9])
@pytest.mark.parametrize("case", [
    "redirect_at_first", "redirect_at_last", "back_to_back",
    "fill_and_redirect", "fill_above_capacity", "no_redirects"])
def test_fdip_pass_edge_cases(case, lockstep_min):
    n = 40
    demand = [0.35 * (1 + i % 7) for i in range(n)]
    fills = [150.0 if i % 5 == 2 else 0.0 for i in range(n)]
    redirects = [1 if i % 9 == 4 else 0 for i in range(n)]
    if case == "redirect_at_first":
        redirects[0] = 1
    elif case == "redirect_at_last":
        redirects[-1] = 2
    elif case == "back_to_back":
        redirects[10:16] = [1, 2, 1, 1, 1, 1]
    elif case == "fill_and_redirect":
        fills[4] = fills[13] = 40.0        # records 4 and 13 redirect
    elif case == "fill_above_capacity":
        fills = [500.0 if f else 0.0 for f in fills]
    else:
        redirects = [0] * n
    for start_credit in (0.0, 12.5, "cap"):
        for gain, capacity in ((None, None), (0.0, None), (None, 0.0)):
            _check_fdip_pass(demand, fills, redirects, start_credit, gain,
                             capacity, lockstep_min)
