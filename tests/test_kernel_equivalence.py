"""Differential equivalence: the columnar replay kernel vs. a naive loop.

The branch-event kernel (``AccessStream`` + ``replay_stream``) must be a
pure refactor: for every policy in the registry, replaying a trace through
:func:`~repro.btb.btb.run_btb` must produce **bit-identical**
:class:`~repro.btb.btb.BTBStats` (and observer event streams) to a naive
per-record reference loop that masks and indexes the trace itself and
drives :meth:`BTB.access` scalar by scalar — the pre-kernel code shape.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import runtime
from repro.btb.btb import BTB, run_btb
from repro.btb.config import BTBConfig
from repro.btb.observer import EventRecorder
from repro.btb.replacement.registry import make_policy, policy_names
from repro.core.hints import HintMap
from repro.frontend.simulator import FrontendSimulator
from repro.trace.record import BranchKind, BranchTrace
from repro.trace.stream import access_stream_for, clear_stream_cache
from repro.workloads import make_app_trace

APPS = ("cassandra", "kafka", "tomcat")
LENGTH = 6000
#: Small enough that the synthetic working sets overflow it, so replacement
#: decisions (and therefore policy bugs) actually show up in the stats.
CONFIG = BTBConfig(entries=256, ways=4)

_RETURN = int(BranchKind.RETURN)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_stream_cache()
    yield
    clear_stream_cache()


def _trace(app: str) -> BranchTrace:
    return make_app_trace(app, length=LENGTH)


def _hints(trace: BranchTrace) -> HintMap:
    # Arbitrary but deterministic pc -> category map; equivalence only
    # needs both replays to see the same hints, not meaningful ones.
    pcs = set(trace.pcs.tolist())
    return HintMap({pc: (pc >> 2) % 3 for pc in pcs}, num_categories=3)


def _policy(name: str, trace: BranchTrace, *, reference: bool):
    """Identically-configured policy for either replay side.

    The kernel side builds OPT from the shared stream (the sweep path);
    the reference side from a hand-extracted pc list (the legacy path).
    """
    if name == "opt":
        if reference:
            pcs = [int(pc) for pc, kind, taken
                   in zip(trace.pcs, trace.kinds, trace.taken)
                   if taken and kind != _RETURN]
            return make_policy("opt", stream=pcs)
        return make_policy("opt", stream=access_stream_for(trace, CONFIG))
    if name in ("thermometer", "thermometer-dueling"):
        return make_policy(name, hints=_hints(trace))
    return make_policy(name)


def _reference_replay(trace: BranchTrace, btb: BTB):
    """The pre-kernel code shape: walk every trace record in Python, mask
    not-taken/return records inline, resolve the set inside ``access``."""
    index = 0
    for pc, target, kind, taken in zip(trace.pcs.tolist(),
                                       trace.targets.tolist(),
                                       trace.kinds.tolist(),
                                       trace.taken.tolist()):
        if taken and kind != _RETURN:
            btb.access(pc, target, index)
            index += 1
    return btb.stats


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("policy_name", policy_names())
def test_kernel_matches_reference_loop(policy_name, app):
    trace = _trace(app)

    reference_btb = BTB(CONFIG, _policy(policy_name, trace, reference=True))
    reference_recorder = EventRecorder()
    reference_btb.add_observer(reference_recorder)
    reference_stats = _reference_replay(trace, reference_btb)

    kernel_btb = BTB(CONFIG, _policy(policy_name, trace, reference=False))
    kernel_recorder = EventRecorder()
    kernel_btb.add_observer(kernel_recorder)
    kernel_stats = run_btb(trace, kernel_btb)

    assert dataclasses.asdict(kernel_stats) == \
        dataclasses.asdict(reference_stats)
    assert kernel_stats.accesses > 0
    # The policies must have made the same decisions access by access, not
    # just the same totals: the full event streams must match.
    assert kernel_recorder.events == reference_recorder.events
    assert kernel_btb.resident_pcs() == reference_btb.resident_pcs()


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("policy_name", policy_names())
def test_fast_path_matches_reference_loop(policy_name, app):
    """Every registry policy's fast-path kernel vs. the reference loop.

    Observer-free on purpose: attaching an observer forces the slow path
    (see ``test_fast_kernels.py``), so this is the only differential that
    actually exercises kernel dispatch.
    """
    from repro.btb import kernels

    trace = _trace(app)

    def replay(fast: bool) -> BTB:
        btb = BTB(CONFIG, _policy(policy_name, trace, reference=False))
        with runtime.override(fast_replay=fast):
            run_btb(trace, btb)
        return btb

    fast_btb, reference_btb = replay(True), replay(False)
    assert dataclasses.asdict(fast_btb.stats) == \
        dataclasses.asdict(reference_btb.stats)
    assert fast_btb.stats.accesses > 0
    assert fast_btb._tags == reference_btb._tags
    assert fast_btb._targets == reference_btb._targets
    assert fast_btb._reused == reference_btb._reused
    assert fast_btb._fill_index == reference_btb._fill_index
    assert fast_btb._dir == reference_btb._dir
    assert fast_btb.resident_pcs() == reference_btb.resident_pcs()


@pytest.mark.parametrize("app", APPS[:2])
def test_stats_show_real_pressure(app):
    """Guard the fixture: equivalence over an eviction-free replay would
    prove nothing, so the config must be under genuine pressure."""
    btb = BTB(CONFIG, make_policy("lru"))
    stats = run_btb(_trace(app), btb)
    assert stats.evictions > 0
    assert stats.hits > 0


@pytest.mark.parametrize("app", APPS[:2])
def test_simulator_identical_with_and_without_explicit_stream(app):
    trace = _trace(app)

    def run(stream):
        sim = FrontendSimulator(btb=BTB(CONFIG, make_policy("lru")))
        return sim.simulate(trace, stream=stream)

    implicit = run(None)
    clear_stream_cache()
    explicit = run(access_stream_for(trace, CONFIG))
    assert explicit.cycles == implicit.cycles  # bit-identical floats
    assert dataclasses.asdict(explicit.btb_stats) == \
        dataclasses.asdict(implicit.btb_stats)
    assert explicit.instructions == implicit.instructions
    assert explicit.ipc == implicit.ipc


def test_target_mismatch_counted_once_per_drifting_hit():
    from tests.helpers import branch
    records = [branch(0x100, target=0x500),
               branch(0x100, target=0x900),   # hit, target drift
               branch(0x100, target=0x900)]   # hit, stored target re-learned
    trace = BranchTrace.from_records(records, name="drift")
    stats = run_btb(trace, BTB(CONFIG, make_policy("lru")))
    assert stats.hits == 2
    assert stats.target_mismatches == 1
