"""Per-set storage recycled across BTBs stays invisible.

The owners of a job's BTB (``Harness.run_misses``, ``Harness.run_sim``
and the OPT profiler) release its rows, directories and policy grids to
a per-process free list, and the next BTB on that geometry refills and
reuses them.  These tests pin what that must never change:

* after any sequence of released BTBs, a new BTB's stats, storage,
  directories and policy state equal those of a BTB built on fresh
  storage, both through the replay kernels and the reference loop;
* a released BTB raises on access and on replay;
* no row is ever shared by two live BTBs;
* a misses sweep (and a few timing runs) return the same rows with
  recycling as with fresh storage.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import runtime
from repro.btb import kernels
from repro.btb.btb import BTB, run_btb
from repro.btb.config import BTBConfig
from repro.btb.replacement import base
from repro.btb.replacement.base import (RELEASED, ReleasedStorageError,
                                        new_grid, release_grids)
from repro.btb.replacement.registry import policy_names
from repro.frontend.icache import CacheModel
from repro.harness.engine import ExperimentEngine, SimJob
from repro.harness.runner import Harness, HarnessConfig
from repro.trace.stream import access_stream_for, clear_stream_cache
from tests.test_fast_kernels import (_btb_state, _policy, _policy_state,
                                     _trace_of)

#: Small geometries (sets x ways: 4 x 2, 2 x 4, 8 x 2) so short streams
#: fill, evict and bypass.
CONFIGS = (BTBConfig(entries=8, ways=2), BTBConfig(entries=8, ways=4),
           BTBConfig(entries=16, ways=2))

POLICIES = tuple(policy_names())

#: The 16 policy names of a full misses sweep.
SWEEP_POLICIES = POLICIES + ("thermometer-7979",)

pairs = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7)),
                 min_size=0, max_size=80)


@pytest.fixture(autouse=True)
def _empty_free_list():
    """Each test starts (and leaves) the free list empty, so "fresh
    storage" below means storage no BTB held before."""
    base._free_grids.clear()
    base._free_directories.clear()
    clear_stream_cache()
    yield
    base._free_grids.clear()
    base._free_directories.clear()
    clear_stream_cache()


def _replayed(btb: BTB, stream, fast: bool) -> BTB:
    with runtime.override(fast_replay=fast):
        run_btb(stream, btb)
    return btb


def _grids(btb: BTB) -> list:
    """Every grid the BTB and its policy hold."""
    return [btb._tags, btb._targets, btb._reused, btb._fill_index,
            *btb.policy._grids]


def _rows(btb: BTB) -> list:
    """Every row and directory a live BTB holds (the unit of sharing)."""
    return [row for grid in _grids(btb) for row in grid] + list(btb._dir)


# ----------------------------------------------------------------------
# A recycled BTB is indistinguishable from a fresh one
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pairs=pairs, config_index=st.integers(0, len(CONFIGS) - 1),
       history=st.lists(st.tuples(st.sampled_from(POLICIES),
                                  st.booleans()), min_size=1, max_size=6),
       final=st.sampled_from(POLICIES), fast=st.booleans())
def test_recycled_btb_equals_fresh_storage(pairs, config_index, history,
                                           final, fast):
    config = CONFIGS[config_index]
    stream = access_stream_for(_trace_of(pairs), config)
    fresh = _replayed(BTB(config, _policy(final, stream)), stream, fast)
    released = []
    for name, history_fast in history:
        btb = _replayed(BTB(config, _policy(name, stream)), stream,
                        history_fast)
        released += _grids(btb)
        btb.release()
    recycled = BTB(config, _policy(final, stream))
    # The rows really are recycled ones, refilled as fresh ones.
    assert any(recycled._tags is grid for grid in released)
    assert kernels._pristine(recycled)
    with runtime.override(fast_replay=True):
        assert kernels.select_kernel(recycled, stream) is not None
    _replayed(recycled, stream, fast)
    assert _btb_state(recycled) == _btb_state(fresh)
    assert _policy_state(recycled.policy) == _policy_state(fresh.policy)


@settings(max_examples=40, deadline=None)
@given(pairs=pairs, final=st.sampled_from(POLICIES))
def test_recycled_btb_matches_between_kernel_and_reference(pairs, final):
    config = CONFIGS[0]
    stream = access_stream_for(_trace_of(pairs), config)
    ends = []
    for fast in (True, False):
        for name in POLICIES:
            _replayed(BTB(config, _policy(name, stream)), stream,
                      fast).release()
        ends.append(_replayed(BTB(config, _policy(final, stream)), stream,
                              fast))
    kernel, reference = ends
    assert _btb_state(kernel) == _btb_state(reference)
    assert _policy_state(kernel.policy) == _policy_state(reference.policy)


# ----------------------------------------------------------------------
# A released BTB raises
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", POLICIES)
@pytest.mark.parametrize("fast", [True, False])
def test_released_btb_raises_on_access_and_replay(name, fast):
    config = CONFIGS[0]
    trace = _trace_of([(k % 11, k % 3) for k in range(60)])
    stream = access_stream_for(trace, config)
    btb = _replayed(BTB(config, _policy(name, stream)), stream, fast)
    stats = dataclasses.asdict(btb.stats)
    grid_names = [attr for attr, value in vars(btb.policy).items()
                  if any(value is grid for grid in btb.policy._grids)]
    btb.release()
    assert dataclasses.asdict(btb.stats) == stats
    assert "released" in repr(btb)
    for attr in grid_names:
        assert getattr(btb.policy, attr) is RELEASED
    pc = 0x1000
    for use in (lambda: btb.access(pc), lambda: btb.insert(pc),
                lambda: btb.lookup(pc), btb.resident_pcs, btb.release,
                lambda: btb.occupancy):
        with pytest.raises(ReleasedStorageError):
            use()
    with runtime.override(fast_replay=fast):
        with pytest.raises(ReleasedStorageError):
            run_btb(stream, btb)
    if grid_names:
        with pytest.raises(ReleasedStorageError):
            btb.policy.on_fill(0, 0, pc, len(stream) - 1)


def test_unused_released_btb_raises_on_replay():
    config = CONFIGS[0]
    stream = access_stream_for(_trace_of([(1, 1), (2, 2)]), config)
    btb = BTB(config, _policy("lru", stream))
    btb.release()
    with pytest.raises(ReleasedStorageError):
        run_btb(stream, btb)


def test_released_cache_raises_on_access():
    cache = CacheModel(size_bytes=4 * 64 * 2, ways=2)
    cache.access_line(3)
    cache.release()
    with pytest.raises(ReleasedStorageError):
        cache.access_line(3)
    again = CacheModel(size_bytes=4 * 64 * 2, ways=2)
    assert again._sets == [[], [], [], []]


# ----------------------------------------------------------------------
# No row is shared by two live BTBs
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(config_index=st.integers(0, len(CONFIGS) - 1),
       ops=st.lists(st.one_of(
           st.tuples(st.just("build"), st.sampled_from(POLICIES)),
           st.tuples(st.just("release"), st.integers(0, 7))),
           min_size=1, max_size=24))
def test_no_row_is_shared_by_two_live_btbs(config_index, ops):
    config = CONFIGS[config_index]
    stream = access_stream_for(_trace_of([(k, k) for k in range(12)]),
                               config)
    live = []
    for op, arg in ops:
        if op == "build":
            live.append(_replayed(BTB(config, _policy(arg, stream)),
                                  stream, True))
        elif live:
            live.pop(arg % len(live)).release()
        rows = [id(row) for btb in live for row in _rows(btb)]
        assert len(rows) == len(set(rows))


def test_free_list_is_bounded_and_holds_each_grid_once():
    grids = [new_grid(4, 2, 0) for _ in range(base._FREE_GRIDS_PER_GEOMETRY
                                              + 3)]
    release_grids(grids[0], grids[0], *grids[1:])
    held = base._free_grids[(4, 2)]
    assert len(held) == base._FREE_GRIDS_PER_GEOMETRY
    assert len({id(grid) for grid in held}) == len(held)
    # A policy whose attributes alias one grid releases it once.
    config = CONFIGS[0]
    base._free_grids.clear()
    btb = BTB(config, _policy("lru", access_stream_for(
        _trace_of([(1, 1)]), config)))
    btb.policy._alias = btb.policy._stamps
    btb.release()
    held = base._free_grids[(config.num_sets, config.ways)]
    assert len(held) == 5 and len({id(grid) for grid in held}) == 5
    assert btb.policy._alias is RELEASED


def test_threads_building_and_releasing_never_share_rows():
    """Service executor threads share the free list: with more threads
    than cores and a short switch interval, every BTB a thread builds
    must still replay to the fresh-storage result, and the list must
    stay inside its bound."""
    import sys
    import threading

    config = CONFIGS[0]
    stream = access_stream_for(
        _trace_of([(k * 7 % 13, k % 5) for k in range(120)]), config)
    names = ("lru", "ghrp", "ship", "thermometer", "plru", "opt")
    expected = {}
    for name in names:
        btb = BTB(config, _policy(name, stream))
        run_btb(stream, btb)
        expected[name] = _btb_state(btb)
    errors = []

    def work(offset: int) -> None:
        try:
            for i in range(40):
                name = names[(offset + i) % len(names)]
                btb = BTB(config, _policy(name, stream))
                run_btb(stream, btb)
                if _btb_state(btb) != expected[name]:
                    errors.append(name)
                btb.release()
        except Exception as exc:  # reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(len(free) <= base._FREE_GRIDS_PER_GEOMETRY
               for free in base._free_grids.values())


def test_new_grid_refills_a_released_grid_in_place():
    grid = new_grid(3, 2, 0)
    grid[1][0] = 9
    release_grids(grid)
    again = new_grid(3, 2, -1)
    assert again is grid and again == [[-1, -1]] * 3


# ----------------------------------------------------------------------
# Whole runs: recycling vs fresh storage
# ----------------------------------------------------------------------

def _fresh_storage(monkeypatch) -> None:
    """Make every release a no-op, so each BTB and cache is built on
    storage nothing held before."""
    monkeypatch.setattr(BTB, "release", lambda self: None)
    monkeypatch.setattr(CacheModel, "release", lambda self: None)


def _sweep(root) -> list:
    jobs = [SimJob(app=app, policy=policy, length=4000, mode="misses")
            for app in ("tomcat", "kafka") for policy in SWEEP_POLICIES]
    results = ExperimentEngine(cache_dir=root, jobs=1).run(jobs)
    assert all(r.state == "succeeded" for r in results)
    return [(r.job.app, r.job.policy, dataclasses.asdict(r.value))
            for r in results]


def test_misses_sweep_matches_fresh_storage(tmp_path, monkeypatch):
    releases = []
    real_release = BTB.release

    def counting_release(self):
        releases.append(self.policy.name)
        real_release(self)

    with monkeypatch.context() as patch:
        patch.setattr(BTB, "release", counting_release)
        recycled = _sweep(tmp_path / "recycled")
    # One per job, plus the OPT profile behind each app's hint maps.
    assert len(releases) >= len(recycled)
    clear_stream_cache()
    _fresh_storage(monkeypatch)
    assert recycled == _sweep(tmp_path / "fresh")


def test_timing_runs_match_fresh_storage(monkeypatch):
    harness = Harness(HarnessConfig(apps=("kafka",), length=4000))
    trace = harness.trace("kafka")
    hints = harness.hints("kafka")

    def runs():
        return [dataclasses.asdict(harness.run_sim(trace, name,
                                                   hints=hints))
                for name in ("lru", "thermometer", "ghrp", "lru")]

    recycled = runs()
    assert base._free_grids[(64, 0)]  # the L1I rows went back
    _fresh_storage(monkeypatch)
    base._free_grids.clear()
    base._free_directories.clear()
    assert recycled == runs()
