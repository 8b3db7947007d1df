"""One access core per trace (repro.trace.stream.AccessCore).

Every geometry's :class:`~repro.trace.stream.AccessStream` of a trace
reads the same read-only geometry-independent columns and interned
scalar mirrors; only the set columns and the partition are its own.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import runtime
from repro.btb import kernels
from repro.btb.btb import BTB, run_btb
from repro.btb.config import (BTBConfig, DEFAULT_BTB_CONFIG,
                              THERMOMETER_7979_CONFIG)
from repro.btb.replacement.registry import make_policy
from repro.telemetry.metrics import MetricsRegistry, set_registry
from repro.trace.stream import access_stream_for, clear_stream_cache
from repro.workloads import make_app_trace

#: Columns and mirrors that do not depend on the BTB geometry.
SHARED = ("pcs", "targets", "kinds", "trace_positions", "next_use",
          "pcs_list", "targets_list")


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_stream_cache()
    yield
    clear_stream_cache()


@pytest.fixture(scope="module")
def trace():
    return make_app_trace("tomcat", length=20000)


def _both(trace):
    return (access_stream_for(trace, DEFAULT_BTB_CONFIG),
            access_stream_for(trace, THERMOMETER_7979_CONFIG))


def test_geometries_share_the_core_by_identity(trace):
    a, b = _both(trace)
    assert a is not b and a.core is b.core
    for name in SHARED:
        assert getattr(a, name) is getattr(b, name), name
    assert a.trace_columns() is b.trace_columns()
    assert a.occurrences() is b.occurrences()
    # The set columns are the geometry's own.
    assert a.set_indices is not b.set_indices
    assert a.partition() is not b.partition()


def test_shared_arrays_are_read_only(trace):
    a, _ = _both(trace)
    for name in ("access_mask", "pcs", "targets", "kinds",
                 "trace_positions", "next_use"):
        column = getattr(a, name)
        assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            column[0] = 0


def test_mirrors_hold_one_object_per_distinct_value(trace):
    for stream in _both(trace):
        for mirror, column in (("pcs_list", stream.pcs),
                               ("targets_list", stream.targets),
                               ("sets_list", stream.set_indices)):
            values = getattr(stream, mirror)
            assert list(values) == column.tolist(), mirror
            assert len(set(map(id, values))) == len(np.unique(column)), \
                mirror
        for values, column in zip(stream.trace_columns(),
                                  (trace.pcs, trace.targets)):
            assert len(set(map(id, values))) == len(np.unique(column))


def test_by_position_reuses_the_run_objects(trace):
    part = access_stream_for(trace, DEFAULT_BTB_CONFIG).partition()
    heads, ends = part.by_position
    assert sorted(heads) == sorted(part.heads)
    assert set(map(id, heads)) == set(map(id, part.heads))
    assert set(map(id, ends)) == set(map(id, part.ends))


def test_cleared_cache_rebuilds_everything(trace):
    old = access_stream_for(trace, DEFAULT_BTB_CONFIG)
    old.partition()
    old_columns = old.trace_columns()
    clear_stream_cache()
    new = access_stream_for(trace, DEFAULT_BTB_CONFIG)
    assert new is not old and new.core is not old.core
    for name in SHARED + ("set_indices", "sets_list"):
        assert getattr(new, name) is not getattr(old, name), name
    assert new.partition() is not old.partition()
    assert new.trace_columns() is not old_columns
    assert set(map(id, new.pcs_list)).isdisjoint(map(id, old.pcs_list))


def _replayed(stream, policy_stream, fast: bool) -> BTB:
    btb = BTB(stream.config, make_policy("opt", stream=policy_stream))
    with runtime.override(fast_replay=fast):
        if fast:
            assert kernels.try_fast_replay(stream, btb) is not None
        else:
            run_btb(stream, btb)
    return btb


def _state(btb: BTB) -> dict:
    return {"stats": dataclasses.asdict(btb.stats), "tags": btb._tags,
            "targets": btb._targets, "reused": btb._reused,
            "fill_index": btb._fill_index, "dir": btb._dir,
            "resident_next": btb.policy._resident_next,
            "last_index": btb.policy._last_index}


@pytest.mark.parametrize("configs,overflows", [
    ((DEFAULT_BTB_CONFIG, THERMOMETER_7979_CONFIG), False),
    # Small enough that the trace overflows both and OPT must choose.
    ((BTBConfig(entries=64, ways=4), BTBConfig(entries=60, ways=4)), True),
])
def test_opt_kernel_replays_both_geometries_like_the_reference(
        trace, configs, overflows):
    streams = [access_stream_for(trace, config) for config in configs]
    for stream in streams:
        for policy_stream in streams:
            # An OPT built on either geometry's stream reads the one
            # shared next-use column.
            fast = _replayed(stream, policy_stream, fast=True)
            reference = _replayed(stream, policy_stream, fast=False)
            assert _state(fast) == _state(reference), stream
            if overflows:
                assert fast.stats.evictions and fast.stats.bypasses


def test_other_geometry_btb_is_still_foreign(trace):
    a, b = _both(trace)
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    try:
        btb = BTB(b.config, make_policy("opt", stream=a))
        assert kernels.try_fast_replay(a, btb) is None
    finally:
        set_registry(previous)
    assert registry.counters == {"btb/fallback/foreign-model": 1}
