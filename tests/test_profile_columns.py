"""The columnar OPT profile and the GC-invisible replay state.

A harness keeps every OPT profile and a small LRU of access streams and
frontend pass results alive for its whole life.  Their per-branch and
per-access data are numpy columns or tuples of plain scalars, which the
cyclic garbage collector does not walk: CPython stops tracking a tuple of
atoms at the first collection it survives, and an int64 array is never
tracked.  These tests pin that shape, the bit-identity of the kernel and
reference profile paths, and the hint categories the columns feed.
"""

from __future__ import annotations

import gc
import hashlib
import pickle
import struct
import types

import numpy as np
import pytest

from repro import runtime
from repro.btb.btb import BTB
from repro.btb.config import DEFAULT_BTB_CONFIG, BTBConfig
from repro.core.hints import ThresholdQuantizer
from repro.core.profiler import (COLUMNS, BranchProfile, OptProfile,
                                 profile_trace)
from repro.core.temperature import TemperatureProfile
from repro.frontend import kernels as simk
from repro.frontend.simulator import FrontendSimulator
from repro.telemetry.metrics import get_registry
from repro.trace.stream import access_stream_for, clear_stream_cache
from repro.workloads.datacenter import make_app_trace


def untracked(value) -> bool:
    return not gc.is_tracked(value)


class TestGcShape:
    def test_stream_mirrors_and_partition_are_untracked(self, small_trace):
        clear_stream_cache()
        stream = access_stream_for(small_trace, BTBConfig(entries=64,
                                                          ways=4))
        mirrors = [stream.pcs_list, stream.targets_list, stream.sets_list]
        columns = list(stream.trace_columns())
        part = stream.partition()
        runs = [part.heads, part.ends, *part.by_position]
        gc.collect()
        for value in mirrors + columns + runs:
            assert type(value) is tuple
            assert len(value) > 0
            assert untracked(value)
        for column in (part.lengths, part.changes, part.repeats):
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.int64
            assert untracked(column)
        assert len(part.repeats) > 0

    def test_pass_memo_columns_are_untracked(self, small_trace):
        clear_stream_cache()
        # Only the fast simulate path memoizes passes; pin it on so the
        # REPRO_FAST_SIM=0 differential legs check the same memo.
        with runtime.override(fast_sim=True):
            FrontendSimulator(btb=BTB(BTBConfig(entries=64, ways=4))
                              ).simulate(small_trace, warmup_fraction=0.2)
        entries = list(simk._pass_memo._entries.values())
        assert entries, "the simulation memoized no pass"
        gc.collect()
        for _, value in entries:
            for member in value:
                if type(member) is tuple:
                    assert untracked(member)
                else:
                    assert isinstance(member, (np.ndarray, int, float,
                                               bytes))

    def test_fresh_profile_holds_int64_columns(self, small_trace,
                                               tiny_config):
        profile = profile_trace(small_trace, tiny_config)
        for name in COLUMNS:
            column = getattr(profile, name)
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.int64
            assert len(column) == profile.num_branches > 0
            assert untracked(column)
        assert "branches" not in vars(profile)
        assert "branches" not in profile.__getstate__()


class TestColumnarProfile:
    def test_kernel_and_reference_paths_agree(self, small_app_trace):
        config = BTBConfig(entries=1024, ways=4)
        clear_stream_cache()
        fast = profile_trace(small_app_trace, config)
        clear_stream_cache()
        counters = get_registry().counters
        disabled = counters.get("btb/fallback/disabled", 0)
        with runtime.override(fast_replay=False):
            reference = profile_trace(small_app_trace, config)
        assert counters.get("btb/fallback/disabled", 0) == disabled + 1
        for name in COLUMNS:
            assert np.array_equal(getattr(fast, name),
                                  getattr(reference, name)), name
            assert getattr(fast, name).dtype == \
                getattr(reference, name).dtype
        assert fast.branches == reference.branches
        assert fast.stats == reference.stats
        assert pickle.dumps(fast) == pickle.dumps(reference)

    def test_two_computations_pickle_identically(self, small_app_trace):
        config = BTBConfig(entries=1024, ways=4)
        blobs = []
        for _ in range(2):
            clear_stream_cache()
            blobs.append(pickle.dumps(profile_trace(small_app_trace, config),
                                      protocol=pickle.HIGHEST_PROTOCOL))
        assert blobs[0] == blobs[1]
        assert pickle.loads(blobs[0]) == pickle.loads(blobs[1])

    def test_branches_is_a_read_only_view_of_the_columns(self, small_trace,
                                                         tiny_config):
        profile = profile_trace(small_trace, tiny_config)
        view = profile.branches
        assert isinstance(view, types.MappingProxyType)
        with pytest.raises(TypeError):
            view[0x4] = BranchProfile(pc=0x4)
        assert list(view) == profile.pcs.tolist()
        first = view[int(profile.pcs[0])]
        assert first == BranchProfile(*(int(getattr(profile, name)[0])
                                        for name in COLUMNS))
        assert profile.hit_to_taken() == {
            pc: b.hit_to_taken for pc, b in view.items()}

    def test_from_branches_round_trips(self, tiny_config):
        rows = [BranchProfile(pc=0x40, taken=3, hits=2, inserts=1),
                BranchProfile(pc=0x8, taken=5, bypasses=5),
                BranchProfile(pc=0x0)]
        profile = OptProfile.from_branches("t", tiny_config, rows)
        assert list(profile.branches.values()) == rows
        assert profile.hit_to_taken_column().tolist() == [
            b.hit_to_taken for b in rows]
        empty = OptProfile.from_branches("e", tiny_config, [])
        assert empty.num_branches == 0
        assert empty == OptProfile(trace_name="e", config=tiny_config)


def hint_digest(hints) -> str:
    """sha256 over the map's header and every (pc, category), in order."""
    h = hashlib.sha256(struct.pack("<ii", hints.num_categories,
                                   hints.default_category))
    for pc, category in hints.categories.items():
        h.update(struct.pack("<qB", pc, category))
    return h.hexdigest()


def temperature_digest(temps: TemperatureProfile) -> str:
    """sha256 over every (pc, percentage bits, taken count), in order."""
    h = hashlib.sha256()
    for pc, y in temps.percentages.items():
        h.update(struct.pack("<qdq", pc, y, temps.taken_counts[pc]))
    return h.hexdigest()


#: (app, BTB entries) -> (hint map digest, temperature digest) of a
#: 20k-record input-0 trace, recorded from the per-branch object profile
#: that preceded the columns.
HINT_DIGESTS = {
    ("cassandra", 8192): (
        "8fe0b46055d9bf92959e53faeb03a438c7b4dbc24ac4e7772f70098d02f716ea",
        "c65b13d148275b0b5f7deac51dd5dbbff88defc87bf5e0762f574825cd8ccfae"),
    ("cassandra", 1024): (
        "8fe0b46055d9bf92959e53faeb03a438c7b4dbc24ac4e7772f70098d02f716ea",
        "9ed72fc4bd1b29c6c07c097e0b8321c19c8f9f2430ec8be63bfb3428658da940"),
    ("drupal", 8192): (
        "26a95193c096b7e29616818a02e65c0bfc6465d8173f799fdbf41bf7b75b88c1",
        "7c10b6592b65525107d9370fe6194937e0905dcdfa21b227232b996c555df6cf"),
    ("drupal", 1024): (
        "26a95193c096b7e29616818a02e65c0bfc6465d8173f799fdbf41bf7b75b88c1",
        "c9d22fe5446de25c8bbbdd8f8bcff5dc4810ef8ed7a7573a7e01e34412c3dc57"),
    ("kafka", 8192): (
        "076c0d3bf8f9791a205df5293cd549e8c11a23cb7db9a7da0853952893395802",
        "821f08bd74b2d9ef498d19e180980b155450499f628e686646e4d8338862541d"),
    ("kafka", 1024): (
        "076c0d3bf8f9791a205df5293cd549e8c11a23cb7db9a7da0853952893395802",
        "d5a983249756ec86e88a6322252f0351ab2833b80a1f15e3a00d6f7de70980a8"),
}

CONFIGS = {8192: DEFAULT_BTB_CONFIG, 1024: BTBConfig(entries=1024, ways=4)}


@pytest.mark.parametrize("app", ["cassandra", "drupal", "kafka"])
def test_hint_categories_are_pinned(app):
    trace = make_app_trace(app, length=20_000)
    for entries, config in CONFIGS.items():
        temps = TemperatureProfile.from_opt_profile(
            profile_trace(trace, config))
        hints = ThresholdQuantizer().quantize(temps, default_category=1)
        assert (hint_digest(hints), temperature_digest(temps)) == \
            HINT_DIGESTS[(app, entries)], (app, entries)
