"""The columnar access stream (repro.trace.stream)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.btb.config import BTBConfig
from repro.trace.record import BranchKind, BranchRecord, BranchTrace
from repro.trace.stream import (AccessStream, NEVER, TraceMemo,
                                access_stream_for, clear_stream_cache,
                                compute_next_use_indices,
                                compute_set_indices)

from .helpers import branch, trace_of_pcs


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_stream_cache()
    yield
    clear_stream_cache()


def mixed_trace():
    """Taken/not-taken/return mix exercising the access mask."""
    records = [
        branch(0x100),                                        # access 0
        branch(0x200, kind=BranchKind.COND_DIRECT, taken=False),
        branch(0x300, kind=BranchKind.CALL_DIRECT),           # access 1
        branch(0x400, kind=BranchKind.RETURN),                # masked out
        branch(0x100),                                        # access 2
        branch(0x500, kind=BranchKind.UNCOND_INDIRECT),       # access 3
    ]
    return BranchTrace.from_records(records, name="mixed")


class TestNextUse:
    def test_pinned_values(self):
        got = compute_next_use_indices(np.array([1, 2, 1, 3, 2]))
        assert got.tolist() == [2, 4, NEVER, NEVER, NEVER]

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        pcs = rng.integers(0, 40, size=500)
        naive = []
        for i in range(len(pcs)):
            later = np.flatnonzero(pcs[i + 1:] == pcs[i])
            naive.append(int(later[0]) + i + 1 if len(later) else NEVER)
        assert compute_next_use_indices(pcs).tolist() == naive

    def test_empty_and_singleton(self):
        assert compute_next_use_indices(np.array([], dtype=np.int64)).size == 0
        assert compute_next_use_indices(np.array([5])).tolist() == [NEVER]


class TestSetIndices:
    def test_matches_scalar_set_index(self):
        config = BTBConfig(entries=256, ways=4)
        pcs = np.arange(0, 4096, 12, dtype=np.int64)
        expected = [config.set_index(int(pc)) for pc in pcs]
        assert compute_set_indices(pcs, config).tolist() == expected

    def test_subclass_override_uses_scalar_fallback(self):
        class OddConfig(BTBConfig):
            def set_index(self, pc):
                return (pc // 8) % self.num_sets

        config = OddConfig(entries=64, ways=2)
        pcs = np.arange(0, 512, 4, dtype=np.int64)
        expected = [config.set_index(int(pc)) for pc in pcs]
        assert compute_set_indices(pcs, config).tolist() == expected


class TestAccessStream:
    def test_masks_not_taken_and_returns(self):
        stream = AccessStream(mixed_trace(), BTBConfig(entries=64, ways=2))
        assert stream.pcs_list == (0x100, 0x300, 0x100, 0x500)
        assert stream.trace_positions.tolist() == [0, 2, 4, 5]
        assert len(stream) == 4

    def test_set_indices_and_lists_are_plain_ints(self):
        config = BTBConfig(entries=64, ways=2)
        stream = AccessStream(mixed_trace(), config)
        assert stream.sets_list == tuple(config.set_index(pc)
                                         for pc in stream.pcs_list)
        assert all(type(v) is int for v in stream.pcs_list)
        assert all(type(v) is int for v in stream.sets_list)

    def test_next_use_column(self):
        stream = AccessStream(mixed_trace(), BTBConfig(entries=64, ways=2))
        assert stream.next_use.tolist() == [2, NEVER, NEVER, NEVER]

    def test_next_use_of_demand_and_prefetch_paths(self):
        stream = AccessStream(mixed_trace(), BTBConfig(entries=64, ways=2))
        # Demand path: pc is the stream record at the index.
        assert stream.next_use_of(0x100, 0) == 2
        # Prefetch path: pc differs from the record -> occurrence bisect.
        assert stream.next_use_of(0x100, 1) == 2
        assert stream.next_use_of(0x100, 2) == NEVER
        assert stream.next_use_of(0xDEAD, 0) == NEVER

    def test_trace_columns_cover_full_trace(self):
        trace = mixed_trace()
        stream = AccessStream(trace, BTBConfig(entries=64, ways=2))
        pcs, targets, kinds, taken, ilens = stream.trace_columns()
        assert pcs == tuple(trace.pcs.tolist())
        assert taken == tuple(trace.taken.tolist())
        assert len(kinds) == len(trace) == len(ilens) == len(targets)
        assert stream.trace_columns() is stream.core._trace_columns  # memoized

    def test_empty_trace(self):
        trace = BranchTrace.from_records([], name="empty")
        stream = AccessStream(trace, BTBConfig(entries=64, ways=2))
        assert len(stream) == 0
        assert stream.next_use.size == 0
        assert stream.pcs_list == ()


class TestMemo:
    def test_same_trace_and_config_share_one_stream(self):
        trace = trace_of_pcs([0x10, 0x20, 0x10])
        config = BTBConfig(entries=64, ways=2)
        first = access_stream_for(trace, config)
        assert access_stream_for(trace, config) is first

    def test_distinct_configs_get_distinct_streams(self):
        trace = trace_of_pcs([0x10, 0x20, 0x10])
        a = access_stream_for(trace, BTBConfig(entries=64, ways=2))
        b = access_stream_for(trace, BTBConfig(entries=128, ways=4))
        assert a is not b
        assert a.config != b.config

    def test_clear_drops_entries(self):
        trace = trace_of_pcs([0x10, 0x20])
        config = BTBConfig(entries=64, ways=2)
        first = access_stream_for(trace, config)
        clear_stream_cache()
        assert access_stream_for(trace, config) is not first


class TestTraceMemo:
    def test_keys_on_trace_identity_and_key(self):
        memo = TraceMemo(capacity=4)
        a = trace_of_pcs([0x10, 0x20])
        b = trace_of_pcs([0x10, 0x20])
        memo.put(a, "k", 1)
        assert memo.get(a, "k") == 1
        assert memo.get(a, "other") is None
        assert memo.get(b, "k") is None   # equal contents, other object

    def test_lru_bound(self):
        memo = TraceMemo(capacity=2)
        trace = trace_of_pcs([0x10, 0x20])
        memo.put(trace, 1, "one")
        memo.put(trace, 2, "two")
        memo.get(trace, 1)                 # 2 is now least recent
        memo.put(trace, 3, "three")
        assert len(memo) == 2
        assert memo.get(trace, 2) is None
        assert memo.get(trace, 1) == "one"

    def test_dead_trace_never_aliases(self):
        memo = TraceMemo(capacity=4)
        trace = trace_of_pcs([0x10, 0x20])
        memo.put(trace, "k", 1)
        full_key, (_, value) = next(iter(memo._entries.items()))
        # A recycled id() for a different live trace must miss.
        other = trace_of_pcs([0x10, 0x20])
        memo._entries[full_key] = (lambda: other, value)
        assert memo.get(trace, "k") is None
        assert len(memo) == 0

    def test_clear_stream_cache_empties_every_memo(self):
        memo = TraceMemo(capacity=4)
        trace = trace_of_pcs([0x10, 0x20])
        memo.put(trace, "k", 1)
        clear_stream_cache()
        assert len(memo) == 0

    def test_concurrent_threads_keep_the_bound(self):
        """Interleaved get/put/evict from more threads than cores: no
        lost-update crash, no wrong value, never more than capacity."""
        memo = TraceMemo(capacity=3)
        traces = [trace_of_pcs([0x10 * (i + 1)]) for i in range(4)]
        errors = []

        def worker(seed):
            try:
                for step in range(2000):
                    trace = traces[(seed + step) % len(traces)]
                    key = step % 5
                    value = memo.get(trace, key)
                    assert value is None or value == (id(trace), key)
                    memo.put(trace, key, (id(trace), key))
                    assert len(memo) <= memo.capacity
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= memo.capacity
