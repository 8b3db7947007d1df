"""Unit tests for the BTB model itself (independent of policy details)."""

import pytest

from repro.btb.btb import BTB, BTBStats, IndirectBTB, btb_access_stream, \
    run_btb
from repro.btb.config import BTBConfig
from repro.btb.observer import EventRecorder
from repro.btb.replacement.base import BYPASS, ReplacementPolicy
from repro.btb.replacement.lru import LRUPolicy
from repro.trace.record import BranchKind, BranchTrace

from tests.helpers import branch


class TestBTBBasics:
    def test_miss_then_hit(self, tiny_config):
        btb = BTB(tiny_config)
        assert not btb.access(0x40, 0x100)
        assert btb.access(0x40, 0x100)
        assert btb.stats.hits == 1
        assert btb.stats.misses == 1

    def test_lookup_nonmutating(self, tiny_config):
        btb = BTB(tiny_config)
        assert btb.lookup(0x40) is None
        assert btb.stats.accesses == 0
        btb.access(0x40, 0x999)
        assert btb.lookup(0x40) == 0x999
        assert btb.contains(0x40)

    def test_target_updated_on_hit(self, tiny_config):
        btb = BTB(tiny_config)
        btb.access(0x40, 0x100)
        btb.access(0x40, 0x200)
        assert btb.lookup(0x40) == 0x200

    def test_occupancy_and_resident_pcs(self, tiny_config):
        btb = BTB(tiny_config)
        for pc in (0x40, 0x44, 0x48):
            btb.access(pc, 0)
        assert btb.occupancy == 3
        assert set(btb.resident_pcs()) == {0x40, 0x44, 0x48}

    def test_entry_view(self, tiny_config):
        btb = BTB(tiny_config)
        btb.access(0x40, 0x123)
        s = tiny_config.set_index(0x40)
        entries = [btb.entry(s, w) for w in range(tiny_config.ways)]
        stored = [e for e in entries if e is not None]
        assert len(stored) == 1
        assert stored[0].pc == 0x40
        assert stored[0].target == 0x123
        assert not stored[0].reused

    def test_eviction_on_full_set(self, tiny_config):
        btb = BTB(tiny_config, LRUPolicy())
        # 4 sets x 2 ways; these three pcs map to set 0 of 4 sets.
        same_set = [0x0, 0x10, 0x20]
        for pc in same_set:
            btb.access(pc, 0)
        assert btb.stats.evictions == 1
        assert not btb.contains(0x0)       # LRU victim

    def test_insert_is_not_a_demand_access(self, tiny_config):
        btb = BTB(tiny_config)
        assert btb.insert(0x40, 0x100)
        assert btb.stats.accesses == 0
        assert btb.contains(0x40)

    def test_insert_existing_updates_target_only(self, tiny_config):
        btb = BTB(tiny_config)
        btb.insert(0x40, 0x100)
        assert not btb.insert(0x40, 0x200)
        assert btb.lookup(0x40) == 0x200

    def test_invalid_victim_rejected(self, tiny_config):
        class BadPolicy(ReplacementPolicy):
            name = "bad"
            def choose_victim(self, set_idx, resident_pcs, incoming_pc,
                              index):
                return 99
        btb = BTB(tiny_config, BadPolicy())
        for pc in (0x0, 0x10):
            btb.access(pc, 0)
        with pytest.raises(ValueError, match="invalid victim"):
            btb.access(0x20, 0)

    def test_bypass_policy_counts_bypasses(self, tiny_config):
        class AlwaysBypass(ReplacementPolicy):
            name = "always-bypass"
            supports_bypass = True
            def choose_victim(self, set_idx, resident_pcs, incoming_pc,
                              index):
                return BYPASS
        btb = BTB(tiny_config, AlwaysBypass())
        for pc in (0x0, 0x10, 0x20):
            btb.access(pc, 0)
        assert btb.stats.bypasses == 1
        assert btb.stats.evictions == 0
        assert not btb.contains(0x20)

    def test_observer_sees_eviction(self, tiny_config):
        btb = BTB(tiny_config, LRUPolicy())
        recorder = btb.add_observer(EventRecorder())
        for pc in (0x0, 0x10, 0x20):
            btb.access(pc, 0)
        evictions = [(e.pc, e.other) for e in recorder.of_kind("evict")]
        assert evictions == [(0x0, 0x20)]

    def test_observer_full_event_stream(self, tiny_config):
        btb = BTB(tiny_config, LRUPolicy())
        recorder = btb.add_observer(EventRecorder())
        btb.access(0x0, 0x100, index=0)     # fill
        btb.access(0x10, 0x200, index=1)    # fill
        btb.access(0x0, 0x104, index=2)     # hit (target drift)
        btb.access(0x20, 0x300, index=3)    # evict 0x10 (LRU) + fill
        kinds = [e.kind for e in recorder.events]
        assert kinds == ["fill", "fill", "hit", "evict", "fill"]
        hit = recorder.of_kind("hit")[0]
        assert (hit.pc, hit.other, hit.index) == (0x0, 0x104, 2)
        evict = recorder.of_kind("evict")[0]
        assert (evict.pc, evict.other) == (0x10, 0x20)
        assert btb.stats.target_mismatches == 1
        btb.remove_observer(recorder)
        btb.access(0x30, 0x400, index=4)
        assert len(recorder.events) == 5

    def test_observer_sees_bypass(self, tiny_config):
        class AlwaysBypass(ReplacementPolicy):
            name = "always-bypass"
            supports_bypass = True
            def choose_victim(self, set_idx, resident_pcs, incoming_pc,
                              index):
                return BYPASS
        btb = BTB(tiny_config, AlwaysBypass())
        recorder = btb.add_observer(EventRecorder())
        for pc in (0x0, 0x10, 0x20):
            btb.access(pc, 0)
        bypasses = recorder.of_kind("bypass")
        assert len(bypasses) == 1
        assert bypasses[0].pc == 0x20
        assert bypasses[0].way == -1


class TestBTBStats:
    def test_rates(self):
        stats = BTBStats(accesses=10, hits=7, misses=3)
        assert stats.hit_rate == 0.7
        assert stats.miss_rate == pytest.approx(0.3)

    def test_empty_rates(self):
        assert BTBStats().hit_rate == 0.0
        assert BTBStats().miss_rate == 0.0

    def test_mpki(self):
        stats = BTBStats(misses=5)
        assert stats.mpki(1000) == 5.0
        assert stats.mpki(0) == 0.0

    def test_addition(self):
        total = BTBStats(accesses=1, hits=1) + BTBStats(accesses=2, misses=2)
        assert total.accesses == 3
        assert total.hits == 1
        assert total.misses == 2


class TestAccessStream:
    def test_excludes_not_taken_and_returns(self):
        records = [
            branch(0x40),                                         # in
            branch(0x44, kind=BranchKind.COND_DIRECT, taken=False),
            branch(0x48, kind=BranchKind.RETURN),                 # out: RAS
            branch(0x4C, kind=BranchKind.CALL_DIRECT),            # in
        ]
        trace = BranchTrace.from_records(records)
        pcs, targets = btb_access_stream(trace)
        assert list(pcs) == [0x40, 0x4C]
        assert len(targets) == 2

    def test_run_btb_counts_match_stream(self, tiny_config, small_trace):
        btb = BTB(tiny_config)
        stats = run_btb(small_trace, btb)
        pcs, _ = btb_access_stream(small_trace)
        assert stats.accesses == len(pcs)


class TestIndirectBTB:
    def test_learns_target(self):
        ibtb = IndirectBTB(entries=64)
        assert not ibtb.predict_and_update(0x40, 0x100)
        # Repeating the same (history, target) path becomes predictable.
        hits = sum(ibtb.predict_and_update(0x40, 0x100) for _ in range(8))
        assert hits >= 6

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            IndirectBTB(entries=0)
