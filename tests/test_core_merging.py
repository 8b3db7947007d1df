"""Unit tests for profile merging and drift monitoring."""

import pytest

from repro.btb.config import BTBConfig
from repro.core.merging import (merge_profiles, merge_temperatures,
                                profile_drift)
from repro.core.profiler import BranchProfile, OptProfile


def profile_of(name, branches, config=BTBConfig()):
    return OptProfile.from_branches(
        name, config, (BranchProfile(pc=pc, taken=taken, hits=hits)
                       for pc, (taken, hits) in branches.items()))


class TestMerge:
    def test_counts_add(self):
        a = profile_of("a", {0x4: (10, 5), 0x8: (4, 4)})
        b = profile_of("b", {0x4: (10, 9)})
        merged = merge_profiles([a, b])
        assert merged.branches[0x4].taken == 20
        assert merged.branches[0x4].hits == 14
        assert merged.branches[0x8].taken == 4
        assert merged.trace_name == "a+b"

    def test_weights_scale(self):
        a = profile_of("a", {0x4: (10, 10)})
        b = profile_of("b", {0x4: (10, 0)})
        merged = merge_profiles([a, b], weights=[3.0, 1.0])
        assert merged.branches[0x4].hit_to_taken == pytest.approx(75.0)

    def test_mixed_configs_rejected(self):
        a = profile_of("a", {0x4: (1, 1)})
        b = profile_of("b", {0x4: (1, 1)}, config=BTBConfig(entries=1024,
                                                            ways=4))
        with pytest.raises(ValueError, match="different BTB"):
            merge_profiles([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_profiles([])

    def test_bad_weights_rejected(self):
        a = profile_of("a", {0x4: (1, 1)})
        with pytest.raises(ValueError):
            merge_profiles([a], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            merge_profiles([a], weights=[-1.0])

    def test_merge_temperatures(self):
        a = profile_of("a", {0x4: (10, 10)})
        b = profile_of("b", {0x4: (10, 0)})
        temps = merge_temperatures([a, b])
        assert temps.percentages[0x4] == pytest.approx(50.0)

    def test_merged_profile_improves_on_either_input(self, small_trace,
                                                     tiny_config):
        """A profile merged across inputs works on both (the deployment
        story: many profiling runs feed one hint set)."""
        from repro.core.profiler import profile_trace
        from repro.core.hints import ThresholdQuantizer
        from repro.core.temperature import TemperatureProfile
        from repro.btb.btb import BTB, run_btb
        from repro.btb.replacement.thermometer import ThermometerPolicy
        from repro.btb.replacement.lru import LRUPolicy

        half = len(small_trace) // 2
        first, second = small_trace[:half], small_trace[half:]
        merged = merge_profiles([
            profile_trace(first, tiny_config),
            profile_trace(second, tiny_config)])
        hints = ThresholdQuantizer().quantize(
            TemperatureProfile.from_opt_profile(merged),
            default_category=1)
        therm = run_btb(small_trace, BTB(
            tiny_config, ThermometerPolicy(hints, default_category=1)))
        lru = run_btb(small_trace, BTB(tiny_config, LRUPolicy()))
        assert therm.hits >= lru.hits


class TestDrift:
    def test_identical_profiles_no_drift(self):
        a = profile_of("a", {0x4: (10, 9), 0x8: (10, 1)})
        drift = profile_drift(a, a)
        assert drift["category_change_rate"] == 0.0
        assert drift["new_branch_rate"] == 0.0
        assert drift["mean_abs_delta"] == 0.0

    def test_category_flip_detected(self):
        old = profile_of("old", {0x4: (10, 9)})       # hot
        new = profile_of("new", {0x4: (10, 2)})       # cold
        drift = profile_drift(old, new)
        assert drift["category_change_rate"] == 1.0
        assert drift["mean_abs_delta"] == pytest.approx(70.0)

    def test_new_branches_counted(self):
        old = profile_of("old", {0x4: (10, 9)})
        new = profile_of("new", {0x4: (10, 9), 0x8: (5, 5)})
        drift = profile_drift(old, new)
        assert drift["new_branch_rate"] == pytest.approx(0.5)

    def test_disjoint_profiles(self):
        old = profile_of("old", {0x4: (1, 1)})
        new = profile_of("new", {0x8: (1, 1)})
        drift = profile_drift(old, new)
        assert drift["new_branch_rate"] == 1.0
        assert drift["category_change_rate"] == 0.0
