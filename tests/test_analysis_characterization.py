"""Tests for the §2 characterization analyses: hit-to-taken curves,
correlations, bypass ratios, and the Fig. 2 limit study."""

import numpy as np
import pytest

from repro.analysis.bypass import bypass_ratio_by_class
from repro.analysis.correlation import branch_property_correlations
from repro.analysis.hit_to_taken import (dynamic_cdf_curve,
                                         hit_to_taken_curve,
                                         temperature_regions)
from repro.btb.config import BTBConfig
from repro.core.profiler import profile_trace
from repro.harness import experiments
from repro.harness.runner import Harness, HarnessConfig


@pytest.fixture(scope="module")
def app_trace(request):
    from repro.workloads.datacenter import make_app_trace
    return make_app_trace("tomcat", length=30_000)


@pytest.fixture(scope="module")
def app_profile(app_trace):
    return profile_trace(app_trace, BTBConfig())


class TestCurves:
    def test_sorted_curve_monotone(self, app_trace):
        xs, ys = hit_to_taken_curve(app_trace, BTBConfig())
        assert len(xs) == len(ys) > 0
        assert (np.diff(ys) <= 1e-9).all()

    def test_cdf_reaches_100(self, app_trace):
        xs, cdf = dynamic_cdf_curve(app_trace, BTBConfig())
        assert cdf[-1] == pytest.approx(100.0)
        assert (np.diff(cdf) >= -1e-9).all()

    def test_hot_branches_cover_most_execution(self, app_trace):
        """Fig. 7's claim: the hot half covers the vast majority of
        dynamic execution."""
        xs, cdf = dynamic_cdf_curve(app_trace, BTBConfig())
        half = cdf[len(cdf) // 2]
        assert half > 75.0

    def test_temperature_regions(self):
        xs = np.array([25.0, 50.0, 75.0, 100.0])
        ys = np.array([95.0, 85.0, 60.0, 10.0])
        hot, warm = temperature_regions(xs, ys, (50.0, 80.0))
        assert hot == 50.0
        assert warm == 75.0

    def test_temperature_regions_empty(self):
        assert temperature_regions(np.empty(0), np.empty(0)) == (0.0, 0.0)


class TestCorrelations:
    def test_reuse_distance_is_the_strong_signal(self, app_trace):
        """Fig. 8: only holistic reuse distance correlates strongly.

        Measured under a BTB small enough that the short test trace puts
        real pressure on replacement (temperature needs contested capacity
        to have any signal to correlate with).
        """
        config = BTBConfig(entries=1024, ways=4)
        corr = branch_property_correlations(app_trace, config)
        assert corr.avg_reuse_distance > 0.4
        assert corr.avg_reuse_distance > corr.target_distance
        assert corr.avg_reuse_distance > corr.bias

    def test_as_dict(self, app_trace, app_profile):
        corr = branch_property_correlations(app_trace, BTBConfig(),
                                            profile=app_profile)
        assert set(corr.as_dict()) == {"branch_type", "target_distance",
                                       "bias", "avg_reuse_distance"}

    def test_empty_trace(self):
        from repro.trace.record import BranchTrace
        corr = branch_property_correlations(BranchTrace.empty(),
                                            BTBConfig())
        assert corr.branches_measured == 0


class TestBypass:
    def test_cold_bypasses_most(self, app_trace, app_profile):
        """Fig. 9: cold branches bypass far more than hot branches."""
        cold, warm, hot = bypass_ratio_by_class(app_trace, BTBConfig(),
                                                profile=app_profile)
        assert cold > hot
        assert 0.0 <= hot <= 1.0

    def test_ratios_bounded(self, app_trace, app_profile):
        ratios = bypass_ratio_by_class(app_trace, BTBConfig(),
                                       profile=app_profile)
        assert all(0.0 <= r <= 1.0 for r in ratios)
        assert len(ratios) == 3


@pytest.fixture(scope="module")
def limit_harness():
    return Harness(HarnessConfig(apps=("tomcat",), length=30_000))


@pytest.fixture(scope="module")
def limits(limit_harness):
    return experiments.fig2(limit_harness)


class TestLimitStudy:
    def test_oracles_all_speed_up(self, limit_harness, limits):
        assert limit_harness.lru_sim("tomcat").ipc > 0
        speedups = dict(zip(limits.columns[1:], limits.row("tomcat")[1:]))
        assert set(speedups) == {"perfect_btb", "perfect_bp",
                                 "perfect_icache"}
        assert all(speedup > 0 for speedup in speedups.values()), speedups

    def test_percent_view(self, limit_harness, limits):
        perfect_btb = limit_harness.run_sim(
            limit_harness.trace("tomcat"), None, perfect_btb=True)
        assert limits.row("tomcat")[limits.columns.index("perfect_btb")] \
            == pytest.approx(100 * perfect_btb.speedup_over(
                limit_harness.lru_sim("tomcat")))
