"""Registry semantics the cross-process manifest merge leans on."""

from __future__ import annotations

import threading

import pytest

from repro.telemetry import tracing
from repro.telemetry.metrics import (DEFAULT_BUCKETS, Histogram,
                                     MetricsRegistry, get_registry,
                                     merge_snapshots, set_registry,
                                     snapshot_delta)
from repro.telemetry.tracing import span


@pytest.fixture
def registry():
    """A fresh enabled registry installed as the process default."""
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestHistogram:
    def test_observe_buckets(self):
        hist = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0, 1, 5, 50, 500):
            hist.observe(value)
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == 556
        assert hist.mean == pytest.approx(111.2)

    def test_merge_adds_bucketwise(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 10.0))
        a.observe(0.5)
        b.observe(5)
        b.observe(50)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3

    def test_merge_rejects_different_bounds(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(2.0, 20.0))
        with pytest.raises(ValueError, match="bounds"):
            a.merge(b)

    def test_dict_round_trip(self):
        hist = Histogram()
        hist.observe(3)
        hist.observe(70000)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.bounds == DEFAULT_BUCKETS
        assert clone.counts == hist.counts
        assert clone.count == 2 and clone.sum == hist.sum


class TestSpans:
    def test_nesting_builds_paths(self, registry):
        with span("sim"):
            with span("warmup"):
                pass
            with span("measure"):
                pass
        with span("sim"):
            pass
        assert registry.spans["sim"][0] == 2
        assert registry.spans["sim/warmup"][0] == 1
        assert registry.spans["sim/measure"][0] == 1
        assert registry.spans["sim"][1] >= (
            registry.spans["sim/warmup"][1]
            + registry.spans["sim/measure"][1])

    def test_exception_closes_span_and_counts_error(self, registry):
        with pytest.raises(RuntimeError):
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
        # Both spans recorded despite the exception, stack unwound.
        assert registry.spans["outer"] == [1, pytest.approx(
            registry.spans["outer"][1]), 1]
        assert registry.spans["outer/inner"][2] == 1
        assert tracing._PATH.get() == ""
        # A later span nests from the top level again.
        with span("after"):
            pass
        assert "after" in registry.spans

    def test_span_seconds(self, registry):
        assert registry.span_seconds("missing") == 0.0
        with span("x"):
            pass
        assert registry.span_seconds("x") >= 0.0

    def test_threads_keep_separate_paths(self, registry):
        """Spans open on two threads at once stay top-level: the path is
        per thread (a contextvar), not one stack shared by every thread
        that records into the registry."""
        barrier = threading.Barrier(2)

        def work(name):
            with span(name):
                barrier.wait(timeout=30)  # both spans open together

        threads = [threading.Thread(target=work, args=(name,))
                   for name in ("misses", "sim")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(registry.spans) == ["misses", "sim"]


class TestDisabled:
    def test_mutators_are_noops(self):
        reg = MetricsRegistry(enabled=False)
        reg.count("a")
        reg.gauge("b", 1.0)
        reg.observe("c", 2.0)
        previous = set_registry(reg)
        try:
            with span("d"):
                pass
        finally:
            set_registry(previous)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {},
                        "spans": {}}

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert MetricsRegistry().enabled is False
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        assert MetricsRegistry().enabled is True


class TestMergeSnapshots:
    def _worker_snapshot(self, n):
        reg = MetricsRegistry(enabled=True)
        reg.count("jobs", n)
        reg.gauge("last_n", n)
        for value in range(n):
            reg.observe("sizes", float(value), bounds=(1.0, 10.0))
        reg.add_span("work", 0.0)
        return reg.snapshot()

    def test_parent_merges_n_workers(self, registry):
        registry.count("jobs", 1)  # parent's own activity
        merged = merge_snapshots(
            [registry.snapshot()]
            + [self._worker_snapshot(n) for n in (2, 3, 4)])
        assert merged["counters"]["jobs"] == 1 + 2 + 3 + 4
        # Gauges are last-write-wins.
        assert merged["gauges"]["last_n"] == 4
        # Histogram buckets add element-wise: values 0..1, 0..2, 0..3
        # → six observations <= 1, three in (1, 10].
        sizes = merged["histograms"]["sizes"]
        assert sizes["count"] == 9
        assert sizes["counts"] == [6, 3, 0]
        assert merged["spans"]["work"]["count"] == 3

    def test_merge_mismatched_histogram_bounds_raises(self):
        a = MetricsRegistry(enabled=True)
        a.observe("h", 1.0, bounds=(1.0,))
        b = MetricsRegistry(enabled=True)
        b.observe("h", 1.0, bounds=(2.0,))
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])


class TestSnapshotDelta:
    def test_delta_subtracts_and_drops_unchanged(self, registry):
        registry.count("stable", 5)
        registry.observe("h", 1.0)
        before = registry.snapshot()
        registry.count("grew", 2)
        registry.observe("h", 3.0)
        with span("s"):
            pass
        delta = snapshot_delta(registry.snapshot(), before)
        assert delta["counters"] == {"grew": 2}
        assert "stable" not in delta["counters"]
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["spans"]["s"]["count"] == 1

    def test_delta_then_merge_reconstructs_total(self, registry):
        registry.count("n", 3)
        before = registry.snapshot()
        registry.count("n", 4)
        delta = snapshot_delta(registry.snapshot(), before)
        merged = merge_snapshots([before, delta])
        assert merged["counters"]["n"] == 7


class TestProcessDefault:
    def test_set_registry_swaps_and_restores(self):
        original = get_registry()
        fresh = MetricsRegistry(enabled=True)
        assert set_registry(fresh) is original
        assert get_registry() is fresh
        set_registry(original)
        assert get_registry() is original
