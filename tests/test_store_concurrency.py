"""Concurrent :class:`~repro.harness.engine.ArtifactStore` access.

The asyncio service interleaves submitters over one shared store (and
its tenant namespaces), so the store must tolerate threaded and
async-interleaved put/get/fetch without torn writes, double-computes,
or cross-namespace leaks.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.telemetry.manifest as manifest
from repro.harness.engine import (ArtifactStore, ExperimentEngine,
                                  QuotaExceededError, SimJob, TENANTS_DIR)
from repro.testing.faults import corrupt_file
from tests.helpers import store_cache

#: Store accounting is read from a per-test registry.
pytestmark = pytest.mark.usefixtures("fresh_registry")


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestThreadedAccess:
    def test_interleaved_put_get_same_key(self, store):
        """Writers racing on one key never expose a torn value: every
        read sees a complete payload from *some* writer."""
        key = store.key("misses", app="tomcat", n=0)
        payloads = [{"writer": w, "blob": list(range(200))}
                    for w in range(8)]

        def write(payload):
            for _ in range(10):
                store.put("misses", key, payload)

        def read():
            seen = []
            for _ in range(40):
                value = store.get("misses", key)
                if value is not None:
                    seen.append(value)
            return seen

        with ThreadPoolExecutor(max_workers=12) as pool:
            writers = [pool.submit(write, p) for p in payloads]
            readers = [pool.submit(read) for _ in range(4)]
            for future in writers:
                future.result()
            for future in readers:
                for value in future.result():
                    assert value in payloads
        assert store_cache(store)["corrupt"] == 0
        assert store.get("misses", key) in payloads

    def test_interleaved_distinct_keys(self, store):
        """Parallel writers on distinct keys all land, counts intact."""
        def work(i):
            key = store.key("trace", app="tomcat", n=i)
            store.put("trace", key, {"n": i})
            assert store.get("trace", key) == {"n": i}

        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(work, i) for i in range(32)]:
                future.result()
        assert store_cache(store)["hits"] == 32
        assert store_cache(store)["corrupt"] == 0

    def test_fetch_single_flight(self, store):
        """Concurrent fetches of one key run the compute exactly once."""
        key = store.key("profile", app="tomcat")
        computes = []
        gate = threading.Event()

        def compute():
            computes.append(threading.get_ident())
            gate.wait(1.0)  # hold the flight open so others pile up
            return {"value": 42}

        def fetch():
            return store.fetch("profile", key, compute)

        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(fetch) for _ in range(6)]
            while not computes:  # one thread entered the compute
                pass
            gate.set()
            values = [future.result() for future in futures]
        assert len(computes) == 1
        assert values == [{"value": 42}] * 6
        # Each caller reads once: the flight's own miss, then one hit
        # per caller that waited on it.
        cache = store_cache(store)
        assert (cache["misses"], cache["hits"]) == (1, 5)

    def test_fetch_distinct_keys_do_not_serialize(self, store):
        """Single-flight is per key: two different keys compute
        concurrently rather than one blocking the other."""
        first_inside = threading.Event()
        release_first = threading.Event()

        def slow():
            first_inside.set()
            assert release_first.wait(5.0)
            return "slow"

        def fast():
            return "fast"

        with ThreadPoolExecutor(max_workers=2) as pool:
            slow_future = pool.submit(
                store.fetch, "trace", store.key("trace", n=1), slow)
            assert first_inside.wait(5.0)
            # While the slow compute holds its flight, another key's
            # fetch must complete unobstructed.
            assert store.fetch("trace", store.key("trace", n=2),
                               fast) == "fast"
            release_first.set()
            assert slow_future.result() == "slow"


class TestNamespaceConcurrency:
    def test_same_namespace_object_across_threads(self, store):
        """namespace() hands every thread the same child store."""
        children = []

        def grab():
            children.append(store.namespace("alice"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(child is children[0] for child in children)

    def test_namespaces_isolate_artifacts_and_stats(self, store):
        """Interleaved tenants never see each other's artifacts, and
        each namespace's counters count only its own traffic."""
        def work(tenant, n):
            ns = store.namespace(tenant)
            for i in range(n):
                key = ns.key("misses", tenant=tenant, i=i)
                ns.put("misses", key, {tenant: i})
                assert ns.get("misses", key) == {tenant: i}

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, "alice", 10),
                       pool.submit(work, "bob", 7)]
            for future in futures:
                future.result()
        alice, bob = store.namespace("alice"), store.namespace("bob")
        summaries = store.namespaces_summary()
        assert summaries["alice"]["cache"]["hits"] == 10
        assert summaries["bob"]["cache"]["hits"] == 7
        # The parent saw none of the traffic.
        assert store_cache(store)["hits"] == 0
        # No artifact leaked across roots: bob's key (content-addressed
        # from fields alice never wrote) is absent from alice's store.
        assert (store.root / TENANTS_DIR / "alice").is_dir()
        key = bob.key("misses", tenant="bob", i=0)
        assert bob.get("misses", key) is not None
        assert alice.get("misses", key) is None

    def test_quota_rejections_are_per_namespace(self, store):
        big = list(range(5000))
        tight = store.namespace("tight", quota_bytes=1)
        roomy = store.namespace("roomy")
        with pytest.raises(QuotaExceededError):
            tight.put("misses", tight.key("misses", n=0), big)
        roomy.put("misses", roomy.key("misses", n=0), big)
        assert store_cache(tight)["quota_rejected"] == 1
        assert store_cache(roomy)["quota_rejected"] == 0
        assert tight.namespace_summary()["cache"]["quota_rejected"] == 1

    def test_quota_tracks_usage_across_writes(self, store):
        ns = store.namespace("metered", quota_bytes=20_000)
        written = 0
        with pytest.raises(QuotaExceededError):
            for i in range(1000):
                ns.put("misses", ns.key("misses", n=i),
                       list(range(500)))
                written += 1
        assert 0 < written < 1000
        assert ns.usage_bytes() <= 20_000
        # Rejection left nothing partial behind and later small writes
        # that fit still succeed... or fail cleanly if nothing fits.
        assert store_cache(ns)["quota_rejected"] == 1

    def test_overwrite_accounting_matches_disk(self, store):
        """Re-putting a key replaces its file; the tracked usage must
        subtract the replaced size, not accumulate every write."""
        ns = store.namespace("meter2", quota_bytes=1_000_000)
        key = ns.key("misses", n=0)
        ns.put("misses", key, list(range(100)))
        ns.put("misses", key, list(range(2000)))
        ns.put("misses", key, [1])
        assert ns.usage_bytes() == ns._scan_usage()

    def test_concurrent_puts_never_overshoot_quota(self, store):
        """The quota check reserves the bytes under the lock, so racing
        writers cannot each pass the check and overshoot together."""
        ns = store.namespace("raced")
        ns.put("misses", ns.key("misses", n="probe"),
               list(range(400)))
        blob = ns.usage_bytes()
        quota = blob * 5
        ns.set_quota(quota)
        rejected = []

        def writer(i):
            try:
                ns.put("misses", ns.key("misses", n=i),
                       list(range(400)))
            except QuotaExceededError:
                rejected.append(i)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rejected
        assert ns._scan_usage() <= quota
        assert ns.usage_bytes() == ns._scan_usage()


class TestAsyncInterleaving:
    def test_async_submitters_share_one_store(self, store):
        """Async tasks interleaving put/get/fetch over threads (the
        service's execution shape) neither tear writes nor
        double-compute."""
        computes = []

        async def tenant_task(tenant, n):
            loop = asyncio.get_running_loop()
            ns = store.namespace(tenant)

            def body(i):
                key = ns.key("profile", app="tomcat", i=i % 3)

                def compute():
                    computes.append((tenant, i % 3))
                    return {tenant: i % 3}

                assert ns.fetch("profile", key,
                                compute) == {tenant: i % 3}

            await asyncio.gather(*(loop.run_in_executor(
                None, body, i) for i in range(n)))

        async def main():
            await asyncio.gather(tenant_task("alice", 12),
                                 tenant_task("bob", 12))

        asyncio.run(main())
        # Each (tenant, key mod 3) computed exactly once: single-flight
        # plus store hits absorb the other 18 calls.
        assert sorted(set(computes)) == sorted(computes)
        assert len(computes) == 6


# ----------------------------------------------------------------------
# The usage counter must match the disk exactly
# ----------------------------------------------------------------------

def _jobs(*policies):
    return [SimJob(app="tomcat", policy=policy, length=4000, mode="misses")
            for policy in policies]


def _recorded_usage(summary, ns):
    """The usage a run summary records for namespace ``ns``."""
    recorded = {row["namespace"]: row["usage_bytes"]
                for row in summary["namespaces"]}
    return recorded[ns.tenant]


@pytest.fixture()
def scan_before_summary(monkeypatch):
    """``watch(ns)`` records a full scan of ``ns`` just before each run
    manifest is written, paired with the usage that run's
    ``summary.json`` records for ``ns``."""
    pairs = []
    real = manifest.write_run_manifest

    def watch(ns):
        def spy(*args, **kwargs):
            scanned = ns._scan_usage()
            run_dir = real(*args, **kwargs)
            summary = json.loads((run_dir / "summary.json").read_text())
            pairs.append((_recorded_usage(summary, ns), scanned))
            return run_dir

        monkeypatch.setattr(manifest, "write_run_manifest", spy)
        return pairs

    return watch


class TestUsageCounterExactness:
    def test_serial_run_on_a_quota_namespace(self, store,
                                             scan_before_summary):
        ns = store.namespace("metered", quota_bytes=50_000_000)
        pairs = scan_before_summary(ns)
        engine = ExperimentEngine(store=ns, jobs=1)
        engine.run(_jobs("lru", "srrip"))
        assert ns.usage_bytes() == ns._scan_usage()
        # Warm: nothing is computed, so the run is one run-log line and
        # the usage it records is the footprint before that append.
        scanned = ns._scan_usage()
        engine.run(_jobs("lru", "srrip"))
        assert ns.usage_bytes() == ns._scan_usage()
        summary = manifest.read_run_manifest(engine.last_manifest).summary
        pairs.append((_recorded_usage(summary, ns), scanned))
        assert len(pairs) == 2
        for recorded, scanned in pairs:
            assert recorded == scanned

    def test_pool_run_reseeds_the_counter(self, store,
                                          scan_before_summary):
        """Pool workers write through their own store objects; the
        counter, seeded before the run, must not miss their bytes."""
        ns = store.namespace("pooled", quota_bytes=50_000_000)
        pairs = scan_before_summary(ns)
        ExperimentEngine(store=ns, jobs=1).run(_jobs("lru"))
        assert ns.usage_bytes() == ns._scan_usage()
        ExperimentEngine(store=ns, jobs=2).run(_jobs("srrip", "fifo",
                                                     "mru"))
        assert ns.usage_bytes() == ns._scan_usage()
        assert [recorded for recorded, _ in pairs] \
            == [scanned for _, scanned in pairs]

    def test_quarantine_keeps_the_count(self, store):
        ns = store.namespace("rotting")
        assert ns.usage_bytes() == 0  # seeds the counter
        key = ns.key("misses", n=0)
        for _round in range(2):  # the second move replaces the first
            ns.put("misses", key, list(range(300)))
            assert corrupt_file(ns.path("misses", key))
            assert ns.get("misses", key) is None
            assert ns.usage_bytes() == ns._scan_usage()
        assert store_cache(ns)["quarantined"] == 2

    def test_namespace_writes_reach_the_parent_count(self, store):
        assert store.usage_bytes() == 0
        ns = store.namespace("child")
        ns.put("misses", ns.key("misses", n=0), list(range(300)))
        ns.note_dir(ns.root / "runs" / "r1")
        (ns.root / "runs" / "r1").mkdir(parents=True)
        (ns.root / "runs" / "r1" / "events.jsonl").write_text("{}\n")
        ns.note_dir(ns.root / "runs" / "r1")
        assert store.usage_bytes() == store._scan_usage()
        assert ns.usage_bytes() == ns._scan_usage()

    def test_note_dir_ignores_directories_outside_the_root(self, store,
                                                          tmp_path):
        before = store.usage_bytes()
        outside = tmp_path / "elsewhere"
        outside.mkdir()
        (outside / "summary.json").write_text("{}\n")
        store.note_dir(outside)
        assert store.usage_bytes() == before == store._scan_usage()

    def test_seeding_while_writers_race_stays_exact(self, store):
        """A seeding scan never counts a write twice or not at all,
        however it interleaves with in-flight puts."""
        ns = store.namespace("racing")
        errors = []

        def writer(w):
            try:
                for i in range(20):
                    ns.put("misses", ns.key("misses", w=w, i=i),
                           list(range(50 * (i + 1))))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        def reseeder():
            try:
                for _ in range(20):
                    ns.drop_usage()
                    ns.usage_bytes()
            except Exception as exc:
                errors.append(exc)

        threads = ([threading.Thread(target=writer, args=(w,))
                    for w in range(4)]
                   + [threading.Thread(target=reseeder)])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert ns.usage_bytes() == ns._scan_usage()
