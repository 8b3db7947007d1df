"""Cache correctness for the content-addressed artifact store.

Covers the properties the whole engine design leans on: key stability
across processes, invalidation when any recipe ingredient changes,
corrupted files being detected and recomputed (never crashing), and
concurrent writers never torn-writing an artifact.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.btb.config import BTBConfig
from repro.frontend.params import FrontendParams
from repro.harness.engine import (ArtifactStore, SimJob, artifact_key,
                                  run_job)
from tests.helpers import store_cache

#: Store accounting is read from a per-test registry.
pytestmark = pytest.mark.usefixtures("fresh_registry")

JOB = SimJob(app="tomcat", policy="srrip", length=4000, mode="misses")


class TestKeyStability:
    def test_key_is_deterministic(self):
        assert JOB.cache_key() == JOB.cache_key()
        assert artifact_key("trace", app="a", length=10) == \
            artifact_key("trace", app="a", length=10)

    def test_key_stable_across_processes(self):
        """The same job must hash identically in a fresh interpreter with a
        different hash seed — otherwise workers could never share
        artifacts."""
        script = (
            "from repro.harness.engine import SimJob;"
            "print(SimJob(app='tomcat', policy='srrip', length=4000, "
            "mode='misses').cache_key())"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        for hash_seed in ("0", "12345"):
            env = {**os.environ, "PYTHONPATH": str(src),
                   "PYTHONHASHSEED": hash_seed}
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout.strip() == JOB.cache_key()

    def test_key_covers_every_recipe_ingredient(self):
        base = JOB.cache_key()
        variants = [
            SimJob(app="python", policy="srrip", length=4000,
                   mode="misses"),
            SimJob(app="tomcat", policy="lru", length=4000, mode="misses"),
            SimJob(app="tomcat", policy="srrip", length=5000,
                   mode="misses"),
            SimJob(app="tomcat", policy="srrip", length=4000, mode="sim"),
            SimJob(app="tomcat", policy="srrip", length=4000,
                   mode="misses", input_id=1),
            SimJob(app="tomcat", policy="srrip", length=4000,
                   mode="misses", btb_config=BTBConfig(entries=4096,
                                                       ways=4)),
            SimJob(app="tomcat", policy="srrip", length=4000,
                   mode="misses",
                   params=FrontendParams(btb_miss_penalty=20.0)),
            SimJob(app="tomcat", policy="srrip", length=4000,
                   mode="misses", thresholds=(30.0, 60.0)),
            SimJob(app="tomcat", policy="srrip", length=4000,
                   mode="misses", default_category=0),
            SimJob(app="tomcat", policy="srrip", length=4000,
                   mode="misses", warmup_fraction=0.1),
        ]
        keys = [v.cache_key() for v in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys)

    def test_salt_invalidates(self):
        assert JOB.cache_key(salt="1") != JOB.cache_key(salt="2")

    def test_dataclass_type_is_part_of_the_key(self):
        """Two different config types with coincidentally equal fields
        must not collide."""
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class LookalikeConfig:
            entries: int = 8
            ways: int = 8

        a = artifact_key("x", config=BTBConfig(entries=8, ways=8))
        b = artifact_key("x", config=LookalikeConfig())
        assert a != b

    def test_memoized_key_equals_the_recipe_hash(self):
        jobs = [JOB, SimJob(app="kafka", policy="thermometer",
                            length=4000, mode="sim",
                            thresholds=(40.0, 90.0))]
        for job in jobs:
            for salt in ("1", "2"):
                for _ in range(2):  # computed, then memoized
                    assert job.cache_key(salt) == artifact_key(
                        job.mode, salt=salt, **job.key_fields())

    def test_list_thresholds_hash_and_key_like_the_tuple(self):
        as_list = SimJob(app="tomcat", policy="srrip", length=4000,
                         mode="misses", thresholds=[50.0, 80.0])
        as_tuple = SimJob(app="tomcat", policy="srrip", length=4000,
                          mode="misses", thresholds=(50.0, 80.0))
        assert as_list.thresholds == (50.0, 80.0)
        assert hash(as_list) == hash(as_tuple) and as_list == as_tuple
        assert as_list.cache_key() == as_tuple.cache_key() \
            == JOB.cache_key()

    def test_trace_context_does_not_change_the_key(self):
        from dataclasses import replace
        from repro.telemetry.tracing import new_root_context
        traced = replace(JOB, trace_context=new_root_context())
        assert traced.cache_key() == JOB.cache_key()


class TestRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = {"rows": [1, 2.5, "x"], "nested": (1, 2)}
        key = store.key("misc", tag="roundtrip")
        store.put("misc", key, payload)
        assert store.get("misc", key) == payload
        assert store_cache(store)["hits"] == 1
        assert store_cache(store)["bytes_written"] > 0

    def test_absent_key_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("misc", store.key("misc", tag="nope")) is None
        assert store_cache(store)["misses"] == 1

    def test_fetch_computes_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return "value"

        key = store.key("misc", tag="fetch")
        assert store.fetch("misc", key, compute) == "value"
        assert store.fetch("misc", key, compute) == "value"
        assert calls == [1]
        # One read per fetch: the cold fetch is one miss, the warm one
        # one hit.
        cache = store_cache(store)
        assert (cache["misses"], cache["hits"]) == (1, 1)

    def test_cold_job_counts_one_miss_per_computed_artifact(self,
                                                             tmp_path):
        """A cold one-job sweep reads each artifact it computes once:
        the miss count equals the number of artifacts stored."""
        from repro.harness.engine import ExperimentEngine
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1,
                                  max_retries=0)
        engine.run([SimJob(app="tomcat", policy="lru", length=4000,
                           mode="misses")])
        stored = [p for p in tmp_path.rglob("*.pkl")
                  if "runs" not in p.parts]
        assert len(stored) == 2  # the trace and the result
        assert engine.last_run_cache()["misses"] == len(stored)
        assert engine.last_run_cache()["hits"] == 0


class TestCorruption:
    def _seed_artifact(self, store: ArtifactStore):
        key = store.key("misc", tag="corrupt")
        store.put("misc", key, [1, 2, 3])
        return key, store.path("misc", key)

    @pytest.mark.parametrize("damage", [
        b"",                                 # truncated to nothing
        b"garbage",                          # too short / bad magic
        b"XXXX" + b"\x00" * 40,              # wrong magic
    ])
    def test_damaged_file_is_a_recomputed_miss(self, tmp_path, damage):
        store = ArtifactStore(tmp_path)
        key, path = self._seed_artifact(store)
        path.write_bytes(damage)
        assert store.get("misc", key) is None
        assert store_cache(store)["corrupt"] == 1
        assert not path.exists()  # quarantined, not left to crash again
        assert store.fetch("misc", key, lambda: [1, 2, 3]) == [1, 2, 3]

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key, path = self._seed_artifact(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get("misc", key) is None
        assert store_cache(store)["corrupt"] == 1

    def test_corrupt_job_artifact_recomputes(self, tmp_path):
        """End-to-end: a mangled cached SimResult is silently rebuilt."""
        store = ArtifactStore(tmp_path)
        first = run_job(JOB, store=store)
        path = store.path(JOB.mode, JOB.cache_key(salt=store.salt))
        path.write_bytes(b"not a pickle")
        second = run_job(JOB, store=store)
        assert not second.cached
        assert second.value == first.value

    def test_quota_rejection_returns_the_value_uncached(self, tmp_path):
        """The store is a cache: an over-quota namespace still computes
        — run_job returns the value with no error instead of failing
        the attempt (QuotaExceededError's documented contract)."""
        baseline = run_job(JOB, store=ArtifactStore(tmp_path / "warm"))
        tight = ArtifactStore(tmp_path / "svc").namespace(
            "tiny", quota_bytes=1)
        result = run_job(JOB, store=tight)
        assert result.error is None
        assert not result.cached
        assert result.value == baseline.value
        assert store_cache(tight)["quota_rejected"] > 0
        # Nothing landed on disk: a rerun recomputes, same answer.
        rerun = run_job(JOB, store=tight)
        assert not rerun.cached
        assert rerun.value == baseline.value


class TestAtomicity:
    def test_no_temp_droppings_after_put(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("misc", tag="tmp")
        store.put("misc", key, "x")
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_stray_writer_temp_is_invisible_to_readers(self, tmp_path):
        """A crashed writer's temp file must never satisfy a get()."""
        store = ArtifactStore(tmp_path)
        key = store.key("misc", tag="stray")
        path = store.path("misc", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        (path.parent / f".{key[:8]}.crashed.tmp").write_bytes(b"partial")
        assert store.get("misc", key) is None

    def test_concurrent_writers_never_torn_write(self, tmp_path):
        """Hammer one key from several threads (each with its own store
        handle, as processes would); every read must be a valid artifact
        or a clean miss — never an exception, never a mangled value."""
        key = artifact_key("misc", tag="race")
        payload = list(range(500))
        errors = []

        def writer():
            store = ArtifactStore(tmp_path)
            try:
                for _ in range(25):
                    store.put("misc", key, payload)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            store = ArtifactStore(tmp_path)
            try:
                for _ in range(50):
                    value = store.get("misc", key)
                    assert value is None or value == payload
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        final = ArtifactStore(tmp_path)
        assert final.get("misc", key) == payload
        # No reader of any handle ever saw a torn file.
        assert store_cache(final)["corrupt"] == 0
