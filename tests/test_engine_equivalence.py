"""Differential equivalence: the parallel engine vs. the serial Harness.

The artifact cache and the process-pool fan-out are only sound if they are
*invisible*: for any job, the engine must produce results bit-identical to
driving a plain in-memory :class:`~repro.harness.runner.Harness` by hand,
whether the cache is cold, warm, or shared between worker processes.
"""

from __future__ import annotations

import pytest

from repro.btb.config import BTBConfig
from repro.harness.engine import ExperimentEngine, SimJob
from repro.harness.runner import Harness, HarnessConfig

#: The differential matrix: enough apps/policies to cover hinted and
#: unhinted construction paths while staying fast.
APPS = ("tomcat", "python")
POLICIES = ("lru", "srrip", "thermometer")
LENGTH = 6000


def _jobs(mode: str):
    return [SimJob(app=app, policy=policy, length=LENGTH, mode=mode)
            for app in APPS for policy in POLICIES]


def _serial_reference(job: SimJob):
    """The pre-engine code path: a bare Harness, no store."""
    h = Harness(job.harness_config())
    trace = h.trace(job.app, job.input_id)
    hints = h.hints(job.app, job.input_id) if job.needs_hints else None
    if job.mode == "misses":
        return h.run_misses(trace, job.policy, hints=hints)
    return h.run_sim(trace, job.policy, hints=hints)


class TestSerialEquivalence:
    @pytest.mark.parametrize("mode", ["sim", "misses"])
    def test_engine_matches_bare_harness(self, tmp_path, mode):
        engine = ExperimentEngine(cache_dir=tmp_path / "store", jobs=1)
        results = engine.run(_jobs(mode))
        for result in results:
            reference = _serial_reference(result.job)
            assert result.value == reference, result.job

    def test_sim_results_identical_field_by_field(self, tmp_path):
        """Spot-check the fields the figures consume, not just __eq__."""
        job = SimJob(app="tomcat", policy="thermometer", length=LENGTH)
        engine = ExperimentEngine(cache_dir=tmp_path / "store", jobs=1)
        value = engine.run([job])[0].value
        reference = _serial_reference(job)
        assert value.cycles == reference.cycles
        assert value.instructions == reference.instructions
        assert value.ipc == reference.ipc
        assert value.btb_stats.hits == reference.btb_stats.hits
        assert value.btb_stats.misses == reference.btb_stats.misses
        assert value.btb_stats.bypasses == reference.btb_stats.bypasses

    def test_hint_maps_identical_through_store(self, tmp_path):
        from repro.harness.engine import ArtifactStore
        config = HarnessConfig(apps=APPS, length=LENGTH)
        bare = Harness(config)
        writer = Harness(config, store=ArtifactStore(tmp_path / "store"))
        reader = Harness(config, store=ArtifactStore(tmp_path / "store"))
        for app in APPS:
            expected = bare.hints(app)
            assert writer.hints(app) == expected   # computed, then stored
            assert reader.hints(app) == expected   # loaded from disk

    def test_no_store_engine_matches_store_engine(self, tmp_path):
        jobs = _jobs("sim")
        stored = ExperimentEngine(cache_dir=tmp_path / "store", jobs=1)
        bare = ExperimentEngine(cache_dir=None, jobs=1)
        assert ([r.value for r in stored.run(jobs)]
                == [r.value for r in bare.run(jobs)])


class TestWarmCacheEquivalence:
    def test_cold_and_warm_runs_identical(self, tmp_path):
        jobs = _jobs("sim")
        cold_engine = ExperimentEngine(cache_dir=tmp_path / "store", jobs=1)
        cold = cold_engine.run(jobs)
        assert not any(r.cached for r in cold)
        # A fresh engine (fresh process-equivalent) over the same store.
        warm_engine = ExperimentEngine(cache_dir=tmp_path / "store", jobs=1)
        warm = warm_engine.run(jobs)
        assert all(r.cached for r in warm)
        assert [r.value for r in warm] == [r.value for r in cold]
        assert warm_engine.last_run_cache()["misses"] == 0
        assert warm_engine.last_run_cache()["hits"] == len(jobs)

    def test_btb_stats_survive_pickling_roundtrip(self, tmp_path):
        job = SimJob(app="tomcat", policy="srrip", length=LENGTH,
                     mode="misses")
        engine = ExperimentEngine(cache_dir=tmp_path / "store", jobs=1)
        cold = engine.run([job])[0].value
        warm = ExperimentEngine(cache_dir=tmp_path / "store",
                                jobs=1).run([job])[0].value
        assert (warm.accesses, warm.hits, warm.misses, warm.evictions,
                warm.bypasses, warm.compulsory_fills) == (
            cold.accesses, cold.hits, cold.misses, cold.evictions,
            cold.bypasses, cold.compulsory_fills)


class TestParallelEquivalence:
    @pytest.mark.parametrize("mode,apps,policies,warm_traces", [
        ("sim", ("tomcat",), ("lru", "srrip", "thermometer"), False),
        ("misses", ("tomcat", "python"), ("lru", "thermometer"), False),
        # The pool store already holds every trace (from an earlier lru
        # run) but none of these results: each worker reads its trace
        # from the store and builds its own access stream.
        ("misses", ("tomcat", "python"), ("srrip", "fifo", "thermometer"),
         True),
    ], ids=["sim", "misses", "warm-traces"])
    def test_process_pool_matches_serial(self, tmp_path, mode, apps,
                                         policies, warm_traces):
        """Workers in separate processes produce bit-identical results
        (and return them in submission order)."""
        jobs = [SimJob(app=app, policy=policy, length=4000, mode=mode)
                for app in apps for policy in policies]
        if warm_traces:
            ExperimentEngine(cache_dir=tmp_path / "par", jobs=2).run(
                [SimJob(app=app, policy="lru", length=4000, mode=mode)
                 for app in apps])
        parallel = ExperimentEngine(cache_dir=tmp_path / "par", jobs=2)
        serial = ExperimentEngine(cache_dir=tmp_path / "ser", jobs=1)
        par_results = parallel.run(jobs)
        ser_results = serial.run(jobs)
        if warm_traces:
            # No result was cached, so every store hit is a trace read.
            assert not any(r.cached for r in par_results)
            assert parallel.last_run_cache()["hits"] >= len(apps)
            # ... and no worker computed one (each pool result carries
            # its worker's span counts).
            computed = {}
            for result in par_results:
                for path, rec in result.telemetry["spans"].items():
                    leaf = path.rsplit("/", 1)[-1]
                    computed[leaf] = computed.get(leaf, 0) + rec["count"]
            assert computed.get("harness.misses") == len(jobs)
            assert "harness.trace" not in computed
        assert [r.job for r in par_results] == jobs
        assert [r.value for r in par_results] == [r.value
                                                  for r in ser_results]

    def test_parallel_run_warms_shared_store(self, tmp_path):
        jobs = [SimJob(app="python", policy=p, length=4000, mode="misses")
                for p in ("lru", "srrip")]
        ExperimentEngine(cache_dir=tmp_path / "store", jobs=2).run(jobs)
        warm = ExperimentEngine(cache_dir=tmp_path / "store", jobs=1)
        assert all(r.cached for r in warm.run(jobs))

    def test_different_configs_do_not_collide(self, tmp_path):
        """Two jobs differing only in BTB geometry must not share a cache
        entry — the engine's key covers the whole machine config."""
        small = SimJob(app="tomcat", policy="lru", length=4000,
                       mode="misses", btb_config=BTBConfig(entries=64,
                                                           ways=2))
        big = SimJob(app="tomcat", policy="lru", length=4000,
                     mode="misses")
        engine = ExperimentEngine(cache_dir=tmp_path / "store", jobs=1)
        first = engine.run([small, big])
        assert first[0].value.misses > first[1].value.misses
        again = ExperimentEngine(cache_dir=tmp_path / "store",
                                 jobs=1).run([small, big])
        assert again[0].value == first[0].value
        assert again[1].value == first[1].value
