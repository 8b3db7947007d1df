"""Engine fault tolerance: retries, timeouts, accounting, re-sharding.

Faults are injected through :mod:`repro.testing.faults` plans set as the
runtime config's fault plan, which the engine ships with every worker
batch, so the parallel cases exercise genuine ``ProcessPoolExecutor``
workers (including a worker SIGKILLing itself mid-batch) rather than
mocks.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro import runtime
from repro.harness.engine import (ExperimentEngine, ExperimentError,
                                  JobState, JobTimeoutError, SimJob,
                                  backoff_delay, job_deadline)
from repro.harness.engine.store import fold_cache
from repro.telemetry.manifest import read_events, read_run_manifest
from repro.telemetry.metrics import MetricsRegistry, set_registry
from repro.testing.faults import Fault, FaultPlan

JOBS = [SimJob(app=app, policy=policy, length=3000, mode="misses")
        for app in ("tomcat", "python") for policy in ("lru", "srrip")]


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test gets its own telemetry registry."""
    previous_registry = set_registry(MetricsRegistry(enabled=True))
    yield
    set_registry(previous_registry)


class TestBackoff:
    def test_delay_grows_exponentially_and_caps(self):
        rng = random.Random(0)
        delays = [backoff_delay(n, base=0.5, cap=4.0, rng=rng)
                  for n in range(8)]
        # Jitter keeps each delay within (0.5, 1.0] of the nominal value.
        for n, delay in enumerate(delays):
            nominal = min(4.0, 0.5 * 2 ** n)
            assert 0.5 * nominal < delay <= nominal

    def test_jitter_is_rng_driven(self):
        a = backoff_delay(2, rng=random.Random(1))
        b = backoff_delay(2, rng=random.Random(2))
        assert a != b

    def test_sleep_skipped_under_test_fast(self, monkeypatch, tmp_path):
        """``test_fast`` zeroes the engine's default backoff, so a retry
        round sleeps for 0 s; without it the round backs off."""
        slept = []
        monkeypatch.setattr("repro.harness.engine.executor.time",
                            SimpleNamespace(sleep=slept.append))
        plan = FaultPlan(faults=(Fault("raise", 0),))
        for test_fast in (True, False):
            with runtime.override(test_fast=test_fast, fault_plan=plan):
                engine = ExperimentEngine(cache_dir=tmp_path / str(test_fast),
                                          jobs=1, max_retries=1)
                engine.run(JOBS[:1])
        assert len(slept) == 2 and slept[0] == 0.0
        assert 0.125 <= slept[1] <= 0.25


class TestJobDeadline:
    def test_expires(self):
        import time
        with pytest.raises(JobTimeoutError):
            with job_deadline(0.05):
                time.sleep(5.0)

    def test_no_budget_is_a_noop(self):
        with job_deadline(None):
            pass
        with job_deadline(0):
            pass


class TestSerialRetries:
    def test_transient_raise_is_retried_to_success(self, tmp_path):
        plan = FaultPlan(faults=(Fault("raise", 1),))
        with runtime.override(fault_plan=plan):
            engine = ExperimentEngine(cache_dir=tmp_path, jobs=1,
                                      max_retries=1)
            results = engine.run(JOBS)
            assert [r.state for r in results] == [JobState.SUCCEEDED] * 4
            counters = engine.last_run_telemetry["counters"]
            assert counters["engine/jobs/retried"] == 1
            assert counters["faults/injected"] == 1
            assert counters["engine/jobs/succeeded"] == len(JOBS)
            # The journal shows job 1 ran twice, everything else once.
            events = read_events(engine.last_manifest)
            running = [e["index"] for e in events if e["state"] == "running"]
            assert running.count(1) == 2
            assert all(running.count(i) == 1 for i in (0, 2, 3))

    def test_retry_and_timeout_counted_exactly_once_per_job(self,
                                                            tmp_path):
        """A job retried twice is one 'retried' job; a timed-out-then-
        rescued job is one 'timed_out' job — the counters are per job,
        not per attempt."""
        plan = FaultPlan(faults=(Fault("hang", 0, seconds=5.0),
                                 Fault("raise", 1, attempts=(0, 1))))
        with runtime.override(fault_plan=plan):
            engine = ExperimentEngine(cache_dir=tmp_path, jobs=1,
                                      max_retries=2, job_timeout=0.2)
            results = engine.run(JOBS)
            assert [r.state for r in results] == [JobState.SUCCEEDED] * 4
            counters = engine.last_run_telemetry["counters"]
            assert counters["engine/jobs/retried"] == 2
            assert counters["engine/jobs/timed_out"] == 1
            assert "engine/jobs/failed" not in counters

    def test_exhausted_retries_fail_with_resumable_error(self, tmp_path):
        plan = FaultPlan(faults=(Fault("raise", 2, attempts=(0, 1, 2, 3)),)
                         )
        with runtime.override(fault_plan=plan):
            engine = ExperimentEngine(cache_dir=tmp_path, jobs=1,
                                      max_retries=1)
            with pytest.raises(ExperimentError) as info:
                engine.run(JOBS)
            assert info.value.run_id == engine.last_run_id
            assert info.value.failures[0]["index"] == 2
            assert "resume" in str(info.value)
            # Attempts are bounded: 1 + max_retries, no more.
            events = read_events(engine.last_manifest)
            running = [e["index"] for e in events if e["state"] == "running"]
            assert running.count(2) == 2
            manifest = read_run_manifest(engine.last_manifest)
            assert manifest.summary["status"] == "failed"
            assert manifest.summary["job_states"][JobState.FAILED] == 1
            assert manifest.summary["job_states"][JobState.SUCCEEDED] == 3
            # The failed job still has a manifest row with its error.
            failed_rows = [r for r in manifest.rows
                           if r["state"] == JobState.FAILED]
            assert len(failed_rows) == 1
            assert "InjectedFault" in failed_rows[0]["error"]
            assert len(manifest.summary["exceptions"]) == 1

    def test_timeout_exhaustion_reports_timed_out_state(self, tmp_path):
        plan = FaultPlan(faults=(Fault("hang", 0, seconds=5.0,
                                       attempts=(0, 1)),))
        with runtime.override(fault_plan=plan):
            engine = ExperimentEngine(cache_dir=tmp_path, jobs=1,
                                      max_retries=1, job_timeout=0.2)
            with pytest.raises(ExperimentError):
                engine.run(JOBS[:2])
            manifest = read_run_manifest(engine.last_manifest)
            assert manifest.summary["status"] == "failed"
            assert manifest.summary["job_states"][JobState.TIMED_OUT] == 1
            counters = engine.last_run_telemetry["counters"]
            assert counters["engine/jobs/timed_out"] == 1
            assert counters["engine/jobs/failed"] == 1


class TestParallelFaults:
    def test_worker_raise_does_not_kill_its_batch(self, tmp_path):
        plan = FaultPlan(faults=(Fault("raise", 0),))
        with runtime.override(fault_plan=plan):
            engine = ExperimentEngine(cache_dir=tmp_path, jobs=2,
                                      max_retries=1)
            results = engine.run(JOBS)
            assert [r.state for r in results] == [JobState.SUCCEEDED] * 4
            counters = engine.last_run_telemetry["counters"]
            assert counters["engine/jobs/retried"] == 1
            assert "engine/batches/worker_lost" not in counters

    def test_worker_death_resharded_not_fatal(self, tmp_path):
        """A worker SIGKILLing itself mid-batch breaks the whole pool;
        the engine must re-shard and still converge to correct results."""
        reference = ExperimentEngine(cache_dir=tmp_path / "ref",
                                     jobs=1).run(JOBS)
        plan = FaultPlan(faults=(Fault("die", 1),))
        with runtime.override(fault_plan=plan):
            engine = ExperimentEngine(cache_dir=tmp_path / "faulted", jobs=2,
                                      max_retries=1)
            results = engine.run(JOBS)
            assert [r.state for r in results] == [JobState.SUCCEEDED] * 4
            assert [r.value for r in results] == [r.value for r in reference]
            counters = engine.last_run_telemetry["counters"]
            assert counters["engine/batches/worker_lost"] >= 1
            manifest = read_run_manifest(engine.last_manifest)
            assert manifest.summary["status"] == "completed"


class TestCacheFromTelemetry:
    def test_cache_block_is_the_fold_of_the_run_telemetry(self, tmp_path):
        """Every run's ``cache`` block is its telemetry's store counters:
        serial and pool, cold and warm (a run-log line), clean and
        faulted-then-retried — a pool run keeps its retried attempts'
        counts, so it agrees with the serial run on every count."""
        def summary_of(engine):
            summary = read_run_manifest(engine.last_manifest).summary
            counters = summary["telemetry"]["counters"]
            assert summary["cache"] == fold_cache(counters)
            return summary

        jobs = JOBS[:3]
        plan = FaultPlan(faults=(Fault("raise", 0), Fault("raise", 2)))
        clean, faulted = {}, {}
        for workers in (1, 2):
            engine = ExperimentEngine(cache_dir=tmp_path / f"clean{workers}",
                                      jobs=workers)
            engine.run(jobs)
            clean[workers] = summary_of(engine)["cache"]
            assert clean[workers]["misses"] > 0
            engine.run(jobs)
            assert isinstance(engine.last_manifest, str)  # a logged run
            warm = summary_of(engine)["cache"]
            assert (warm["hits"], warm["misses"]) == (len(jobs), 0)
            with runtime.override(fault_plan=plan):
                engine = ExperimentEngine(
                    cache_dir=tmp_path / f"faulted{workers}", jobs=workers,
                    max_retries=1)
                engine.run(jobs)
            summary = summary_of(engine)
            assert summary["runtime"]["executor"] == (
                "serial" if workers == 1 else "pool")
            assert summary["telemetry"]["counters"]["faults/injected"] == 2
            faulted[workers] = summary["cache"]
        assert clean[1] == clean[2]
        assert faulted[1] == faulted[2]
        # The retries re-read what the first round stored.
        assert faulted[1]["hits"] > 0
