"""Checkpoint/resume correctness, including the SIGKILL differential.

The acceptance bar: a sweep interrupted at a FaultPlan-chosen job —
including by SIGKILL of a real pool worker — must complete on
``resume=`` with results bit-identical to an uninterrupted run, with no
job attempted more than ``1 + max_retries`` times per run.
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.harness.engine import (ExperimentEngine, ExperimentError,
                                  JobState, SimJob)
from repro.telemetry.manifest import (canonical_rows, read_events,
                                      read_run_manifest)
from repro.telemetry.metrics import MetricsRegistry, set_registry
from repro.testing.faults import Fault, FaultPlan

JOBS = [SimJob(app=app, policy=policy, length=2500, mode="misses")
        for app in ("tomcat", "python") for policy in ("lru", "srrip")]


@pytest.fixture(autouse=True)
def _fresh_registry():
    previous_registry = set_registry(MetricsRegistry(enabled=True))
    yield
    set_registry(previous_registry)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted run every faulted run must converge to."""
    engine = ExperimentEngine(
        cache_dir=tmp_path_factory.mktemp("reference"), jobs=1)
    results = engine.run(JOBS)
    rows = canonical_rows(read_run_manifest(engine.last_manifest).rows)
    return results, rows


def _canonical(manifest_path) -> list:
    return canonical_rows(read_run_manifest(manifest_path).rows)


class TestResumeBasics:
    def test_resume_skips_verified_jobs(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        first = engine.run(JOBS)
        first_id = engine.last_run_id
        resumed = engine.run(JOBS, resume=first_id)
        assert [r.state for r in resumed] == [JobState.SKIPPED] * 4
        assert [r.value for r in resumed] == [r.value for r in first]
        counters = engine.last_run_telemetry["counters"]
        assert counters["engine/jobs/skipped"] == len(JOBS)
        manifest = read_run_manifest(engine.last_manifest)
        assert manifest.summary["status"] == "resumed"
        assert manifest.summary["resumed_from"] == first_id

    def test_resume_latest_and_unknown_id(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path, jobs=1)
        with pytest.raises(ValueError, match="no previous run"):
            engine.run(JOBS, resume="latest")
        engine.run(JOBS)
        resumed = engine.run(JOBS, resume="latest")
        assert all(r.state == JobState.SKIPPED for r in resumed)
        with pytest.raises(ValueError, match="no run"):
            engine.run(JOBS, resume="never-happened")

    def test_resume_requires_a_store(self):
        engine = ExperimentEngine(cache_dir=None, jobs=1)
        with pytest.raises(ValueError, match="cache directory"):
            engine.run(JOBS, resume="latest")


class TestSigkillDifferential:
    def test_worker_sigkill_then_resume_is_bit_identical(self, tmp_path,
                                                         reference):
        """A real pool worker SIGKILLs itself at a FaultPlan-chosen job;
        with retries disabled the sweep fails, and ``--resume`` must
        finish it bit-identically to the uninterrupted reference."""
        ref_results, ref_rows = reference
        plan = FaultPlan(faults=(Fault("die", 1),))
        with runtime.override(fault_plan=plan):
            engine = ExperimentEngine(cache_dir=tmp_path, jobs=2,
                                      max_retries=0)
            with pytest.raises(ExperimentError) as info:
                engine.run(JOBS)
        crashed_id = info.value.run_id
        crashed_events = read_events(engine.last_manifest)
        crashed_ok = {e["index"] for e in crashed_events
                      if e["state"] == JobState.SUCCEEDED}

        resumed = engine.run(JOBS, resume=crashed_id)
        assert [r.state in (JobState.SUCCEEDED, JobState.SKIPPED)
                for r in resumed] == [True] * len(JOBS)
        # Bit-identical values (serialized form, not just equality).
        assert ([pickle.dumps(r.value) for r in resumed]
                == [pickle.dumps(r.value) for r in ref_results])
        assert _canonical(engine.last_manifest) == ref_rows
        # The resumed run only re-ran work the crashed run lost: every
        # job it actually executed was *not* finished before the crash.
        rerun = {e["index"] for e in read_events(engine.last_manifest)
                 if e["state"] == JobState.RUNNING}
        assert rerun.isdisjoint(crashed_ok)
        assert rerun  # the SIGKILLed job really was re-executed

    def test_corrupt_artifact_is_quarantined_and_rebuilt_on_resume(
            self, tmp_path, reference):
        """quarantine-then-rebuild: a corrupt store entry fails its
        digest during resume verification, is moved aside, and the job
        re-runs instead of being skipped."""
        ref_results, ref_rows = reference
        plan = FaultPlan(faults=(Fault("corrupt", 0),
                                 Fault("raise", 3, attempts=(0, 1))))
        with runtime.override(fault_plan=plan):
            engine = ExperimentEngine(cache_dir=tmp_path, jobs=1,
                                      max_retries=1)
            with pytest.raises(ExperimentError):
                engine.run(JOBS)

        resumed = engine.run(JOBS, resume=engine.last_run_id)
        states = {r.job.policy + "/" + r.job.app: r.state
                  for r in resumed}
        # Job 0's artifact was corrupted on disk: it must have been
        # re-executed (not skipped), and the corrupt file quarantined.
        assert resumed[0].state == JobState.SUCCEEDED
        assert engine.stats.quarantined == 1, states
        quarantine = Path(tmp_path) / ".quarantine"
        assert any(quarantine.rglob("*.pkl"))
        assert ([pickle.dumps(r.value) for r in resumed]
                == [pickle.dumps(r.value) for r in ref_results])
        assert _canonical(engine.last_manifest) == ref_rows


class TestMultiPolicyGroupResume:
    """Batch replay under faults: killing a worker mid-group must resume
    to bit-identical results for *every* policy in the group, whether
    its artifact was written before or after the crash."""

    GROUP_JOBS = [SimJob(app="tomcat", policy=policy, length=2500,
                         mode="misses")
                  for policy in ("lru", "srrip", "dip", "ship", "random")]

    def test_worker_sigkill_mid_group_resumes_bit_identical(self,
                                                            tmp_path):
        ref_engine = ExperimentEngine(cache_dir=tmp_path / "ref", jobs=1)
        ref_results = ref_engine.run(self.GROUP_JOBS)
        ref_rows = _canonical(ref_engine.last_manifest)

        # Job 2 is mid-group: its batch-mates before it already stored
        # their artifacts, the ones after it die with the worker.
        plan = FaultPlan(faults=(Fault("die", 2),))
        with runtime.override(fault_plan=plan):
            engine = ExperimentEngine(cache_dir=tmp_path / "run", jobs=2,
                                      max_retries=0)
            with pytest.raises(ExperimentError) as info:
                engine.run(self.GROUP_JOBS)

        resumed = engine.run(self.GROUP_JOBS, resume=info.value.run_id)
        assert all(r.state in (JobState.SUCCEEDED, JobState.SKIPPED)
                   for r in resumed)
        assert ([pickle.dumps(r.value) for r in resumed]
                == [pickle.dumps(r.value) for r in ref_results])
        assert _canonical(engine.last_manifest) == ref_rows

    def test_serial_fault_mid_group_retries_ungrouped(self, tmp_path):
        """A failed group member retries and still converges
        bit-identically."""
        ref_engine = ExperimentEngine(cache_dir=tmp_path / "ref", jobs=1)
        ref_results = ref_engine.run(self.GROUP_JOBS)

        plan = FaultPlan(faults=(Fault("raise", 2, attempts=(0,)),))
        engine = ExperimentEngine(cache_dir=tmp_path / "run", jobs=1,
                                  max_retries=1)
        with runtime.override(fault_plan=plan):
            results = engine.run(self.GROUP_JOBS)
        assert ([pickle.dumps(r.value) for r in results]
                == [pickle.dumps(r.value) for r in ref_results])


class TestResumeProperty:
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_faulted_run_resumes_to_reference(self, seed, reference):
        """For any seeded FaultPlan: run → (maybe crash) → resume is
        bit-identical to an uninterrupted run, and no run attempts a job
        more than ``1 + max_retries`` times."""
        ref_results, ref_rows = reference
        max_retries = 0
        root = Path(tempfile.mkdtemp(prefix=f"resume-prop-{seed}-"))
        plan = FaultPlan.random(seed, n_jobs=len(JOBS), rate=0.7,
                                hang_seconds=1.0)
        engine = ExperimentEngine(cache_dir=root, jobs=1,
                                  max_retries=max_retries,
                                  job_timeout=0.25)
        with runtime.override(fault_plan=plan):
            try:
                results = engine.run(JOBS)
                crashed_id = None
            except ExperimentError as exc:
                crashed_id = exc.run_id
        first_events = read_events(engine.last_manifest)

        if crashed_id is not None:
            results = engine.run(JOBS, resume=crashed_id)
            second_events = read_events(engine.last_manifest)
        else:
            second_events = []

        assert ([pickle.dumps(r.value) for r in results]
                == [pickle.dumps(r.value) for r in ref_results])
        assert _canonical(engine.last_manifest) == ref_rows
        for events in (first_events, second_events):
            for i in range(len(JOBS)):
                attempts = sum(1 for e in events
                               if e["index"] == i
                               and e["state"] == JobState.RUNNING)
                assert attempts <= 1 + max_retries
