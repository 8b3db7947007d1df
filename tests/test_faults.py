"""The deterministic fault-injection plans themselves.

The engine-facing behaviour (retries, timeouts, resume) lives in
``test_engine_fault_tolerance.py`` / ``test_engine_resume.py``; this file
pins down the plan machinery those tests lean on: seeded determinism,
JSON/config round-trips, and the individual fault applications.
"""

from __future__ import annotations


import pytest

from repro import runtime
from repro.harness.engine import ArtifactStore
from tests.helpers import store_cache
from repro.runtime import RuntimeConfig
from repro.testing.faults import (FAULT_KINDS, Fault, FaultPlan,
                                  InjectedFault, corrupt_file, inject)


class TestFault:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="fault kind"):
            Fault(kind="explode", index=0)

    def test_fires_only_on_listed_attempts(self):
        fault = Fault(kind="raise", index=3, attempts=(0, 2))
        assert fault.fires(3, 0)
        assert not fault.fires(3, 1)
        assert fault.fires(3, 2)
        assert not fault.fires(2, 0)

    def test_dict_round_trip(self):
        fault = Fault(kind="hang", index=7, attempts=(1,), seconds=2.5)
        assert Fault.from_dict(fault.to_dict()) == fault


class TestFaultPlan:
    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(123, n_jobs=50, rate=0.4)
        b = FaultPlan.random(123, n_jobs=50, rate=0.4)
        assert a == b
        assert a.seed == 123
        # A different seed gives a different schedule (50 jobs at 40%
        # collide with vanishing probability).
        assert a != FaultPlan.random(124, n_jobs=50, rate=0.4)

    def test_random_respects_rate_bounds(self):
        assert len(FaultPlan.random(1, n_jobs=30, rate=0.0)) == 0
        full = FaultPlan.random(1, n_jobs=30, rate=1.0)
        assert len(full) == 30
        assert {f.kind for f in full.faults} <= set(FAULT_KINDS)

    def test_fault_for_matches_index_and_attempt(self):
        plan = FaultPlan(faults=(Fault("raise", 2),
                                 Fault("hang", 4, attempts=(1,))))
        assert plan.fault_for(2, 0).kind == "raise"
        assert plan.fault_for(2, 1) is None
        assert plan.fault_for(4, 0) is None
        assert plan.fault_for(4, 1).kind == "hang"
        assert plan.fault_for(0, 0) is None

    def test_json_round_trip(self):
        plan = FaultPlan(faults=(Fault("die", 0), Fault("corrupt", 3)),
                         seed=9)
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestEnvWiring:
    """Plans reach the engine as the runtime config's ``fault_plan``:
    parsed from ``REPRO_FAULT_PLAN``, or set with ``override``."""

    def test_no_env_means_no_plan(self):
        assert RuntimeConfig.from_env({}).fault_plan is None
        assert runtime.current().fault_plan is None

    def test_install_and_read_back(self):
        plan = FaultPlan(faults=(Fault("raise", 1),), seed=5)
        with runtime.override(fault_plan=plan):
            assert runtime.current().fault_plan == plan
        assert runtime.current().fault_plan is None

    def test_plan_from_file_reference(self, tmp_path):
        plan = FaultPlan(faults=(Fault("corrupt", 2),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        env = {"REPRO_FAULT_PLAN": f"@{path}"}
        assert RuntimeConfig.from_env(env).fault_plan == plan

    def test_malformed_plan_raises(self):
        with pytest.raises(ValueError, match="REPRO_FAULT_PLAN"):
            RuntimeConfig.from_env({"REPRO_FAULT_PLAN": "{not json"})

    def test_cache_tracks_env_changes(self, monkeypatch):
        try:
            for kind in ("raise", "hang"):
                plan = FaultPlan(faults=(Fault(kind, 0),))
                monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
                assert runtime.load().fault_plan.fault_for(0).kind == kind
        finally:
            monkeypatch.undo()
            runtime.load()


class TestApplication:
    def test_raise_fault(self):
        with pytest.raises(InjectedFault):
            inject(Fault("raise", 0))

    def test_die_downgrades_outside_workers(self):
        """In-process runs must never SIGKILL the caller."""
        with pytest.raises(InjectedFault, match="downgraded"):
            inject(Fault("die", 0), in_worker=False)

    def test_hang_sleeps_then_returns(self, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.testing.faults.time.sleep",
                            slept.append)
        inject(Fault("hang", 0, seconds=1.5))
        assert slept == [1.5]

    def test_corrupt_file_flips_payload(self, tmp_path):
        target = tmp_path / "blob"
        target.write_bytes(b"abc")
        assert corrupt_file(target)
        assert target.read_bytes() == b"ab" + bytes([ord("c") ^ 0xFF])
        assert not corrupt_file(tmp_path / "missing")

    def test_corrupted_artifact_fails_store_digest(self, tmp_path,
                                                   fresh_registry):
        """The corruption model must be exactly what the store's
        integrity digest catches — otherwise 'corrupt' faults would test
        nothing."""
        store = ArtifactStore(tmp_path)
        key = store.key("misc", tag="x")
        store.put("misc", key, {"v": 1})
        assert corrupt_file(store.path("misc", key))
        assert store.get("misc", key) is None
        assert store_cache(store)["digest_failures"] == 1
