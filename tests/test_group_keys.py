"""The shared job-identity helpers (:mod:`repro.harness.engine.keys`).

These keys decide which jobs share one process-pool worker batch (one
harness, trace and profile); their semantics are pinned here so a
refactor of the batch planner cannot silently change the grouping.
"""

from __future__ import annotations

from repro.btb.config import (BTBConfig, DEFAULT_BTB_CONFIG,
                              THERMOMETER_7979_CONFIG)
from repro.harness.engine import SimJob
from repro.harness.engine.keys import (batch_key, effective_btb_config,
                                       plan_batches)


def job(**kwargs) -> SimJob:
    defaults = dict(app="tomcat", policy="lru", length=4000,
                    mode="misses")
    defaults.update(kwargs)
    return SimJob(**defaults)


class TestEffectiveConfig:
    def test_default_policies_keep_nominal_geometry(self):
        config = BTBConfig(entries=2048, ways=4)
        for policy in ("lru", "srrip", "opt", "thermometer"):
            assert effective_btb_config(policy, config) is config

    def test_iso_storage_variant_overrides_geometry(self):
        nominal = BTBConfig(entries=8192, ways=4)
        assert (effective_btb_config("thermometer-7979", nominal)
                == THERMOMETER_7979_CONFIG)

    def test_override_ignores_nominal_config(self):
        a = effective_btb_config("thermometer-7979", DEFAULT_BTB_CONFIG)
        b = effective_btb_config("thermometer-7979",
                                 BTBConfig(entries=512, ways=2))
        assert a == b == THERMOMETER_7979_CONFIG


class TestStreamAndBatchKeys:
    def test_batch_key_merges_policies_and_modes(self):
        assert (batch_key(job(policy="lru"))
                == batch_key(job(policy="srrip"))
                == batch_key(job(mode="sim")))

    def test_batch_key_splits_on_machine_config(self):
        assert batch_key(job(length=8000)) != batch_key(job())
        assert batch_key(job(app="kafka")) != batch_key(job())



class TestPlanBatches:
    def test_one_batch_per_batch_key(self):
        jobs = [job(app=app, policy=policy)
                for app in ("tomcat", "kafka")
                for policy in ("lru", "srrip", "fifo")]
        assert plan_batches(jobs, target=1) == [[0, 1, 2], [3, 4, 5]]

    def test_largest_batches_split_until_workers_have_work(self):
        jobs = [job(policy=policy)
                for policy in ("lru", "srrip", "fifo", "mru")]
        batches = plan_batches(jobs, target=3)
        assert len(batches) == 3
        assert sorted(i for batch in batches for i in batch) == [0, 1, 2, 3]

    def test_single_jobs_are_never_split_further(self):
        assert plan_batches([job(), job(app="kafka")], target=4) == [[0],
                                                                     [1]]
