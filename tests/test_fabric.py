"""The distributed sweep fabric: differential identity, chaos, peers.

The centerpiece is the differential suite: a sweep distributed over
worker hosts must be *bit-identical* to the serial engine running the
same job list — result values, canonical manifest rows, the union of
artifact digests across the coordinator store and every host shard, and
the merged cache stats.  The chaos tests then prove the identity
survives a worker host SIGKILLing itself mid-sweep and a host severing
its coordinator socket (``partition``), with the coordinator's
re-leasing counters matching the injected faults exactly.

Faults are injected through real :mod:`repro.testing.faults` plans in
the environment, so the process-mode cases kill genuine forked worker
hosts rather than mocks.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.fabric import (ArtifactServer, FabricCoordinator,
                          PeerBackedStore, run_fabric_sweep)
from repro.harness.engine import (ExperimentEngine, ExperimentError,
                                  JobState, SimJob)
from repro.harness.engine.store import ArtifactStore
from repro.telemetry.manifest import canonical_rows, read_run_manifest
from repro.telemetry.metrics import (MetricsRegistry, get_registry,
                                     set_registry)
from repro.testing.faults import Fault, FaultPlan, corrupt_file
from repro.tools import fabric as fabric_tool
from repro.tools.fabric import _merged_fabric_digests, artifact_digests

LENGTH = 2500

#: Stats counters that must match between the serial and fabric paths
#: (timings legitimately differ; these cannot).
STAT_FIELDS = ("hits", "misses", "corrupt", "digest_failures",
               "quarantined", "quota_rejected", "bytes_read",
               "bytes_written")


@pytest.fixture(autouse=True)
def _clean_slate():
    """Each test gets its own telemetry registry."""
    previous_registry = set_registry(MetricsRegistry(enabled=True))
    yield
    set_registry(previous_registry)


def sweep_jobs(apps=("tomcat", "kafka"), inputs=(0,),
               policies=("lru", "srrip", "thermometer")):
    return [SimJob(app=app, policy=policy, input_id=input_id,
                   length=LENGTH, mode="misses")
            for app in apps for input_id in inputs
            for policy in policies]


def serial_reference(root, jobs):
    """The serial engine's run of ``jobs``: (engine, results)."""
    engine = ExperimentEngine(cache_dir=root, jobs=1)
    return engine, engine.run(jobs)


def value_bytes(results):
    return [pickle.dumps(r.value) for r in results]


def assert_bit_identical(serial_engine, serial_results, coord,
                         fabric_results):
    """The full identity contract: values, canonical rows, digests."""
    assert (value_bytes(fabric_results)
            == value_bytes(serial_results))
    serial_manifest = read_run_manifest(serial_engine.last_manifest)
    fabric_manifest = read_run_manifest(coord.engine.last_manifest)
    assert (canonical_rows(fabric_manifest.rows)
            == canonical_rows(serial_manifest.rows))
    serial_digests = artifact_digests(serial_engine.cache_dir)
    merged, conflicts = _merged_fabric_digests(coord.engine.cache_dir)
    assert not conflicts, f"cross-host divergence: {conflicts}"
    assert merged == serial_digests
    return serial_manifest, fabric_manifest


class TestDifferentialIdentity:
    def test_three_host_sweep_is_bit_identical_to_serial(self, tmp_path):
        """13 apps would take minutes; two apps x two inputs x three
        policies (four batch groups over three hosts, so one host
        steals) exercise every scheduling path the full matrix does.
        The CI ``fabric-smoke`` job runs the full matrix via the CLI."""
        jobs = sweep_jobs(inputs=(0, 1))
        serial_engine, serial_results = serial_reference(
            tmp_path / "serial", jobs)

        coord = FabricCoordinator(tmp_path / "fabric", hosts=3)
        fabric_results = run_fabric_sweep(jobs, coordinator=coord)

        serial_manifest, fabric_manifest = assert_bit_identical(
            serial_engine, serial_results, coord, fabric_results)

        # Merged cache stats: leases are whole batch groups, so each
        # host replays exactly the serial store-op sequence for its
        # groups and the per-job deltas sum to the serial run's.
        serial_cache = serial_manifest.summary["cache"]
        fabric_cache = fabric_manifest.summary["cache"]
        for field in STAT_FIELDS:
            assert fabric_cache[field] == serial_cache[field], field
        assert (fabric_cache["stage_counts"]
                == serial_cache["stage_counts"])

        # The merged worker telemetry shows one replay per job, exactly
        # like the serial run.
        serial_spans = serial_manifest.summary["telemetry"]["spans"]
        fabric_spans = fabric_manifest.summary["telemetry"]["spans"]
        replay = "engine.job/harness.misses"
        assert (fabric_spans[replay]["count"]
                == serial_spans[replay]["count"] == len(jobs))

        # Every artifact was mirrored home exactly once.
        counters = coord.engine.last_run_telemetry["counters"]
        assert counters["fabric/mirrored"] == len(jobs)
        assert counters["fabric/leases"] >= 4

    def test_resume_leg_completes_without_any_worker_host(self,
                                                          tmp_path):
        """A resumed fabric run whose jobs all verify in the store must
        complete without a single worker registering: the engine skips
        everything and the coordinator sees an empty pending list."""
        jobs = sweep_jobs(apps=("tomcat",), policies=("lru", "srrip"))
        coord = FabricCoordinator(tmp_path / "fabric", hosts=2)
        run_fabric_sweep(jobs, coordinator=coord)
        run_id = read_run_manifest(coord.engine.last_manifest).run_id

        resumed_coord = FabricCoordinator(tmp_path / "fabric", hosts=2)
        resumed = resumed_coord.run(jobs, resume=run_id)
        assert [r.state for r in resumed] == [JobState.SKIPPED] * 2
        assert not resumed_coord.live_hosts()
        manifest = read_run_manifest(resumed_coord.engine.last_manifest)
        assert manifest.summary["status"] == "resumed"


class TestChaos:
    def test_host_death_and_partition_are_re_leased_bit_identically(
            self, tmp_path):
        """One host SIGKILLs itself at its first job and another severs
        its coordinator socket at its own first job; the coordinator
        must detect both, re-lease the orphaned groups, and still
        converge to the serial run's exact bytes — with the loss
        counters matching the injected faults one for one."""
        apps = ("tomcat", "kafka", "mysql")
        jobs = sweep_jobs(apps=apps, policies=("lru", "srrip"))
        serial_engine, serial_results = serial_reference(
            tmp_path / "serial", jobs)

        # Three batch groups over three hosts: each host's first lease
        # is its own group, so the two faults hit two distinct hosts.
        plan = FaultPlan(faults=(Fault("die", index=0),
                                 Fault("partition", index=4)))
        with runtime.override(fault_plan=plan):
            coord = FabricCoordinator(tmp_path / "fabric", hosts=3,
                                      max_retries=2)
            fabric_results = run_fabric_sweep(jobs, coordinator=coord)

        assert_bit_identical(serial_engine, serial_results, coord,
                             fabric_results)

        counters = coord.engine.last_run_telemetry["counters"]
        assert counters["fabric/hosts_lost"] == 2
        assert counters["fabric/releases"] == 2
        # Whether the supervisor's replacement hosts registered before
        # the survivors finished the retries is a race; the initial
        # three registrations are not.
        assert counters["fabric/hosts_registered"] >= 3
        assert counters["fabric/mirrored"] == len(jobs)
        # The ghost failures went through the normal retry budget.
        assert counters["engine/jobs/retried"] >= 2


class TestFabricToolFaultPlan:
    """``fabric sweep`` and the runtime config's fault plan: the
    ``--differential`` legs both run fault-free (only ``--chaos-seed``
    faults the fabric leg); a plain sweep keeps the config's plan."""

    PLAN = FaultPlan(faults=(Fault("raise", index=0, attempts=(0, 1)),))

    def _sweep(self, tmp_path, *extra):
        return fabric_tool.main(
            ["sweep", "--apps", "drupal", "--policies", "lru",
             "--length", str(LENGTH), "--hosts", "1", "--max-retries", "1",
             "--cache-dir", str(tmp_path), *extra])

    def test_differential_ignores_the_configured_plan(self, tmp_path):
        with runtime.override(fault_plan=self.PLAN):
            assert self._sweep(tmp_path, "--differential") == 0

    def test_plain_sweep_runs_under_the_configured_plan(self, tmp_path):
        with runtime.override(fault_plan=self.PLAN):
            with pytest.raises(ExperimentError, match="injected failure"):
                self._sweep(tmp_path)


class TestPartitionProperty:
    @given(partition_seed=st.integers(0, 10_000),
           hosts=st.integers(2, 4))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[
                  HealthCheck.function_scoped_fixture])
    def test_any_seeded_partition_converges_to_the_same_manifest(
            self, shared_fabric_root, partition_seed, hosts):
        """The partition seed only decides *who computes what*: every
        seeded shuffle of the job groups across any host count must
        produce the reference canonical rows."""
        root, jobs, reference_rows = shared_fabric_root
        coord = FabricCoordinator(root / "fabric", hosts=hosts,
                                  partition_seed=partition_seed)
        results = run_fabric_sweep(jobs, coordinator=coord,
                                   mode="thread")
        assert all(r.state == JobState.SUCCEEDED for r in results)
        manifest = read_run_manifest(coord.engine.last_manifest)
        assert canonical_rows(manifest.rows) == reference_rows
        merged, conflicts = _merged_fabric_digests(root / "fabric")
        assert not conflicts


@pytest.fixture(scope="module")
def shared_fabric_root(tmp_path_factory):
    """One serial reference plus a shared fabric cache for the property
    test: the first example computes cold, later seeds re-lease warm
    artifacts (the scheduling paths are identical either way)."""
    root = tmp_path_factory.mktemp("fabric-prop")
    jobs = sweep_jobs()
    engine = ExperimentEngine(cache_dir=root / "serial", jobs=1)
    engine.run(jobs)
    rows = canonical_rows(read_run_manifest(engine.last_manifest).rows)
    return root, jobs, rows


class TestPeerArtifactExchange:
    def test_peer_blob_is_adopted_byte_verbatim_without_recompute(
            self, tmp_path):
        """An artifact computed on host A is served to host B by
        digest: B's copy is byte-identical, B never recomputes, and the
        exchange is visible in the fetch/served counters."""
        key = "deadbeefcafef00d" * 4
        store_a = ArtifactStore(tmp_path / "a")
        store_a.put("trace", key, {"payload": list(range(64))})
        server = ArtifactServer(store_a)
        address = server.start()
        try:
            store_b = PeerBackedStore(tmp_path / "b",
                                      peers=lambda: {"a": address})
            computed = []
            value = store_b.fetch(
                "trace", key,
                lambda: computed.append(1) or {"recomputed": True})
            assert value == {"payload": list(range(64))}
            assert computed == []
            assert (store_b.path("trace", key).read_bytes()
                    == store_a.path("trace", key).read_bytes())
            counters = get_registry().counters
            assert counters["fabric/peer/fetched"] == 1
            assert counters["fabric/peer/served"] == 1
        finally:
            server.close()

    def test_corrupt_peer_payload_quarantines_and_recomputes_locally(
            self, tmp_path):
        """A peer serving rotten bytes must not poison the consumer:
        the adopted envelope fails its integrity digest, is quarantined
        by the normal store machinery, and the host falls back to local
        recompute."""
        key = "0badc0de0badc0de" * 4
        store_a = ArtifactStore(tmp_path / "a")
        store_a.put("trace", key, {"payload": "pristine"})
        assert corrupt_file(store_a.path("trace", key))
        server = ArtifactServer(store_a)
        address = server.start()
        try:
            store_b = PeerBackedStore(tmp_path / "b",
                                      peers=lambda: {"a": address})
            assert store_b.get("trace", key) is None
            assert store_b.stats.quarantined == 1
            assert get_registry().counters["fabric/peer/corrupt"] == 1

            computed = []
            value = store_b.fetch(
                "trace", key,
                lambda: computed.append(1) or {"payload": "fresh"})
            assert value == {"payload": "fresh"}
            assert computed == [1]
            # The local recompute repaired B's copy for good.
            assert store_b.get("trace", key) == {"payload": "fresh"}
        finally:
            server.close()

    def test_lost_peer_degrades_to_a_plain_miss(self, tmp_path):
        """A peer that stopped answering is an optimisation lost, not a
        failure: the fetch degrades to None and the caller recomputes."""
        store_a = ArtifactStore(tmp_path / "a")
        server = ArtifactServer(store_a)
        address = server.start()
        server.close()
        store_b = PeerBackedStore(tmp_path / "b",
                                  peers=lambda: {"a": address})
        assert store_b.get("trace", "ab" * 32) is None
