"""Shared fixtures: small deterministic traces and BTB configurations."""

from __future__ import annotations

import pytest

from repro import runtime
from repro.btb.config import BTBConfig
from repro.telemetry.metrics import MetricsRegistry, set_registry
from repro.trace.record import BranchKind, BranchRecord, BranchTrace
from repro.workloads.datacenter import make_app_trace
from repro.workloads.generator import (LayoutParams, MixParams,
                                       SyntheticWorkload, WorkloadSpec)


from tests.helpers import branch, trace_of_pcs  # noqa: F401 (re-export)


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_cache(tmp_path_factory):
    """Point the default artifact store at a per-session tmpdir so tests
    never read from (or pollute) the user-level cache, and zero the
    engine's retry backoff (``test_fast``) suite-wide."""
    root = tmp_path_factory.mktemp("artifact-store")
    with runtime.override(cache_dir=root, test_fast=True):
        yield root


@pytest.fixture
def fresh_registry():
    """A fresh, enabled metrics registry for one test (the store counts
    into it; read it with :func:`tests.helpers.store_cache`)."""
    registry = MetricsRegistry(enabled=True)
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


@pytest.fixture
def tiny_config():
    """A 4-set, 2-way BTB (8 entries) — easy to reason about by hand."""
    return BTBConfig(entries=8, ways=2)


@pytest.fixture(scope="session")
def small_workload_spec():
    return WorkloadSpec(
        name="unit-small",
        layout=LayoutParams(n_hot_loops=12, hot_loop_branches=(4, 8),
                            n_warm_funcs=10, n_cold_branches=200,
                            region_gap_bytes=8, loop_trips_max=12),
        mix=MixParams(active_loops=6, core_loops=2, phase_len=2000,
                      p_call=0.2, p_cold_burst=0.05,
                      cold_burst_len=(5, 20)),
        default_length=8000)


@pytest.fixture(scope="session")
def small_trace(small_workload_spec):
    """A small but structured synthetic trace (shared, treat as
    read-only)."""
    return SyntheticWorkload(small_workload_spec).generate()


@pytest.fixture(scope="session")
def small_app_trace():
    """A shortened real application model trace (shared, read-only)."""
    return make_app_trace("tomcat", length=30_000)
