"""Shared state for the figure-regeneration benchmarks.

Every ``bench_figNN`` benchmark regenerates one paper figure at a reduced
trace length (override with ``REPRO_BENCH_LENGTH``; the full-length campaign
is ``python -m repro.harness.reproduce --preset full``).  The harness is
session-scoped so traces, OPT profiles, and LRU baselines are computed once
and shared across figures, exactly as the reproduce driver does — and it is
backed by one artifact store.  By default it is a per-session temp
directory, so stale timings from a previous code revision can never leak
into results; set ``REPRO_CACHE_DIR`` to use a persistent store instead,
whose artifacts then warm the *next* benchmark session too.
"""

from __future__ import annotations

import os

import pytest

from repro import runtime
from repro.harness.engine import ArtifactStore
from repro.harness.runner import Harness, HarnessConfig

#: Reduced per-app trace length for the benchmark campaign.
BENCH_LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", "120000"))
#: Suite sizes for the CBP-5/IPC-1 benches.
BENCH_CBP_COUNT = int(os.environ.get("REPRO_BENCH_CBP", "8"))
BENCH_IPC_COUNT = int(os.environ.get("REPRO_BENCH_IPC", "5"))


@pytest.fixture(scope="session")
def artifact_store(tmp_path_factory) -> ArtifactStore:
    """One warm artifact store shared by every figure benchmark."""
    root = (runtime.current().cache_dir
            or tmp_path_factory.mktemp("artifact-store"))
    return ArtifactStore(root)


@pytest.fixture(scope="session")
def harness(artifact_store) -> Harness:
    return Harness(HarnessConfig(length=BENCH_LENGTH),
                   store=artifact_store)


def run_figure(benchmark, fig_func, *args, **kwargs):
    """Run one figure exactly once under pytest-benchmark and print it."""
    result = benchmark.pedantic(fig_func, args=args, kwargs=kwargs,
                                rounds=1, iterations=1)
    print()
    print(result.render())
    return result
