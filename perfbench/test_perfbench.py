"""Tests for the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import suite  # noqa: E402

BENCHMARK = json.loads((suite.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module", autouse=True)
def pinned_env(tmp_path_factory):
    saved = dict(os.environ)
    suite.pin_env(cache_root=tmp_path_factory.mktemp("default-cache"))
    yield
    os.environ.clear()
    os.environ.update(saved)


@pytest.fixture(scope="module", params=sorted(suite.WORKLOADS))
def tiny(request, tmp_path_factory):
    """A tiny workload plus a golden made from its own first pass."""
    workload = suite.WORKLOADS[request.param](
        suite.TINY, 3, tmp_path_factory.mktemp(request.param))
    workload.setup(1)
    first = workload.run_pass()
    assert first.failed == 0, first.notes
    golden = {workload.name: {workload.golden_key: first.table}}
    return workload, golden


def _metrics(outcome) -> dict:
    return {name: unit for name, (_, unit) in outcome.metrics.items()}


def test_untraced_pass_reports_every_end_to_end_metric(tiny):
    workload, golden = tiny
    outcome = suite.measure(workload, 0.0, golden)
    assert outcome.correct and outcome.failed == 0, outcome.lines
    assert _metrics(outcome) == _units("end_to_end")
    assert all(value > 0 for value, _ in outcome.metrics.values())
    parsed = json.loads(outcome.result_json())
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}


def test_tampered_golden_fails_every_operation(tiny):
    workload, golden = tiny
    table = json.loads(json.dumps(golden[workload.name][workload.golden_key]))
    key = sorted(k for k in table if k != "claims")[0]
    table[key] = "tampered"
    tampered = {workload.name: {workload.golden_key: table}}
    outcome = suite.measure(workload, 0.0, tampered)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted > 0  # failed_frac == 1
    assert any("MISMATCH" in line for line in outcome.lines)


def test_traced_run_matches_untraced_and_restores_originals(tiny):
    from repro.btb import kernels
    from repro.frontend.simulator import FrontendSimulator
    from repro.harness.engine import ArtifactStore
    from repro.harness import runner
    workload, golden = tiny
    before = (kernels.try_fast_replay, runner.make_app_trace,
              FrontendSimulator.__dict__["simulate"],
              ArtifactStore.__dict__["get"])
    outcome = suite.measure_traced(workload, golden)
    assert outcome.correct and outcome.failed == 0, outcome.lines
    assert _metrics(outcome) == _units("per_layer")
    assert before == (kernels.try_fast_replay, runner.make_app_trace,
                      FrontendSimulator.__dict__["simulate"],
                      ArtifactStore.__dict__["get"])
    metrics = {name: value for name, (value, _) in outcome.metrics.items()}
    if workload.name == "serve-warm":
        assert metrics["service.request.calls"] == workload.scale.serve_round
        assert metrics["store.hit_ratio"] == 1.0
        assert metrics["workloads.make_app_trace.calls"] == 0
    else:
        assert metrics["workloads.make_app_trace.calls"] >= 1
        assert metrics["btb.fast_path_ratio"] > 0
    if workload.name == "fig11-cold":
        assert metrics["frontend.fast_path_ratio"] == 1.0
    if workload.name == "sweep-cold":
        assert metrics["frontend.simulate.calls"] == 0
        # random and brrip stay on the reference loop.
        assert metrics["btb.fast_path_ratio"] == 14 / 16


def test_self_time_subtracts_nested_spans_only():
    spans = [("outer", 0.0, 10.0), ("inner", 1.0, 4.0),
             ("leaf", 2.0, 3.0), ("inner", 5.0, 6.0), ("after", 11.0, 12.0)]
    got = layertrace.self_times(spans)
    assert [own for _, _, own in got] == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert suite.tail_percentile(2000) == (99, 20)
    assert suite.tail_percentile(208) == (95, 10)
    assert suite.tail_percentile(78) == (87, 10)


def test_local_scales_use_the_probes_near_each_span():
    probe = suite.SpeedProbe()
    ref = suite.PROBE_REFERENCE_S
    # A slow burst (probes twice the reference) from t=1.0 to t=1.2.
    probe.stamps = [0.5, 1.0, 1.1, 1.2, 2.0]
    probe.samples = [ref, 2 * ref, 2 * ref, 2 * ref, ref]
    scales = probe.local_scales([(1.05, 1.15), (1.96, 1.99), (1.6, 1.7)])
    assert scales[0] == pytest.approx(0.5)
    assert scales[1] == pytest.approx(1.0)
    # No probe near it: the scale of the whole pass.
    assert scales[2] == pytest.approx(probe.scale()) == pytest.approx(5 / 8)


def test_committed_golden_covers_every_input():
    golden = suite.load_golden()
    assert set(golden) == set(suite.WORKLOADS)
    assert set(golden["sweep-cold"]) == {str(i)
                                         for i in range(suite.GOLDEN_INPUTS)}
    assert set(golden["serve-warm"]) == {"all"}
    assert set(golden["fig11-cold"]) == {"fig11"}


def test_run_without_program_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(suite.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
