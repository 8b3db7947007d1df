"""Figures as engine job plans (:class:`repro.harness.experiments.PlannedFigure`).

Every planned figure must give exactly the same rows whether it runs as
one serial engine run, as one process-pool engine run, or directly on a
harness; ``reproduce`` must submit the de-duplicated union of the
selected plans; and a policy string's frontend variant must never move a
plain policy's cache key.
"""

from __future__ import annotations

import io

import pytest

from repro.harness import reproduce
from repro.harness.engine import ExperimentEngine, SimJob
from repro.harness.engine.keys import effective_btb_config, split_policy
from repro.harness.experiments import FIGURE_PLANS, fig1, fig11
from repro.harness.runner import Harness, HarnessConfig
from repro.btb.config import DEFAULT_BTB_CONFIG
from repro.prefetch.shotgun import shotgun_btb_config
from repro.telemetry.manifest import fast_path_coverage, read_run_manifest

APPS = ["kafka", "verilator"]
LENGTH = 6000
PLANNED = list(FIGURE_PLANS)


def _shorten(mp: pytest.MonkeyPatch) -> None:
    """The quick preset at a short trace length (jobs carry the length,
    so pool workers see it too)."""
    mp.setitem(reproduce.PRESETS, "quick",
               dict(reproduce.PRESETS["quick"], length=LENGTH))


def _spy(mp: pytest.MonkeyPatch) -> list:
    """Record every job list an engine run is handed, in order."""
    seen = []
    original = ExperimentEngine.run

    def run(self, jobs, *args, **kwargs):
        seen.append(list(jobs))
        return original(self, jobs, *args, **kwargs)

    mp.setattr(ExperimentEngine, "run", run)
    return seen


@pytest.fixture
def short_quick(monkeypatch):
    _shorten(monkeypatch)


@pytest.fixture
def submitted(monkeypatch):
    return _spy(monkeypatch)


def _run(names, jobs, cache_dir):
    return reproduce.run_experiments(names=names, preset="quick", apps=APPS,
                                     stream=io.StringIO(), jobs=jobs,
                                     cache_dir=cache_dir)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Each planned figure's rows on the three paths, plus the job list
    the serial engine run was handed and the pool run's manifest."""
    with pytest.MonkeyPatch.context() as mp:
        _shorten(mp)
        seen = _spy(mp)
        serial = _run(PLANNED, 1, tmp_path_factory.mktemp("serial"))
        pool_store = tmp_path_factory.mktemp("pool")
        pool = _run(PLANNED, 2, pool_store)
    harness = Harness(HarnessConfig(apps=tuple(APPS), length=LENGTH))
    direct = {name: FIGURE_PLANS[name](harness) for name in PLANNED}
    return {"serial": serial, "pool": pool, "direct": direct,
            "submitted": seen[0],
            "pool_summary": read_run_manifest(pool_store).summary}


@pytest.mark.parametrize("name", PLANNED)
def test_rows_identical_on_every_path(paths, name):
    rows = paths["direct"][name].rows
    assert [row[0] for row in rows][:2] == APPS
    assert paths["serial"][name].rows == rows
    assert paths["pool"][name].rows == rows


def test_engine_run_has_no_duplicate_keys(paths):
    jobs = paths["submitted"]
    assert len({job.cache_key() for job in jobs}) == len(jobs)
    config = HarnessConfig(apps=tuple(APPS), length=LENGTH)
    union = {job for figure in FIGURE_PLANS.values()
             for job in figure.plan(config)}
    assert set(jobs) == union


def test_pool_run_writes_a_manifest_with_coverage(paths):
    summary = paths["pool_summary"]
    assert summary["runtime"]["executor"] == "pool"
    assert summary["status"] == "completed"
    for family in ("btb", "sim"):
        coverage = fast_path_coverage(summary, family)
        assert coverage is not None and coverage[1] > 0, family


def test_shared_cells_share_jobs(short_quick, submitted, tmp_path):
    """fig1's cells are a subset of fig11's: the pair is fig11's jobs."""
    _run(["fig1", "fig11"], 1, tmp_path)
    config = HarnessConfig(apps=tuple(APPS), length=LENGTH)
    assert len(submitted) == 1
    assert len(submitted[0]) == len(fig11.plan(config))
    assert set(fig1.plan(config)) < set(fig11.plan(config))


def test_only_planned_cells_reach_the_engine(short_quick, submitted,
                                            tmp_path):
    """The inline figure runs after the engine run, but results keep the
    requested order."""
    results = _run(["fig5", "fig3"], 1, tmp_path)
    assert list(results) == ["fig5", "fig3"]
    assert [len(jobs) for jobs in submitted] == [len(APPS)]


class TestPolicyStrings:
    def test_plain_policy_keys_are_unchanged(self):
        # Recorded before frontend variants existed: a plain policy
        # string must key exactly as it always did.
        assert (SimJob(app="kafka", policy="lru", length=50000).cache_key()
                == "cf84967b4e05c47400279cda2a85d0b658ed10bd62fb983d2"
                   "84f7105b90bfb0d")
        assert (SimJob(app="verilator", policy="thermometer", length=6000,
                       mode="misses").cache_key()
                == "6b2d9fd301da2ee5d0c89950b85e325e9ba46a9d85e61069d"
                   "4083c2d714c5277")

    def test_split(self):
        assert split_policy("lru") == ("lru", None)
        assert split_policy("perfect-btb") == ("perfect-btb", None)
        assert split_policy("opt+shotgun") == ("opt", "shotgun")
        assert split_policy("thermometer+twig") == ("thermometer", "twig")

    @pytest.mark.parametrize("policy", [
        "lru+bogus", "lru+", "+twig", "lru+twig+shotgun",
        "perfect-btb+twig"])
    def test_malformed_variant_is_a_clean_value_error(self, policy):
        with pytest.raises(ValueError, match="bad policy"):
            SimJob(app="kafka", policy=policy)

    @pytest.mark.parametrize("policy", ["lru+twig", "perfect-btb"])
    def test_variants_need_the_timing_model(self, policy):
        with pytest.raises(ValueError, match="needs mode 'sim'"):
            SimJob(app="kafka", policy=policy, mode="misses")

    def test_variant_keys_differ_from_the_plain_policy(self):
        plain = SimJob(app="kafka", policy="opt")
        assert SimJob(app="kafka", policy="opt+twig").cache_key() \
            != plain.cache_key()

    def test_shotgun_pays_its_metadata_tax(self):
        assert (effective_btb_config("opt+shotgun", DEFAULT_BTB_CONFIG)
                == shotgun_btb_config(DEFAULT_BTB_CONFIG))
        assert effective_btb_config("opt+twig", DEFAULT_BTB_CONFIG) \
            is DEFAULT_BTB_CONFIG

    def test_hinted_variants_need_hints(self):
        assert SimJob(app="kafka", policy="thermometer+twig").needs_hints
        assert not SimJob(app="kafka", policy="opt+twig").needs_hints
