"""Regenerate every paper figure: ``python -m repro.harness.reproduce``.

Presets trade fidelity for runtime (pure-Python simulation on synthetic
traces):

* ``--preset quick`` — short traces, small suites; minutes.  For smoke runs.
* ``--preset full``  — the lengths EXPERIMENTS.md was produced with.

Select a subset with ``--only fig11,fig12``; write markdown with
``--output results.md``.  ``--jobs N`` (default ``REPRO_JOBS``) runs whole
figures in parallel worker processes; all workers share one persistent
artifact store (``--cache-dir``, default ``REPRO_CACHE_DIR`` or
``~/.cache/repro-thermometer``) so traces, OPT profiles, hint maps, and
baseline runs are computed once per machine.  ``--no-cache`` disables the
store.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Union

from repro import runtime
from repro.harness.engine import ArtifactStore
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.reporting import CacheStats
from repro.harness.runner import Harness, HarnessConfig
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)

__all__ = ["main", "run_experiments", "PRESETS"]

log = logging.getLogger(__name__)

PRESETS: Dict[str, dict] = {
    # length: per-app trace records; cbp/ipc: suite sizes.
    "quick": {"length": 50_000, "cbp_count": 12, "ipc_count": 6,
              "suite_length": 50_000, "inputs": (1,)},
    "full": {"length": None, "cbp_count": 60, "ipc_count": 15,
             "suite_length": 120_000, "inputs": (1, 2, 3)},
}


def _experiment_kwargs(name: str, settings: dict) -> dict:
    if name == "fig13":
        return {"inputs": settings["inputs"]}
    if name == "fig17":
        return {"count": settings["cbp_count"],
                "length": settings["suite_length"]}
    if name == "fig18":
        return {"count": settings["ipc_count"],
                "length": settings["suite_length"]}
    return {}


def _harness_config(settings: dict,
                    apps: Optional[List[str]]) -> HarnessConfig:
    if apps:
        return HarnessConfig(apps=tuple(apps), length=settings["length"])
    return HarnessConfig(length=settings["length"])


def _run_one(name: str, preset: str, apps: Optional[List[str]],
             cache_dir: Optional[str] = None,
             config: Optional[runtime.RuntimeConfig] = None):
    """Worker entry point (must be module-level for process pools); runs
    under the parent's runtime ``config`` when one is given."""
    if config is not None:
        with runtime.override(config):
            return _run_one(name, preset, apps, cache_dir)
    settings = PRESETS[preset]
    store = ArtifactStore(cache_dir) if cache_dir else None
    harness = Harness(_harness_config(settings, apps), store=store)
    start = time.perf_counter()
    result = ALL_EXPERIMENTS[name](harness,
                                   **_experiment_kwargs(name, settings))
    stats = store.stats if store is not None else CacheStats()
    return name, result, time.perf_counter() - start, stats


def run_experiments(names: Optional[List[str]] = None,
                    preset: str = "full",
                    apps: Optional[List[str]] = None,
                    stream=sys.stdout,
                    jobs: int = 1,
                    cache_dir: Union[str, None] = None,
                    max_retries: Optional[int] = None
                    ) -> Dict[str, "ExperimentResult"]:
    """Run the named experiments (all by default) and stream their tables.

    ``jobs > 1`` runs whole figures in parallel worker processes; a
    figure whose worker raises or dies is retried on a fresh pool up to
    ``max_retries`` times (default: the runtime config's) before
    the whole reproduction fails, so one lost worker does not discard
    every other figure's work.  ``cache_dir`` points every process at one
    shared on-disk artifact store, so per-figure harnesses reuse each
    other's traces, profiles, hints, and LRU baselines (and so do later
    invocations — including those retries, which skip straight to the
    missing artifacts).
    """
    settings = PRESETS[preset]
    names = names or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}; available: "
                         f"{list(ALL_EXPERIMENTS)}")
    cache_dir = str(cache_dir) if cache_dir else None
    results = {}
    cache_stats = CacheStats()

    def record(name, result, elapsed, stats):
        results[name] = result
        cache_stats.merge(stats)
        # run_experiments is a library API streaming to a caller-chosen
        # file object, so it writes directly instead of logging.
        print(result.render(), file=stream)
        print(f"[{name} took {elapsed:.1f}s]\n", file=stream)
        stream.flush()

    if max_retries is None:
        max_retries = runtime.current().max_retries
    if jobs > 1:
        # Retry rounds recreate the pool: a worker death breaks the whole
        # ProcessPoolExecutor, so surviving figures are re-run (their
        # artifacts are already in the shared store) on fresh processes.
        queue = list(names)
        for round_no in range(1 + max_retries):
            failed: List[str] = []
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(_run_one, name, preset, apps,
                                       cache_dir, runtime.current())
                           for name in queue]
                for name, future in zip(queue, futures):
                    try:
                        record(*future.result())
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as exc:
                        log.warning("figure %s failed in round %d "
                                    "(%s: %s)", name, round_no,
                                    type(exc).__name__, exc)
                        failed.append(name)
            queue = failed
            if not queue:
                break
        if queue:
            raise RuntimeError(
                f"experiments failed after {1 + max_retries} "
                f"attempt(s): {', '.join(queue)}")
    else:
        store = ArtifactStore(cache_dir) if cache_dir else None
        harness = Harness(_harness_config(settings, apps), store=store)
        for name in names:
            start = time.perf_counter()
            result = ALL_EXPERIMENTS[name](
                harness, **_experiment_kwargs(name, settings))
            record(name, result, time.perf_counter() - start,
                   CacheStats())
        if store is not None:
            cache_stats.merge(store.stats)
    if cache_dir:
        print(cache_stats.render(), file=stream)
        stream.flush()
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.reproduce",
        description="Regenerate the Thermometer paper's figures.")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="full")
    parser.add_argument("--only", default=None,
                        help="comma-separated experiment names (e.g. "
                             "fig11,fig12)")
    parser.add_argument("--apps", default=None,
                        help="comma-separated subset of the 13 applications")
    parser.add_argument("--output", default=None,
                        help="also write results as markdown to this file")
    parser.add_argument("--jobs", type=int, default=None,
                        help="run figures in N parallel processes "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent artifact store location (default: "
                             "REPRO_CACHE_DIR or ~/.cache/repro-thermometer)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent artifact store")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="re-run a figure whose worker failed up to N "
                             "times (default: REPRO_MAX_RETRIES or 1)")
    parser.add_argument("--validate", action="store_true",
                        help="check the reproduction claims against the "
                             "results and exit non-zero on failures")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    setup_cli_logging(args)
    names = args.only.split(",") if args.only else None
    apps = args.apps.split(",") if args.apps else None
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(runtime.current().store_root)
    results = run_experiments(names=names, preset=args.preset, apps=apps,
                              jobs=(args.jobs if args.jobs is not None
                                    else runtime.current().jobs),
                              cache_dir=cache_dir,
                              max_retries=args.max_retries)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            for result in results.values():
                fh.write(result.to_markdown())
                fh.write("\n\n")
        emit(f"wrote {args.output}")
    if args.validate:
        from repro.harness.validate import render_report, validate_results
        outcomes = validate_results(results)
        emit(render_report(outcomes))
        if any(o.status == "FAIL" for o in outcomes):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
