"""Regenerate every paper figure: ``python -m repro.harness.reproduce``.

Presets trade fidelity for runtime (pure-Python simulation on synthetic
traces):

* ``--preset quick`` — short traces, small suites; minutes.  For smoke runs.
* ``--preset full``  — the lengths EXPERIMENTS.md was produced with.

Select a subset with ``--only fig11,fig12``; write markdown with
``--output results.md``.  The planned figures' cells (fig1-4, fig11,
fig12, fig21) run as one engine run on ``--jobs N`` workers (default
``REPRO_JOBS``), each job retried up to ``--max-retries`` times; the
other figures then run inline, unretried.  All processes share one
artifact store (``--cache-dir``, default ``REPRO_CACHE_DIR`` or
``~/.cache/repro-thermometer``; ``--no-cache`` disables it), which also
keeps the engine run's manifest under ``runs/``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Union

from repro import runtime
from repro.harness.engine import ArtifactStore, ExperimentEngine
from repro.harness.engine.store import fold_cache
from repro.harness.experiments import ALL_EXPERIMENTS, FIGURE_PLANS
from repro.harness.runner import Harness, HarnessConfig
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.telemetry.manifest import render_cache, span_table
from repro.telemetry.metrics import (get_registry, merge_snapshots,
                                     snapshot_delta)

__all__ = ["main", "run_experiments", "PRESETS"]

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


def run_experiments(names: Optional[List[str]] = None,
                    preset: str = "full",
                    apps: Optional[List[str]] = None,
                    stream=sys.stdout,
                    jobs: int = 1,
                    cache_dir: Union[str, None] = None,
                    max_retries: Optional[int] = None
                    ) -> Dict[str, "ExperimentResult"]:
    """Run the named experiments (all by default) and stream their tables.

    The selected ``FIGURE_PLANS`` run first, as one engine run over the
    de-duplicated union of their cells (``jobs`` workers, up to
    ``max_retries`` retries per job, a manifest under
    ``<cache_dir>/runs``); the other figures then run inline on one
    harness, unretried.  Results keep ``names`` order.  The closing
    cache line and span table cover both: the engine run's merged
    telemetry plus the inline figures' registry delta.
    """
    run_start = time.perf_counter()
    settings = PRESETS[preset]
    names = names or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}; available: "
                         f"{list(ALL_EXPERIMENTS)}")
    cache_dir = str(cache_dir) if cache_dir else None
    config = _harness_config(settings, apps)
    plans = {name: FIGURE_PLANS[name].plan(config) for name in names
             if name in FIGURE_PLANS}
    telemetry = []
    cells = {}
    if plans:
        unique = list(dict.fromkeys(job for plan in plans.values()
                                    for job in plan))
        engine = ExperimentEngine(cache_dir=cache_dir, jobs=jobs,
                                  max_retries=max_retries)
        start = time.perf_counter()
        done = engine.run(unique)
        cells = {job: result.value for job, result in zip(unique, done)}
        telemetry.append(engine.last_run_telemetry)
        # run_experiments is a library API streaming to a caller-chosen
        # file object, so it writes directly instead of logging.
        print(f"[engine run: {len(unique)} jobs for {', '.join(plans)}, "
              f"{sum(r.cached for r in done)} from the store, "
              f"{time.perf_counter() - start:.1f}s]\n", file=stream)
    store = ArtifactStore(cache_dir) if cache_dir else None
    harness = None
    results = {}
    registry = get_registry()
    inline_before = registry.snapshot() if registry.enabled else None
    for name in names:
        start = time.perf_counter()
        if name in plans:
            result = FIGURE_PLANS[name].reduce(config, cells)
            done_line = f"[{name}: {len(plans[name])} cells]"
        else:
            harness = harness or Harness(config, store=store)
            result = ALL_EXPERIMENTS[name](
                harness, **_experiment_kwargs(name, settings))
            done_line = f"[{name} took {time.perf_counter() - start:.1f}s]"
        results[name] = result
        print(result.render(), file=stream)
        print(done_line + "\n", file=stream)
        stream.flush()
    if inline_before is not None:
        telemetry.append(snapshot_delta(registry.snapshot(), inline_before))
    merged = merge_snapshots(telemetry)
    if cache_dir and registry.enabled:
        print(render_cache(fold_cache(merged["counters"])), file=stream)
    spans = span_table(merged, time.perf_counter() - run_start)
    if spans:
        print(spans, file=stream)
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
                        help="run the planned figures' jobs in N "
                             "parallel processes (default: REPRO_JOBS "
                             "or 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent artifact store location (default: "
                             "REPRO_CACHE_DIR or ~/.cache/repro-thermometer)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent artifact store")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="retry each failed job of the engine run up "
                             "to N times; inline figures are not retried "
                             "(default: REPRO_MAX_RETRIES or 1)")
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
