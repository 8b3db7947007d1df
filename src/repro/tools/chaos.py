"""Chaos smoke test: a sweep under a seeded fault plan must converge.

::

    python -m repro.tools.chaos --seed 1234 --jobs 2 --max-retries 2

The tool runs the same (apps × policies) matrix twice against two
separate artifact stores:

1. a **reference** run with no faults — the ground truth;
2. a **faulted** run under a :meth:`~repro.testing.faults.FaultPlan.random`
   plan derived from ``--seed`` (workers raise, hang past the job
   timeout, corrupt their stored artifacts, or SIGKILL themselves), set
   as the runtime config's fault plan, which the engine ships to the
   real ``ProcessPoolExecutor`` workers.  If the engine exhausts
   its retries, the run is *resumed* — faults cleared, exactly as an
   operator would rerun a crashed sweep — until it converges.  A final
   fault-free verification pass then re-reads every artifact, so entries
   corrupted on disk are quarantined and rebuilt.

The exit status is 0 only when every job's result — values and manifest
rows — is identical to the reference.  The fault plan is logged as JSON,
so a red CI run can be replayed locally with nothing but the seed.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import runtime
from repro.btb.config import BTBConfig
from repro.harness.engine import ExperimentEngine, ExperimentError, SimJob
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.telemetry.manifest import canonical_rows, read_run_manifest
from repro.testing.faults import FaultPlan

__all__ = ["main"]

log = logging.getLogger("repro.tools.chaos")

DEFAULT_APPS = "tomcat,kafka"
DEFAULT_POLICIES = "lru,srrip,thermometer"


def _build_jobs(args) -> List[SimJob]:
    config = BTBConfig(entries=args.entries, ways=args.ways)
    return [SimJob(app=app, policy=policy, length=args.length,
                   mode="misses", btb_config=config)
            for app in args.apps.split(",") if app
            for policy in args.policies.split(",") if policy]


def _run_to_convergence(engine: ExperimentEngine, jobs: List[SimJob],
                        max_resumes: int, plan: FaultPlan):
    """Run a sweep under ``plan``, resuming (with faults cleared) until
    it succeeds."""
    try:
        with runtime.override(fault_plan=plan):
            return engine.run(jobs), 0
    except ExperimentError as exc:
        log.warning("faulted run did not converge in one pass: %s", exc)
        resume_id = exc.run_id
    # Resumes model the operator rerunning after a crash: the transient
    # faults are gone, and completed jobs verify out of the store.
    for round_no in range(1, 1 + max_resumes):
        try:
            return engine.run(jobs, resume=resume_id), round_no
        except ExperimentError as exc:  # pragma: no cover - needs a
            resume_id = exc.run_id      # fault surviving the plan clear
            log.warning("resume round %d still failing: %s",
                        round_no, exc)
    raise RuntimeError(f"sweep did not converge after {max_resumes} "
                       f"resume(s)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.chaos",
        description="Run a sweep under a seeded fault plan and check it "
                    "converges to the fault-free results.")
    parser.add_argument("--seed", type=int, required=True,
                        help="fault-plan seed (log it; it replays the "
                             "exact failure schedule)")
    parser.add_argument("--apps", default=DEFAULT_APPS)
    parser.add_argument("--policies", default=DEFAULT_POLICIES)
    parser.add_argument("--length", type=int, default=12_000)
    parser.add_argument("--entries", type=int, default=2048)
    parser.add_argument("--ways", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes for the faulted run")
    parser.add_argument("--rate", type=float, default=0.5,
                        help="per-job fault probability in the plan")
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument("--job-timeout", type=float, default=20.0)
    parser.add_argument("--max-resumes", type=int, default=3,
                        help="resume rounds before giving up")
    parser.add_argument("--cache-dir", default=None,
                        help="scratch root for the two stores (default: "
                             "REPRO_CACHE_DIR/chaos or a temp directory)")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    setup_cli_logging(args)

    cache_dir = runtime.current().cache_dir
    if args.cache_dir:
        root = Path(args.cache_dir).expanduser()
    elif cache_dir is not None:
        root = cache_dir / "chaos"
    else:
        import tempfile
        root = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    jobs = _build_jobs(args)
    # Hangs must outlast the job timeout or they would never trip it.
    plan = FaultPlan.random(args.seed, len(jobs), rate=args.rate,
                            hang_seconds=max(2.0, 1.5 * args.job_timeout))
    emit(f"chaos seed {args.seed}: {len(plan)} fault(s) over "
         f"{len(jobs)} job(s)")
    emit(f"fault plan: {plan.to_json()}")

    # Only the faulted run sees the plan; the reference, the resumes and
    # the verification pass run fault-free.
    with runtime.override(fault_plan=None):
        start = time.perf_counter()
        reference = ExperimentEngine(
            cache_dir=root / f"reference-{args.seed}", jobs=1)
        ref_results = reference.run(jobs)

        faulted = ExperimentEngine(cache_dir=root / f"faulted-{args.seed}",
                                   jobs=args.jobs,
                                   max_retries=args.max_retries,
                                   job_timeout=args.job_timeout)
        _, resumes = _run_to_convergence(faulted, jobs, args.max_resumes,
                                         plan)
        # Verification pass: re-read every artifact fault-free, so
        # on-disk corruption is caught by the integrity digest,
        # quarantined, and rebuilt before the comparison.
        verify = ExperimentEngine(cache_dir=faulted.cache_dir, jobs=1)
        got_results = verify.run(jobs)
    elapsed = time.perf_counter() - start

    failures = []
    for ref, got in zip(ref_results, got_results):
        if ref.value != got.value:
            failures.append(f"{ref.job.app}/{ref.job.policy}: "
                            f"value diverged from reference")
    ref_rows = canonical_rows(
        read_run_manifest(reference.last_manifest).rows)
    got_rows = canonical_rows(
        read_run_manifest(verify.last_manifest).rows)
    if ref_rows != got_rows:
        failures.append("manifest canonical rows diverged from reference")

    quarantined = (faulted.stats.quarantined + verify.stats.quarantined)
    emit(f"converged in {elapsed:.1f}s: {len(jobs)} job(s), "
         f"{resumes} resume(s), {quarantined} quarantined artifact(s)")
    if failures:
        for failure in failures:
            log.error("%s", failure)
        log.error("sweep did NOT converge to the fault-free results "
                  "(replay with --seed %d)", args.seed)
        return 1
    emit("faulted sweep is bit-identical to the fault-free reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
