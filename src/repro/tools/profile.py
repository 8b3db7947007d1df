"""Offline profile analysis: trace file → temperature hints JSON.

Examples::

    python -m repro.tools.profile cassandra.btrc.gz -o hints.json
    python -m repro.tools.profile t.btrc --thresholds 30,60 --entries 4096
    python -m repro.tools.profile t.btrc --crossval
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import List, Optional

from repro import runtime
from repro.btb.config import BTBConfig
from repro.core.crossval import cross_validate_thresholds
from repro.core.hints import ThresholdQuantizer
from repro.core.profiler import profile_trace
from repro.core.temperature import TemperatureProfile
from repro.telemetry.logconfig import (add_logging_args, emit,
                                       setup_cli_logging)
from repro.trace.formats import read_trace

__all__ = ["main"]


def _cached_profile(trace_path: str, trace, config: BTBConfig,
                    cache_dir: Optional[str]):
    """OPT-profile ``trace`` through the persistent artifact store.

    Profiles are keyed on the SHA-256 of the trace file's *bytes* (not its
    path), so renamed/copied traces still hit and edited traces miss.
    Returns ``(profile, cached)``.
    """
    if cache_dir is None:
        return profile_trace(trace, config), False
    from repro.harness.engine import ArtifactStore
    store = ArtifactStore(cache_dir)
    digest = hashlib.sha256(Path(trace_path).read_bytes()).hexdigest()
    key = store.key("profile", trace_sha256=digest, btb_config=config)
    cached = store.get("profile", key)
    if cached is not None:
        return cached, True
    profile = profile_trace(trace, config)
    store.put("profile", key, profile)
    return profile, False


def _parse_thresholds(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"thresholds must be comma-separated numbers, got {text!r}")
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.profile",
        description="OPT-profile a branch trace and emit temperature "
                    "hints (steps 2-3 of the Thermometer pipeline).")
    parser.add_argument("trace", help="trace file (.btrc/.btxt[.gz])")
    parser.add_argument("-o", "--output", default="hints.json",
                        help="hint JSON output path")
    parser.add_argument("--entries", type=int, default=8192)
    parser.add_argument("--ways", type=int, default=4)
    parser.add_argument("--thresholds", type=_parse_thresholds,
                        default=(50.0, 80.0),
                        help="temperature thresholds, e.g. 50,80")
    parser.add_argument("--default-category", type=int, default=1)
    parser.add_argument("--crossval", action="store_true",
                        help="two-fold cross-validate thresholds first")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent artifact store for OPT profiles "
                             "(default: REPRO_CACHE_DIR or "
                             "~/.cache/repro-thermometer)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always recompute the OPT profile")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    setup_cli_logging(args)

    trace = read_trace(args.trace)
    config = BTBConfig(entries=args.entries, ways=args.ways)
    thresholds = args.thresholds
    if args.crossval:
        result = cross_validate_thresholds(trace, config)
        thresholds = result.thresholds
        emit(f"cross-validated thresholds: {thresholds} "
             f"(held-out hit rate {result.hit_rate:.4f} vs default "
             f"{result.default_hit_rate:.4f})")

    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(runtime.current().store_root)
    profile, cached = _cached_profile(args.trace, trace, config, cache_dir)
    temps = TemperatureProfile.from_opt_profile(profile)
    hints = ThresholdQuantizer(thresholds).quantize(
        temps, default_category=args.default_category)
    hints.to_json(args.output)

    counts = hints.category_counts()
    provenance = " (cached)" if cached else ""
    emit(f"profiled {profile.num_branches} branches in "
         f"{profile.elapsed_seconds:.2f}s{provenance} "
         f"(OPT hit rate {profile.stats.hit_rate:.4f})")
    emit(f"wrote {args.output}: categories "
         + " / ".join(f"{c}" for c in counts)
         + f" (coldest first), {hints.hint_bits} bits per branch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
