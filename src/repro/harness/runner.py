"""Shared experiment machinery: trace/profile caches and simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.btb.btb import BTB, BTBStats, run_btb
from repro.btb.config import (BTBConfig, DEFAULT_BTB_CONFIG,
                              THERMOMETER_7979_CONFIG)
from repro.btb.replacement.registry import make_policy
from repro.core.hints import HintMap, ThresholdQuantizer
from repro.core.pipeline import bypass_recommended
from repro.core.profiler import OptProfile, profile_trace
from repro.core.temperature import TemperatureProfile
from repro.frontend.params import DEFAULT_FRONTEND_PARAMS, FrontendParams
from repro.frontend.simulator import FrontendSimulator, SimResult
from repro.prefetch.twig import TwigPrefetcher
from repro.telemetry.tracing import span
from repro.trace.record import BranchTrace
from repro.trace.stream import AccessStream, access_stream_for
from repro.workloads.datacenter import app_names, make_app_trace

__all__ = ["Harness", "HarnessConfig", "PRIOR_POLICIES"]

#: The prior replacement policies the paper compares against (Fig. 1).
PRIOR_POLICIES = ("srrip", "ghrp", "hawkeye")


@dataclass(frozen=True)
class HarnessConfig:
    """Configuration shared by every experiment run by one harness."""

    apps: Tuple[str, ...] = field(default_factory=lambda: tuple(app_names()))
    #: Dynamic trace length per app; None keeps each app's default.
    length: Optional[int] = None
    btb_config: BTBConfig = DEFAULT_BTB_CONFIG
    params: FrontendParams = DEFAULT_FRONTEND_PARAMS
    thresholds: Tuple[float, float] = (50.0, 80.0)
    #: Category for unprofiled branches (warm: no evidence either way).
    default_category: int = 1
    warmup_fraction: float = 0.2


class Harness:
    """Caches traces, profiles, hints, and baseline runs across experiments.

    One harness = one machine configuration; experiments that sweep a
    parameter (BTB size, FTQ depth, ...) construct variant configs
    explicitly and bypass the caches where the variant matters.

    ``store`` (an :class:`~repro.harness.engine.ArtifactStore`) adds a
    second, persistent cache level: artifacts missing from the in-memory
    dicts are loaded from disk when available and written back when
    computed, so they are shared across processes and CLI invocations.
    """

    def __init__(self, config: Optional[HarnessConfig] = None, store=None):
        # None-and-construct (not a default instance): a shared default
        # object would alias config-derived state across harnesses.
        self.config = config if config is not None else HarnessConfig()
        self.store = store
        self._traces: Dict[Tuple[str, int], BranchTrace] = {}
        self._profiles: Dict[Tuple[str, int, BTBConfig], OptProfile] = {}
        self._lru_sims: Dict[Tuple[str, int], SimResult] = {}
        self._twigs: Dict[Tuple[str, int], TwigPrefetcher] = {}

    def invalidate(self, app: Optional[str] = None,
                   input_id: Optional[int] = None) -> None:
        """Drop in-memory artifacts for ``(app, input_id)`` (or matching
        ``app`` regardless of input, or everything with no arguments).

        The engine calls this before retrying a failed job so the retry
        re-reads every intermediate artifact through the persistent store
        — a quarantined (corrupt) entry is then rebuilt instead of being
        resurrected from this harness's warm caches.
        """
        def matches(key: Tuple) -> bool:
            if app is not None and key[0] != app:
                return False
            if input_id is not None and key[1] != input_id:
                return False
            return True

        for cache in (self._traces, self._profiles, self._lru_sims,
                      self._twigs):
            for key in [k for k in cache if matches(k)]:
                del cache[key]

    def _fetch(self, kind: str, fields: dict, compute):
        """Compute an artifact through the persistent store, if any.

        Actual computes (in-memory and store misses, not store hits) run
        under a ``harness.<kind>`` span, so span paths mirror the build
        graph (a hint map that computes its profile and trace nests
        ``harness.trace`` under ``harness.profile`` under
        ``harness.hints``).
        """
        def timed():
            with span("harness." + kind):
                return compute()

        if self.store is None:
            return timed()
        return self.store.fetch(kind, self.store.key(kind, **fields),
                                timed)

    def lru_sim(self, app: str, input_id: int = 0) -> SimResult:
        """Cached LRU-baseline timing run (the denominator of every
        speedup figure)."""
        key = (app, input_id)
        cached = self._lru_sims.get(key)
        if cached is None:
            fields = dict(app=app, policy="lru", input_id=input_id,
                          length=self.config.length,
                          btb_config=self.config.btb_config,
                          params=self.config.params,
                          thresholds=tuple(self.config.thresholds),
                          default_category=self.config.default_category,
                          warmup_fraction=self.config.warmup_fraction)
            # _fetch opens this compute's harness.sim span.
            cached = self._fetch(
                "sim", fields,
                lambda: self._simulate(self.trace(app, input_id), "lru"))
            self._lru_sims[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Cached artifacts
    # ------------------------------------------------------------------
    def trace(self, app: str, input_id: int = 0) -> BranchTrace:
        key = (app, input_id)
        cached = self._traces.get(key)
        if cached is None:
            fields = dict(app=app, input_id=input_id,
                          length=self.config.length)
            cached = self._fetch(
                "trace", fields,
                lambda: make_app_trace(app, input_id=input_id,
                                       length=self.config.length))
            self._traces[key] = cached
        return cached

    def twig(self, app: str, input_id: int = 0) -> TwigPrefetcher:
        """The Twig prefetcher trained on ``app``'s trace under the
        harness geometry, trained once and shared by every run that
        uses it (prefetcher state never changes a run's result)."""
        key = (app, input_id)
        if key not in self._twigs:
            self._twigs[key] = TwigPrefetcher.train(
                self.trace(app, input_id), self.config.btb_config)
        return self._twigs[key]

    def profile(self, app: str, input_id: int = 0,
                btb_config: Optional[BTBConfig] = None) -> OptProfile:
        btb_config = btb_config or self.config.btb_config
        key = (app, input_id, btb_config)
        cached = self._profiles.get(key)
        if cached is None:
            fields = dict(app=app, input_id=input_id,
                          length=self.config.length, btb_config=btb_config)
            cached = self._fetch(
                "profile", fields,
                lambda: profile_trace(self.trace(app, input_id),
                                      btb_config))
            self._profiles[key] = cached
        return cached

    def temperatures(self, app: str, input_id: int = 0,
                     btb_config: Optional[BTBConfig] = None
                     ) -> TemperatureProfile:
        return TemperatureProfile.from_opt_profile(
            self.profile(app, input_id, btb_config))

    def hints(self, app: str, input_id: int = 0,
              btb_config: Optional[BTBConfig] = None,
              thresholds: Optional[Sequence[float]] = None) -> HintMap:
        thresholds = tuple(thresholds or self.config.thresholds)

        def compute() -> HintMap:
            return ThresholdQuantizer(thresholds).quantize(
                self.temperatures(app, input_id, btb_config),
                default_category=self.config.default_category)

        fields = dict(app=app, input_id=input_id, length=self.config.length,
                      btb_config=btb_config or self.config.btb_config,
                      thresholds=thresholds,
                      default_category=self.config.default_category)
        return self._fetch("hints", fields, compute)

    def stream(self, trace: BranchTrace,
               btb_config: Optional[BTBConfig] = None) -> AccessStream:
        """The shared columnar access stream for ``trace`` under the
        harness's (or the given) BTB geometry — memoized process-wide, so
        every policy in a sweep replays the same precomputed columns."""
        return access_stream_for(trace,
                                 btb_config or self.config.btb_config)

    # ------------------------------------------------------------------
    # Policy / BTB construction
    # ------------------------------------------------------------------
    def build_btb(self, policy_name: str, trace: BranchTrace,
                  btb_config: Optional[BTBConfig] = None,
                  hints: Optional[HintMap] = None) -> BTB:
        """A fresh BTB running ``policy_name`` for ``trace``.

        ``'thermometer'`` requires ``hints``; ``'thermometer-7979'`` uses
        the iso-storage configuration of Fig. 11.
        """
        btb_config = btb_config or self.config.btb_config
        if policy_name == "thermometer-7979":
            btb_config = THERMOMETER_7979_CONFIG
            policy_name = "thermometer"
        if policy_name in ("thermometer", "thermometer-dueling"):
            if hints is None:
                raise ValueError(f"{policy_name} needs hints")
            policy = make_policy(
                policy_name, hints=hints,
                default_category=self.config.default_category,
                bypass_enabled=bypass_recommended(hints, btb_config))
        elif policy_name == "opt":
            # The shared stream's next-use column is computed once per
            # (trace, geometry) and reused across every OPT consumer.
            policy = make_policy(
                "opt", stream=access_stream_for(trace, btb_config))
        else:
            policy = make_policy(policy_name)
        return BTB(btb_config, policy)

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def run_misses(self, trace: BranchTrace, policy_name: str,
                   btb_config: Optional[BTBConfig] = None,
                   hints: Optional[HintMap] = None) -> BTBStats:
        """Replay only the BTB (no timing) — fast path for miss figures.

        The BTB is this call's own: its storage goes back to the free
        list (:meth:`BTB.release`) once the stats are read."""
        with span("harness.misses"):
            btb = self.build_btb(policy_name, trace, btb_config, hints)
            stats = run_btb(trace, btb)
            btb.release()
            return stats

    def run_sim(self, trace: BranchTrace, policy_name: Optional[str] = "lru",
                btb_config: Optional[BTBConfig] = None,
                hints: Optional[HintMap] = None,
                params: Optional[FrontendParams] = None,
                prefetcher=None, **oracle_flags) -> SimResult:
        """Full timing simulation; ``policy_name=None`` with
        ``perfect_btb=True`` runs the perfect-BTB oracle.  The BTB and
        the I-cache rows are released after the run (the result keeps
        only their counts)."""
        with span("harness.sim"):
            return self._simulate(trace, policy_name, btb_config, hints,
                                  params, prefetcher, **oracle_flags)

    def _simulate(self, trace: BranchTrace, policy_name: Optional[str],
                  btb_config: Optional[BTBConfig] = None,
                  hints: Optional[HintMap] = None,
                  params: Optional[FrontendParams] = None,
                  prefetcher=None, **oracle_flags) -> SimResult:
        """:meth:`run_sim` without its span."""
        params = params or self.config.params
        btb = None
        if not oracle_flags.get("perfect_btb"):
            btb = self.build_btb(policy_name, trace, btb_config, hints)
        sim = FrontendSimulator(params=params, btb=btb,
                                prefetcher=prefetcher, **oracle_flags)
        result = sim.simulate(
            trace, warmup_fraction=self.config.warmup_fraction)
        sim.icache.release()
        if btb is not None:
            btb.release()
        return result

    @staticmethod
    def speedup_pct(result: SimResult, baseline: SimResult) -> float:
        """IPC speedup in percent."""
        return 100.0 * result.speedup_over(baseline)

    @staticmethod
    def miss_reduction_pct(stats: BTBStats, baseline: BTBStats) -> float:
        if baseline.misses == 0:
            return 0.0
        return 100.0 * (baseline.misses - stats.misses) / baseline.misses
