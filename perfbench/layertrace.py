"""Outside-in per-layer tracing for the benchmark's traced run.

Spans are recorded around calls *into* the ``repro`` packages by
replacing module attributes (functions, wherever a module bound them,
including ``from x import f`` copies) and class attributes (methods) with
timing wrappers, and restoring the originals afterwards.  Instance
attributes are never touched: the fast-path dispatch guards in
``repro.btb.kernels`` and ``repro.frontend.kernels`` reject objects
whose hooks were patched on the instance, so wrapping one would silently
move the traced run onto the reference loops.

A layer's *busy* time is the summed duration of its spans; its *self*
time is busy time minus the part covered by spans nested inside it.
Nesting is decided by time containment, which matches call nesting for
the benchmark's serial workloads and also links the service's request
span (recorded by the client loop) to the engine run that serves it.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Layers reported with ``.calls``, ``.busy_s`` and ``.self_s``.
LAYERS = (
    "workloads.make_app_trace",
    "core.profile_trace",
    "trace.access_stream_for",
    "btb.replay",
    "btb.fast_replay",
    "frontend.simulate",
    "store.get",
    "store.put",
    "store.fetch",
    "store.usage_scan",
    "engine.run",
    "service.request",
)

#: Policies with a set-partitioned replay kernel; each gets a
#: ``btb.fast_replay.<policy>.busy_s`` metric.
KERNEL_POLICIES = (
    "dip", "fifo", "ghrp", "hawkeye", "lru", "mru", "opt", "plru", "ship",
    "srrip", "thermometer", "thermometer-dueling", "thermometer-online",
)

_active: contextvars.ContextVar[frozenset] = contextvars.ContextVar(
    "perfbench_active_layers", default=frozenset())


class LayerTrace:
    """Install wrappers on entry, restore the originals on exit.

    ``timed=False`` installs only the counting wrappers on the two
    fast-path dispatch functions; the untraced leg of a traced run uses
    it so that both legs report fast-path ratios.
    """

    def __init__(self, timed: bool = True) -> None:
        self.timed = timed
        self.spans: List[Tuple[str, float, float]] = []
        self.policy_busy: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, layer: str):
        """Time a block of the benchmark's own code as one span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((layer, start, time.perf_counter()))

    def _enter(self, layer: str):
        active = _active.get()
        if layer in active:
            return None
        return _active.set(active | {layer})

    def _sync(self, layer: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self._enter(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if token is not None:
                    _active.reset(token)
                    self.spans.append((layer, start, end))
            if after is not None:
                after(args, kwargs, result, end - start)
            return result
        return wrapper

    def _async(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            token = self._enter(layer)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if token is not None:
                    _active.reset(token)
                    self.spans.append((layer, start, end))
        return wrapper

    def _counting(self, prefix: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[prefix + ".attempts"] += 1
            if result is not None:
                self.counts[prefix + ".accepted"] += 1
            return result
        return wrapper

    # -- installation ----------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module_name: str, attr: str,
                      make: Callable[[Callable], Callable]) -> None:
        """Replace the function ``module_name.attr`` in every loaded
        ``repro`` module that bound it, under whatever name."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def wrap_method(self, cls: type, attr: str, layer: str,
                    count: Optional[str] = None) -> None:
        """Time ``cls.attr`` as ``layer``; with ``count``, also count
        calls and non-None results as ``<count>.attempts``/``.accepted``."""
        fn = cls.__dict__[attr]
        if inspect.iscoroutinefunction(fn):
            self._set(cls, attr, self._async(layer, fn))
            return
        if count is not None:
            fn = self._counting(count, fn)
        self._set(cls, attr, self._sync(layer, fn))

    def __enter__(self) -> "LayerTrace":
        # Import every module whose names get wrapped, so the scan in
        # wrap_function sees all of their bindings.
        import repro.btb.btb  # noqa: F401
        import repro.btb.kernels  # noqa: F401
        import repro.core.profiler  # noqa: F401
        import repro.frontend.kernels  # noqa: F401
        import repro.harness.engine  # noqa: F401
        import repro.harness.reproduce  # noqa: F401
        import repro.service  # noqa: F401
        import repro.trace.stream  # noqa: F401
        import repro.workloads.datacenter  # noqa: F401
        from repro.frontend.simulator import FrontendSimulator
        from repro.harness.engine import ArtifactStore, ExperimentEngine

        def replay_policy(args, kwargs, result, seconds):
            btb = args[1] if len(args) > 1 else kwargs["btb"]
            self.policy_busy[getattr(btb.policy, "name", "?")] += seconds

        try:
            if self.timed:
                self.wrap_function(
                    "repro.btb.kernels", "try_fast_replay",
                    lambda fn: self._sync(
                        "btb.fast_replay",
                        self._counting("btb.fast_path", fn),
                        after=replay_policy))
            else:
                self.wrap_function(
                    "repro.btb.kernels", "try_fast_replay",
                    lambda fn: self._counting("btb.fast_path", fn))
            self.wrap_function(
                "repro.frontend.kernels", "try_fast_simulate",
                lambda fn: self._counting("frontend.fast_path", fn))
            if not self.timed:
                return self
            for module, attr, layer in (
                    ("repro.workloads.datacenter", "make_app_trace",
                     "workloads.make_app_trace"),
                    ("repro.core.profiler", "profile_trace",
                     "core.profile_trace"),
                    ("repro.trace.stream", "access_stream_for",
                     "trace.access_stream_for"),
                    ("repro.btb.btb", "replay_stream", "btb.replay"),
                    ("repro.btb.btb", "replay_stream_multi", "btb.replay")):
                self.wrap_function(module, attr,
                                   functools.partial(self._sync, layer))
            self.wrap_method(FrontendSimulator, "simulate",
                             "frontend.simulate")
            self.wrap_method(ArtifactStore, "get", "store.get",
                             count="store.get")
            for attr in ("put", "fetch"):
                self.wrap_method(ArtifactStore, attr, "store." + attr)
            for attr in ("usage_bytes", "namespaces_summary"):
                self.wrap_method(ArtifactStore, attr, "store.usage_scan")
            for attr in ("run", "run_async"):
                self.wrap_method(ExperimentEngine, attr, "engine.run")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reduction -------------------------------------------------------
    def ratio(self, prefix: str) -> float:
        attempts = self.counts[prefix + ".attempts"]
        return self.counts[prefix + ".accepted"] / attempts if attempts \
            else 0.0

    def layer_metrics(self, wall_s: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        calls: Counter = Counter()
        busy: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for layer, duration, own in self_times(self.spans):
            calls[layer] += 1
            busy[layer] += duration
            self_s[layer] += own
        out: Dict[str, Tuple[float, str]] = {}
        for layer in LAYERS:
            out[layer + ".calls"] = (calls[layer], "count")
            out[layer + ".busy_s"] = (busy[layer], "s")
            out[layer + ".self_s"] = (self_s[layer], "s")
        for policy in KERNEL_POLICIES:
            out[f"btb.fast_replay.{policy}.busy_s"] = (
                self.policy_busy.get(policy, 0.0), "s")
        out["btb.fast_path_ratio"] = (self.ratio("btb.fast_path"), "ratio")
        out["frontend.fast_path_ratio"] = (
            self.ratio("frontend.fast_path"), "ratio")
        out["unattributed_s"] = (wall_s - sum(self_s.values()), "s")
        return out


def self_times(spans) -> List[Tuple[str, float, float]]:
    """``(layer, duration, self time)`` per span.

    A span's parent is the innermost earlier span whose interval
    contains its start; the part of a child that sticks out of its
    parent is not subtracted from the parent.
    """
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][1], -spans[i][2]))
    covered = [0.0] * len(spans)
    stack: List[int] = []
    for i in order:
        _, start, end = spans[i]
        while stack and spans[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            parent_end = spans[stack[-1]][2]
            covered[stack[-1]] += min(end, parent_end) - start
        stack.append(i)
    return [(layer, end - start, max(0.0, end - start - covered[i]))
            for i, (layer, start, end) in enumerate(spans)]
