"""Process-local metrics: counters, gauges, histograms, and span times.

One :class:`MetricsRegistry` lives per process (``get_registry()``); the
engine, harness, simulator, and artifact store all record into it.  Four
properties drive the design:

* **Negligible overhead when disabled.**  Every mutator early-returns on
  ``enabled=False``, so a process that installs a disabled registry
  (:func:`set_registry`) pays one attribute load per call site.
* **Thread-safe.**  One lock guards every mutator, ``snapshot``,
  ``merge_snapshot`` and ``clear``: the service's executor threads
  record into one process registry.
* **Mergeable snapshots.**  :meth:`MetricsRegistry.snapshot` renders the
  whole registry as JSON-ready primitives; worker processes ship snapshot
  *deltas* back inside :class:`~repro.harness.engine.JobResult` and the
  parent folds them together with :func:`merge_snapshots` — counters and
  spans add, histograms add bucket-wise, gauges last-write-wins.
* **Hierarchical spans.**  :func:`repro.telemetry.tracing.span` adds
  each timed block under its path: ``span("harness.misses")`` inside
  ``span("engine.job")`` records as ``"engine.job/harness.misses"``, so
  the manifest shows where wall time went (the nesting falls out of
  the call graph).

Metric names are ``/``-separated lowercase paths (``store/hit``,
``sim/stage/target/btb_stall_cycles``); see ``docs/TELEMETRY.md`` for the
full catalogue.
"""

from __future__ import annotations

import gc
import math
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["BucketMismatchError", "Histogram", "MetricsRegistry",
           "count_gc_collections", "gc_collections", "get_registry",
           "set_registry", "merge_snapshots", "snapshot_delta",
           "to_prometheus_text",
           "DEFAULT_BUCKETS", "LATENCY_BUCKETS"]

#: Default histogram bucket upper bounds (power-of-4 ladder); values above
#: the last bound land in the implicit overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0)

#: Seconds-scale buckets for request/queue latency SLO histograms
#: (1 ms … 5 min); the service's per-tenant latency metrics use these.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 300.0)


class BucketMismatchError(ValueError):
    """Two histograms of one name with different bucket boundaries.

    Raised instead of silently mis-merging: each histogram name is
    created with one bounds tuple, so a mismatch is a bug, and the
    message names both layouts (and, from
    :meth:`MetricsRegistry.merge_snapshot`, the histogram).
    """


@dataclass
class Histogram:
    """A fixed-bucket histogram: ``len(bounds) + 1`` counts, where
    ``counts[i]`` holds observations ``<= bounds[i]`` (last bucket is
    overflow).  Merging requires identical bounds and adds counts
    element-wise."""

    bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0

    def __post_init__(self) -> None:
        self.bounds = tuple(self.bounds)
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"counts must have {len(self.bounds) + 1} buckets, "
                f"got {len(self.counts)}")

    def observe(self, value: float) -> None:
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """An upper-bound estimate of the ``q``-quantile from the bucket
        counts (the bound of the bucket the quantile falls in;
        ``math.inf`` when it lands in the overflow bucket)."""
        if self.count <= 0:
            return 0.0
        target = max(1.0, q * self.count)
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            cumulative += self.counts[i]
            if cumulative >= target:
                return float(bound)
        return math.inf

    def merge(self, other: "Histogram") -> None:
        """Add ``other`` bucket-wise; raises :class:`BucketMismatchError`
        (with both layouts named) when the bounds differ."""
        if tuple(other.bounds) != self.bounds:
            raise BucketMismatchError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {tuple(other.bounds)}")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum

    def to_dict(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": self.sum}

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        return cls(bounds=tuple(payload["bounds"]),
                   counts=list(payload["counts"]),
                   count=int(payload["count"]),
                   sum=float(payload["sum"]))


class MetricsRegistry:
    """Counters + gauges + histograms + per-path span times.

    Thread-safe: one lock makes each mutator's read-modify-write atomic
    and gives :meth:`snapshot` a consistent view while other threads
    record.  Worker processes each own their registry.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: span path → [count, seconds, errors]
        self.spans: Dict[str, List[float]] = {}

    # -- mutators --------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float,
                bounds: Optional[Sequence[float]] = None) -> None:
        if not self.enabled:
            return
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = Histogram(bounds=tuple(bounds) if bounds is not None
                                 else DEFAULT_BUCKETS)
                self.histograms[name] = hist
            hist.observe(value)

    def add_span(self, path: str, seconds: float, errors: int = 0,
                 count: int = 1) -> None:
        """Fold finished span time into ``path``'s record (the spans
        themselves are timed by :func:`repro.telemetry.tracing.span`)."""
        with self._lock:
            self._fold_span(path, seconds, errors, count)

    def _fold_span(self, path: str, seconds: float, errors: int,
                   count: int) -> None:
        record = self.spans.get(path)
        if record is None:
            record = [0, 0.0, 0]
            self.spans[path] = record
        record[0] += count
        record[1] += seconds
        record[2] += errors

    def clear(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.spans.clear()

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry as JSON-ready primitives (deep copies)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {name: h.to_dict()
                               for name, h in self.histograms.items()},
                "spans": {path: {"count": int(rec[0]),
                                 "seconds": float(rec[1]),
                                 "errors": int(rec[2])}
                          for path, rec in self.spans.items()},
            }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a snapshot (e.g. from a worker) into this registry."""
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            self.gauges.update(snap.get("gauges", {}))
            for name, payload in snap.get("histograms", {}).items():
                incoming = Histogram.from_dict(payload)
                existing = self.histograms.get(name)
                if existing is None:
                    self.histograms[name] = incoming
                else:
                    try:
                        existing.merge(incoming)
                    except BucketMismatchError as exc:
                        raise BucketMismatchError(
                            f"histogram {name!r}: {exc}") from None
            for path, rec in snap.get("spans", {}).items():
                self._fold_span(path, rec.get("seconds", 0.0),
                                rec.get("errors", 0), rec.get("count", 0))

    def span_seconds(self, path: str) -> float:
        rec = self.spans.get(path)
        return float(rec[1]) if rec is not None else 0.0


def empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge N snapshots into one (parent ⊕ workers semantics)."""
    acc = MetricsRegistry(enabled=True)
    for snap in snapshots:
        acc.merge_snapshot(snap)
    return acc.snapshot()


def gc_collections() -> List[int]:
    """This process's cyclic-GC collections so far, per generation."""
    return [generation["collections"] for generation in gc.get_stats()]


def count_gc_collections(registry: "MetricsRegistry",
                         before: Sequence[int]) -> None:
    """Count the collections run since ``before`` (a
    :func:`gc_collections` reading) as ``gc/collections/gen<N>``."""
    for generation, (now, then) in enumerate(zip(gc_collections(),
                                                 before)):
        if now != then:
            registry.count(f"gc/collections/gen{generation}", now - then)


def snapshot_delta(after: dict, before: dict) -> dict:
    """``after - before``, dropping entries that did not change.

    Counters, span counts/seconds, and histogram buckets subtract;
    gauges keep their ``after`` value (a gauge is a level, not a rate).
    """
    delta = empty_snapshot()
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        diff = value - before_counters.get(name, 0)
        if diff:
            delta["counters"][name] = diff
    before_gauges = before.get("gauges", {})
    for name, value in after.get("gauges", {}).items():
        if name not in before_gauges or before_gauges[name] != value:
            delta["gauges"][name] = value
    before_hists = before.get("histograms", {})
    for name, payload in after.get("histograms", {}).items():
        base = before_hists.get(name)
        if base is None:
            if payload["count"]:
                delta["histograms"][name] = dict(payload)
            continue
        if tuple(base["bounds"]) != tuple(payload["bounds"]):
            raise BucketMismatchError(f"histogram {name!r} changed "
                                      "bounds between snapshots")
        counts = [a - b for a, b in zip(payload["counts"], base["counts"])]
        count = payload["count"] - base["count"]
        if count:
            delta["histograms"][name] = {
                "bounds": list(payload["bounds"]), "counts": counts,
                "count": count, "sum": payload["sum"] - base["sum"]}
    before_spans = before.get("spans", {})
    for path, rec in after.get("spans", {}).items():
        base = before_spans.get(path, {})
        count = rec["count"] - base.get("count", 0)
        seconds = rec["seconds"] - base.get("seconds", 0.0)
        errors = rec["errors"] - base.get("errors", 0)
        if count or errors or seconds:
            delta["spans"][path] = {"count": count, "seconds": seconds,
                                    "errors": errors}
    return delta


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

#: Registry names may carry inline Prometheus-style labels:
#: ``service/request_seconds{tenant="alice"}``.
_LABELED_RE = re.compile(r"^(?P<base>[^{]+)\{(?P<labels>.*)\}$")
_NAME_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _split_labels(name: str) -> Tuple[str, str]:
    match = _LABELED_RE.match(name)
    if match:
        return match.group("base"), match.group("labels")
    return name, ""


def _prom_name(path: str, prefix: str) -> str:
    return f"{prefix}_{_NAME_SANITIZE_RE.sub('_', path)}"


def _prom_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _join_labels(*parts: str) -> str:
    labels = ",".join(part for part in parts if part)
    return f"{{{labels}}}" if labels else ""


def to_prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a registry snapshot in Prometheus text exposition format
    (version 0.0.4).

    Counters become ``<prefix>_<name>_total``, gauges keep their name,
    histograms expand to cumulative ``_bucket{le=...}`` series plus
    ``_sum``/``_count``, and wall-time spans become the three labeled
    counter families ``<prefix>_span_seconds_total`` /
    ``_span_calls_total`` / ``_span_errors_total``.  Registry names may
    embed labels inline (``...{tenant="alice"}``); the label string is
    carried through verbatim, which is how the service's per-tenant SLO
    series are produced.  ``/`` and other illegal characters sanitize
    to ``_``.
    """
    families: Dict[str, Dict[str, Any]] = {}

    def family(name: str, mtype: str, help_text: str) -> List[str]:
        entry = families.setdefault(
            name, {"type": mtype, "help": help_text, "samples": []})
        return entry["samples"]

    for raw, value in sorted(snapshot.get("counters", {}).items()):
        base, labels = _split_labels(raw)
        name = _prom_name(base, prefix) + "_total"
        family(name, "counter", f"repro counter {base}").append(
            f"{name}{_join_labels(labels)} {_prom_value(value)}")
    for raw, value in sorted(snapshot.get("gauges", {}).items()):
        base, labels = _split_labels(raw)
        name = _prom_name(base, prefix)
        family(name, "gauge", f"repro gauge {base}").append(
            f"{name}{_join_labels(labels)} {_prom_value(value)}")
    for raw, payload in sorted(snapshot.get("histograms", {}).items()):
        base, labels = _split_labels(raw)
        name = _prom_name(base, prefix)
        samples = family(name, "histogram", f"repro histogram {base}")
        cumulative = 0
        bounds = list(payload["bounds"]) + [math.inf]
        for bound, count in zip(bounds, payload["counts"]):
            cumulative += count
            le = f'le="{_prom_value(bound)}"'
            samples.append(f"{name}_bucket{_join_labels(labels, le)} "
                           f"{cumulative}")
        samples.append(f"{name}_sum{_join_labels(labels)} "
                       f"{_prom_value(payload['sum'])}")
        samples.append(f"{name}_count{_join_labels(labels)} "
                       f"{payload['count']}")
    span_families = (("seconds", f"{prefix}_span_seconds_total",
                      "cumulative wall seconds per span path"),
                     ("count", f"{prefix}_span_calls_total",
                      "span entries per span path"),
                     ("errors", f"{prefix}_span_errors_total",
                      "spans closed by an exception, per span path"))
    for path, record in sorted(snapshot.get("spans", {}).items()):
        label = f'span="{path}"'
        for key, name, help_text in span_families:
            family(name, "counter", help_text).append(
                f"{name}{_join_labels(label)} "
                f"{_prom_value(record.get(key, 0))}")
    lines: List[str] = []
    for name, entry in families.items():
        lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        lines.extend(entry["samples"])
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Process-local default registry
# ----------------------------------------------------------------------

_REGISTRY: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-local default registry (created, enabled, on first
    use)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-local registry (returns the previous one) — used
    by benchmarks and tests to isolate measurements."""
    global _REGISTRY
    previous = get_registry()
    _REGISTRY = registry
    return previous


def _reset_lock_after_fork() -> None:
    # A fork while another thread held the lock would leave the child's
    # copy locked forever.
    if _REGISTRY is not None:
        _REGISTRY._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_after_fork)
