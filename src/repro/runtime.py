"""The runtime config: every ``REPRO_*`` switch, parsed in one place.

:class:`RuntimeConfig` has one field per switch (the table is in
``docs/ENGINE.md``, "Environment variables"); nothing else in the
package reads them from ``os.environ``.  :func:`current` parses the
environment on first use, never at import, and keeps the result;
:func:`load` re-parses (every CLI calls it at start-up);
:func:`override` changes fields for a ``with`` block, process-wide, the
latest override winning.  A malformed value raises ``ValueError`` naming
the variable and the accepted spellings.

The engine snapshots :func:`current` when a run starts, records it in
the run's ``summary.json`` and ships it with every pool batch, whose
worker applies it with :func:`override`.  It is never part
of a job's cache key.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.testing.faults import FaultPlan

__all__ = ["RuntimeConfig", "current", "load", "override"]

_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


# Parsers, one per kind of value; the caller skips unset and blank values.

def _bool(name: str, raw: str) -> bool:
    if raw.lower() in _TRUE + _FALSE:
        return raw.lower() in _TRUE
    raise ValueError(f"{name}={raw!r}: expected one of "
                     f"{', '.join(_TRUE + _FALSE)}")


def _count(minimum: int):
    def parse(name: str, raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise ValueError(f"{name}={raw!r}: expected an integer >= "
                             f"{minimum}")
        return value
    return parse


def _seconds(name: str, raw: str) -> Optional[float]:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name}={raw!r}: expected a number of seconds "
                         f"(0 for unbounded)")
    return value or None


def _fault_plan(name: str, raw: str) -> FaultPlan:
    text = raw
    if raw.startswith("@"):
        try:
            text = Path(raw[1:]).expanduser().read_text()
        except OSError as exc:
            raise ValueError(f"{name}={raw!r}: cannot read the plan file "
                             f"({exc.strerror or exc})") from None
    try:
        return FaultPlan.from_json(text)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{name}: unparsable fault plan ({exc}); expected "
                         f"inline JSON or @path/to/plan.json") from None


def _path(name: str, raw: str) -> Path:
    return Path(raw).expanduser()


#: Field name → (environment variable, parser).
_SWITCHES = {
    "cache_dir": ("REPRO_CACHE_DIR", _path),
    "jobs": ("REPRO_JOBS", _count(1)),
    "max_retries": ("REPRO_MAX_RETRIES", _count(0)),
    "job_timeout": ("REPRO_JOB_TIMEOUT", _seconds),
    "fast_replay": ("REPRO_FAST_REPLAY", _bool),
    "fast_sim": ("REPRO_FAST_SIM", _bool),
    "fault_plan": ("REPRO_FAULT_PLAN", _fault_plan),
    "test_fast": ("REPRO_TEST_FAST", _bool),
}


@dataclass(frozen=True)
class RuntimeConfig:
    """Every runtime switch, typed; the defaults are the unset values."""

    #: Default store root (None: :attr:`store_root`'s per-user cache).
    cache_dir: Optional[Path] = None
    #: Default engine worker count.
    jobs: int = 1
    #: Default retries per job after its first attempt.
    max_retries: int = 1
    #: Default per-attempt wall-clock budget, seconds (None: unbounded).
    job_timeout: Optional[float] = None
    #: BTB replays may take a kernel (:mod:`repro.btb.kernels`).
    fast_replay: bool = True
    #: ``simulate`` may take its fast path (:mod:`repro.frontend.kernels`).
    fast_sim: bool = True
    #: The fault-injection plan (:mod:`repro.testing.faults`), or None.
    fault_plan: Optional[FaultPlan] = None
    #: Test and CI runs: the engine's default retry backoff is 0.
    test_fast: bool = False

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> "RuntimeConfig":
        """Parse ``environ`` (default ``os.environ``); variables that
        name no switch are ignored."""
        environ = os.environ if environ is None else environ
        values = {}
        for name, (var, parse) in _SWITCHES.items():
            raw = (environ.get(var) or "").strip()
            if raw:
                values[name] = parse(var, raw)
        return cls(**values)

    @property
    def store_root(self) -> Path:
        """The artifact store a CLI uses when given no ``--cache-dir``."""
        if self.cache_dir is not None:
            return self.cache_dir
        return Path.home() / ".cache" / "repro-thermometer"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready primitives (``summary.json``)."""
        out = dict(vars(self))
        if self.cache_dir is not None:
            out["cache_dir"] = str(self.cache_dir)
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.to_dict()
        return out


_lock = threading.Lock()
#: The parsed environment (None until first use).
_base: Optional[RuntimeConfig] = None
#: The field changes of each active :func:`override`, oldest first.
_layers: List[Dict[str, Any]] = []
#: ``_base`` with every layer applied (None: recompute on next read).
_effective: Optional[RuntimeConfig] = None


def _resolve() -> RuntimeConfig:
    """Recompute the effective config (the caller holds ``_lock``)."""
    global _base, _effective
    if _base is None:
        _base = RuntimeConfig.from_env()
    config = _base
    for changes in _layers:
        config = replace(config, **changes)
    _effective = config
    return config


def current() -> RuntimeConfig:
    """The config in effect: the parsed environment with every active
    :func:`override` applied."""
    config = _effective
    if config is None:
        with _lock:
            config = _resolve()
    return config


def load() -> RuntimeConfig:
    """Re-parse ``os.environ``; active overrides still apply on top."""
    global _base
    parsed = RuntimeConfig.from_env()
    with _lock:
        _base = parsed
        return _resolve()


@contextmanager
def override(config: Optional[RuntimeConfig] = None, /,
             **changes: Any) -> Iterator[RuntimeConfig]:
    """Run a block under changed switches (``override(fast_sim=False)``),
    or under a whole ``config`` (how a worker adopts the one shipped
    with its batch); yields the effective config."""
    if config is not None:
        changes = {**vars(config), **changes}
    replace(current(), **changes)  # TypeError on an unknown field
    with _lock:
        _layers.append(changes)
        effective = _resolve()
    try:
        yield effective
    finally:
        with _lock:
            # By identity: threads may leave their blocks out of order.
            _layers[:] = [layer for layer in _layers
                          if layer is not changes]
            _resolve()


def _reset_lock_after_fork() -> None:
    # A fork while another thread held the lock would leave the child's
    # copy locked forever.
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_after_fork)
