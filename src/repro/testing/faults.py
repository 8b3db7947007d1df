"""Deterministic fault injection for the experiment engine.

A :class:`FaultPlan` is a list of :class:`Fault` records, each saying
*which job* (by its index in the sweep's job list), *on which attempt*,
and *how* a worker should misbehave:

* ``raise``   — the worker raises :class:`InjectedFault` before computing.
* ``hang``    — the worker sleeps ``seconds`` (past any configured job
  timeout, so the engine's deadline guard fires).
* ``corrupt`` — the job computes normally, then its stored artifact's
  payload bytes are flipped in place, modelling bit rot / torn writes
  that the store's integrity digest must catch later.
* ``die``     — the worker process SIGKILLs itself mid-batch, so the
  parent sees a broken process pool (downgraded to ``raise`` when the
  job runs in-process rather than in a worker).

The active plan is the runtime config's ``fault_plan``
(:mod:`repro.runtime`): set ``REPRO_FAULT_PLAN`` to inline JSON or
``@/path/to/plan.json``, or run a block under
``runtime.override(fault_plan=plan)``.  The engine ships the config with
every worker batch, so plans reach *real* ``ProcessPoolExecutor``
workers, not a mock.
:meth:`FaultPlan.random` builds a seeded, reproducible plan for chaos
runs: the seed is the only thing a CI log needs to record to replay the
exact failure schedule.

The injection point is :func:`repro.harness.engine.run_job`, which looks
the plan up per job; with no plan (the normal case) that is one config
read and nothing else.
"""

from __future__ import annotations

import json
import logging
import os
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

log = logging.getLogger(__name__)

__all__ = ["FAULT_KINDS", "Fault", "FaultPlan", "InjectedFault",
           "corrupt_file", "inject"]

FAULT_KINDS = ("raise", "hang", "corrupt", "die")


class InjectedFault(RuntimeError):
    """The failure a ``raise`` fault produces (also ``die`` when the job
    is not running in a sacrificable worker process)."""


@dataclass(frozen=True)
class Fault:
    """One scheduled misbehaviour: ``kind`` at job ``index``, firing only
    on the listed ``attempts`` (so retries of the same job succeed unless
    the plan says otherwise)."""

    kind: str
    index: int
    attempts: Tuple[int, ...] = (0,)
    #: Sleep duration for ``hang`` faults.
    seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}, "
                             f"got {self.kind!r}")
        object.__setattr__(self, "attempts", tuple(self.attempts))

    def fires(self, index: int, attempt: int) -> bool:
        return self.index == index and attempt in self.attempts

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "index": self.index,
                "attempts": list(self.attempts), "seconds": self.seconds}

    @classmethod
    def from_dict(cls, payload: dict) -> "Fault":
        return cls(kind=payload["kind"], index=int(payload["index"]),
                   attempts=tuple(payload.get("attempts", (0,))),
                   seconds=float(payload.get("seconds", 5.0)))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one sweep."""

    faults: Tuple[Fault, ...] = ()
    #: Provenance only: the seed :meth:`random` was built from, so logs
    #: and manifests can name the plan.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def fault_for(self, index: int, attempt: int = 0) -> Optional[Fault]:
        """The first fault scheduled for (job ``index``, ``attempt``), or
        None."""
        for fault in self.faults:
            if fault.fires(index, attempt):
                return fault
        return None

    # -- (de)serialisation ----------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed,
                "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(faults=tuple(Fault.from_dict(f)
                                for f in payload.get("faults", ())),
                   seed=payload.get("seed"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- generation -----------------------------------------------------
    @classmethod
    def random(cls, seed: int, n_jobs: int, rate: float = 0.3,
               kinds: Sequence[str] = FAULT_KINDS,
               hang_seconds: float = 5.0) -> "FaultPlan":
        """A seeded chaos plan: each job independently draws a fault of a
        random ``kind`` with probability ``rate`` (first attempt only, so
        a fault-tolerant engine always converges)."""
        rng = random.Random(seed)
        faults = []
        for index in range(n_jobs):
            if rng.random() < rate:
                faults.append(Fault(kind=rng.choice(tuple(kinds)),
                                    index=index, attempts=(0,),
                                    seconds=hang_seconds))
        return cls(faults=tuple(faults), seed=seed)


# ----------------------------------------------------------------------
# Application
# ----------------------------------------------------------------------

def inject(fault: Fault, in_worker: bool = False) -> None:
    """Apply a pre-compute fault (``raise``/``hang``/``die``).

    ``corrupt`` is not applied here — the caller mangles the stored
    artifact *after* computing it (see
    :func:`repro.harness.engine.run_job`).  ``hang`` returns after its
    sleep unless a deadline signal interrupts it; ``die`` SIGKILLs the
    process only when ``in_worker`` is true, otherwise it degrades to a
    ``raise`` so in-process runs are not killed.
    """
    if fault.kind == "raise":
        raise InjectedFault(f"injected failure at job {fault.index}")
    if fault.kind == "hang":
        log.warning("injected hang at job %d: sleeping %.1fs",
                    fault.index, fault.seconds)
        time.sleep(fault.seconds)
        return
    if fault.kind == "die":
        if in_worker:
            log.warning("injected death at job %d: SIGKILL pid %d",
                        fault.index, os.getpid())
            os.kill(os.getpid(), signal.SIGKILL)
        raise InjectedFault(f"injected death at job {fault.index} "
                            "(downgraded to raise: not in a worker)")
    raise ValueError(f"inject() cannot apply fault kind {fault.kind!r}")


def corrupt_file(path: Union[str, Path]) -> bool:
    """Flip the last byte of ``path`` in place (bit-rot model); returns
    False when there is nothing to corrupt."""
    target = Path(path)
    try:
        blob = bytearray(target.read_bytes())
    except OSError:
        return False
    if not blob:
        return False
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    return True
