"""Shared helpers for hand-written traces in unit tests."""

from __future__ import annotations

from repro.harness.engine.store import fold_cache
from repro.telemetry.metrics import get_registry
from repro.trace.record import BranchKind, BranchRecord, BranchTrace

__all__ = ["branch", "store_cache", "trace_of_pcs"]


def store_cache(store) -> dict:
    """The ``cache`` block the process registry holds for ``store``'s
    label (every store of that label in this process counts into it)."""
    return fold_cache(get_registry().counters, store.tenant)


def branch(pc, target=None, kind=BranchKind.UNCOND_DIRECT, taken=True,
           ilen=4):
    """Concise BranchRecord builder for hand-written traces."""
    if target is None:
        target = pc + 64
    return BranchRecord(pc=pc, target=target, kind=kind, taken=taken,
                        ilen=ilen)


def trace_of_pcs(pcs, name="hand"):
    """A trace of always-taken unconditional branches at the given pcs."""
    return BranchTrace.from_records([branch(pc) for pc in pcs], name=name)
