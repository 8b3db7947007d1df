"""Structured BTB event observation.

The BTB models emit four structured events — hit, fill, evict, bypass —
through a uniform :class:`BTBObserver` protocol.  This replaces the old
ad-hoc ``BTB.eviction_listener`` callable (which exposed only evictions,
with a positional signature every consumer had to memorize) and is the
observability seam of :class:`~repro.btb.btb.BTB`.

Observers attach with ``btb.add_observer(observer)``; every event carries
the emitting BTB (so one observer can watch several BTBs), the set and
way involved, the branch pc, and the position of
the triggering access in the BTB access stream.  All hooks default to
no-ops — subclass and override only the events you need.
"""

from __future__ import annotations

from typing import List, NamedTuple

__all__ = ["BTBObserver", "BTBEvent", "EventRecorder"]


class BTBObserver:
    """Base event sink for BTB activity.  All hooks are no-ops."""

    def on_hit(self, btb, set_idx: int, way: int, pc: int, target: int,
               index: int) -> None:
        """``pc`` hit in ``(set_idx, way)``; ``target`` is the resolved
        target being (re)stored by this access."""

    def on_fill(self, btb, set_idx: int, way: int, pc: int, target: int,
                index: int) -> None:
        """``pc`` was installed into ``(set_idx, way)`` (demand miss or
        prefetch fill)."""

    def on_evict(self, btb, set_idx: int, way: int, victim_pc: int,
                 incoming_pc: int, index: int) -> None:
        """``victim_pc`` was evicted from ``(set_idx, way)`` to make room
        for ``incoming_pc``."""

    def on_bypass(self, btb, set_idx: int, pc: int, index: int) -> None:
        """``pc`` missed and the policy chose not to insert it."""


class BTBEvent(NamedTuple):
    """One recorded event (see :class:`EventRecorder`)."""

    kind: str          #: ``"hit" | "fill" | "evict" | "bypass"``
    set_idx: int
    way: int           #: ``-1`` for bypass events (no way involved)
    pc: int            #: victim pc for evictions
    other: int         #: stored target for hit/fill, incoming pc for evict
    index: int


class EventRecorder(BTBObserver):
    """An observer that appends every event to :attr:`events` — the
    building block for traces, metrics, and tests."""

    def __init__(self) -> None:
        self.events: List[BTBEvent] = []

    def on_hit(self, btb, set_idx, way, pc, target, index) -> None:
        self.events.append(BTBEvent("hit", set_idx, way, pc, target, index))

    def on_fill(self, btb, set_idx, way, pc, target, index) -> None:
        self.events.append(BTBEvent("fill", set_idx, way, pc, target, index))

    def on_evict(self, btb, set_idx, way, victim_pc, incoming_pc,
                 index) -> None:
        self.events.append(BTBEvent("evict", set_idx, way, victim_pc,
                                    incoming_pc, index))

    def on_bypass(self, btb, set_idx, pc, index) -> None:
        self.events.append(BTBEvent("bypass", set_idx, -1, pc, 0, index))

    def of_kind(self, kind: str) -> List[BTBEvent]:
        return [e for e in self.events if e.kind == kind]
