"""Condition events: wait for any/all of a set of events.

Used by harnesses joining many workers.  The split-phase "reply or
retransmission timer" wait is :class:`repro.sim.core.Within`, not AnyOf.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


class _Condition(Event):
    """Common machinery for AnyOf/AllOf."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events: List[Event] = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._pending = len(self._events)
        if not self._events:
            self.succeed(self._collect())
            return
        for ev in self._events:
            ev.subscribe(self._on_child)

    def _collect(self) -> Dict[Event, Any]:
        """Values of all *processed* successful children, in original order.

        Processed, not merely triggered: a Timeout carries its value from
        creation, so "triggered" would wrongly include futures that have
        not fired yet.
        """
        return {ev: ev._value for ev in self._events if ev.processed and ev.ok}

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            # Condition already settled (e.g. AnyOf); absorb late children,
            # including late failures, which the condition creator opted
            # not to care about.
            child.defused = True
            return
        if child.ok is False:
            child.defused = True
            self.fail(child._value)
            return
        self._pending -= 1
        if self._check():
            self.succeed(self._collect())

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Succeeds as soon as any child succeeds.

    The value is a dict of ``{event: value}`` for every child that had
    succeeded by the time the condition was processed.  Fails if any
    child fails first.
    """

    __slots__ = ()

    def _check(self) -> bool:
        return self._pending < len(self._events)


class AllOf(_Condition):
    """Succeeds when every child has succeeded; fails on the first failure."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._pending == 0
