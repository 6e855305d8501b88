"""Synchronised containers for simulation processes.

* :class:`Store` — a bounded FIFO buffer with blocking put/get.
* :class:`Channel` — an unbounded Store with message-passing aliases,
  the building block of the simulated UDP sockets.
* :class:`Signal` — a broadcast flag many processes can wait on (e.g.
  "this job has terminated").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


class Store:
    """A FIFO buffer of Python objects with blocking put/get events.

    ``put(item)`` returns an event that succeeds once the item is in the
    buffer (immediately unless the store is full); ``get()`` returns an
    event that succeeds with the oldest item once one is available.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert *item*; the returned event succeeds once inserted."""
        ev = Event(self.sim)
        self._putters.append((ev, item))
        self._service()
        return ev

    def get(self) -> Event:
        """Remove the oldest item; the returned event succeeds with it."""
        ev = Event(self.sim)
        self._getters.append(ev)
        self._service()
        return ev

    def cancel_get(self, event: Event) -> bool:
        """Withdraw a pending :meth:`get` whose event has not yet fired.

        Returns True if the event was still queued.  Needed by protocol
        code that abandons a receive after a timeout — otherwise the
        stale getter would steal the next item.
        """
        try:
            self._getters.remove(event)
            return True
        except ValueError:
            return False

    def clear(self) -> None:
        """Drop every buffered item and parked getter (those never fire)."""
        self.items.clear()
        self._getters.clear()

    def _service(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                ev, item = self._putters.popleft()
                self.items.append(item)
                ev.succeed(None)
                progressed = True
            while self._getters and self.items:
                ev = self._getters.popleft()
                ev.succeed(self.items.popleft())
                progressed = True


class Channel(Store):
    """An unbounded Store with message-passing vocabulary.

    ``send`` never blocks (UDP-like: the network, not the sender, pays
    the cost of queued messages) and returns nothing to wait on.
    """

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, capacity=float("inf"))

    def send(self, message: Any) -> None:
        """Hand *message* to the longest-parked receiver, else buffer it:
        no put-completion event (nobody could await it), except under a
        ``tiebreak_rng``, whose fuzz schedules include that event's key."""
        if self.sim.tiebreak_rng is not None:
            self.put(message)
        elif self._getters:  # unbounded, so the buffer is empty
            self._getters.popleft().succeed(message)
        else:
            self.items.append(message)

    def recv(self) -> Event:
        """Event that succeeds with the next message: :meth:`get` minus the
        service loop (unbounded, so messages and parked receivers never
        coexist, and ``put`` buffers at once)."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._getters.append(ev)
        return ev


class Signal:
    """A broadcast flag: many processes wait, one ``set()`` wakes them all.

    Once set, further waits succeed immediately (level-triggered).  The
    Clearinghouse uses a Signal to broadcast job termination.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: True once set — the attribute :meth:`Simulator.run_until`
        #: reads, so a Signal can be what a run stops on.
        self.fired = False
        self._value: Any = None
        self._waiters: List[Event] = []

    @property
    def is_set(self) -> bool:
        return self.fired

    @property
    def value(self) -> Any:
        """The value passed to :meth:`set` (None before that)."""
        return self._value

    def wait(self) -> Event:
        """Event that succeeds (with the signal's value) once set."""
        ev = Event(self.sim)
        if self.fired:
            ev.succeed(self._value)
        else:
            self._waiters.append(ev)
        return ev

    def set(self, value: Any = None) -> None:
        """Set the flag and wake all current waiters."""
        if self.fired:
            return
        self.fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
