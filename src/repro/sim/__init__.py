"""A small, dependency-free discrete-event simulation kernel.

This package is the "hardware" substrate of the Phish reproduction: it
plays the role that real SparcStations, Ethernet, and wall clocks played
in the paper.  It is modelled on the classic process-interaction style
(generator coroutines yielding events), and is deterministic: given the
same seed and the same program, every run produces the same event order.

Public surface:

* :class:`Simulator` — the event loop and clock.
* :class:`Flag` — a stop marker for :meth:`Simulator.run_until`.
* :class:`Event`, :class:`Timeout`, :class:`Process` — waitables.
* :class:`Interrupt` — exception delivered by :meth:`Process.interrupt`.
* :class:`Within`, :data:`EXPIRED` — the timed wait.
* :class:`AnyOf`, :class:`AllOf` — condition events.
* :class:`Store`, :class:`Channel`, :class:`Signal` — synchronised
  containers.
"""

from repro.sim.core import (
    EXPIRED,
    NORMAL,
    URGENT,
    Event,
    Flag,
    Interrupt,
    Process,
    Simulator,
    Timeout,
    Within,
)
from repro.sim.events import AllOf, AnyOf
from repro.sim.resources import Channel, Signal, Store

__all__ = [
    "Simulator",
    "Event",
    "Flag",
    "Timeout",
    "Process",
    "Interrupt",
    "Within", "EXPIRED",
    "AnyOf",
    "AllOf",
    "Store",
    "Channel",
    "Signal",
    "URGENT",
    "NORMAL",
]
