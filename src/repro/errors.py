"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine bugs (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class NetworkError(ReproError):
    """Misuse of the simulated network substrate."""


class AddressError(NetworkError):
    """A datagram was addressed to an unknown host or unbound port."""


class RpcError(NetworkError):
    """An RPC call failed (no server, handler raised, or timed out)."""


class SchedulerError(ReproError):
    """Misuse of the micro- or macro-level scheduler."""


class ClosureError(SchedulerError):
    """Invalid closure/continuation operation (double-send, bad slot...)."""


class JobError(ReproError):
    """Invalid job lifecycle operation at the macro level."""


class RuntimeShutdown(ReproError):
    """The real-thread runtime was used after :meth:`shutdown`."""


class InvariantViolation(ReproError):
    """A checked run broke a scheduler invariant (see :mod:`repro.check`)."""
