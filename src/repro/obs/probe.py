"""The probe seam: the one thing a component says about a protocol step.

Worker, network, Clearinghouse, JobQ and JobManager each hold one
``self._probe`` — ``None`` when nobody observes, so an unobserved run
pays exactly one guard per site — and report every step as
``probe.emit(t, kind, source, **detail)``, the shape ``TraceLog.emit``
always had.  Everything that watches a run is a per-kind *subscriber*:
the :class:`~repro.util.trace.TraceLog`, the metrics consumer
(:class:`~repro.obs.metrics.ProbeMetrics`, which owns every instrument
handle), the :class:`~repro.obs.health.HealthMonitor`, the
:class:`~repro.obs.prof.SpanProfiler`, and the checker's drop
accounting.  A new observer subscribes to kinds; no call site changes.

The catalogue below is the contract (``docs/observability.md`` carries
the same table; ``tests/obs/test_probe.py`` holds the three in step).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ReproError

#: A subscriber: ``fn(t, kind, source, detail)`` — *detail* is the
#: emit's keyword dict, shared by every subscriber of the event.
Handler = Callable[[float, str, str, Dict[str, Any]], None]

#: Kinds the TraceLog records -> the observer-only detail fields it
#: strips first (everything else is the log's exact, pinned detail).
#: ``worker.exit.*`` is the one formatted family (``worker.exit.<reason>``).
TRACED: Dict[str, Tuple[str, ...]] = {
    **dict.fromkeys((
        "closure.new", "closure.exec", "closure.suspend", "closure.lost",
        "closure.drop", "join.dup", "arg.retry",
        "steal.request", "steal.grant", "steal.success", "steal.reclaim",
        "migrate.in", "migrate.out", "migrate.dup", "migrate.reoffer", "redo",
        "worker.start", "worker.rejoin", "worker.exit.*",
        "net.loopback", "ch.register", "ch.unregister", "ch.result",
        "ch.peer_update", "jm.start_worker", "jm.reclaim", "jm.preempt",
    ), ()),
    "join.fill": ("suspended_at",),
    "net.send": ("size",),
    "net.recv": ("latency_s",),
    "net.partition": ("msg",),
    "net.loss": ("msg",),
    "net.drop.down": ("msg",),
    "net.drop.unbound": ("msg",),
    "ch.worker_died": ("last_seen",),
    "jobq.submit": ("depth",),
    "jobq.grant": ("wait_s",),
    "jobq.done": ("depth",),
}

#: Kinds only observers see; the log never records them.  The ``*.bind``
#: kinds are each component's constructor announcing itself.
OBSERVER_ONLY: Tuple[str, ...] = (
    "worker.bind", "worker.begin", "worker.heartbeat",
    "phase.begin", "phase.end", "task.done", "task.charged",
    "deque.depth", "arg.send",
    "steal.timeout", "steal.refused", "steal.batch", "steal.reply",
    "steal.adopt", "migrate.acked", "migrate.retry",
    "net.bind", "net.wire", "net.loopback.drop",
    "ch.bind", "ch.heartbeat", "ch.false_death", "ch.scan",
    "jobq.bind",
)

#: The observer-only kinds emitted once or more per executed task.
PER_TASK: Tuple[str, ...] = ("deque.depth", "arg.send", "task.done", "task.charged")


class Probe:
    """Per-kind dispatch from components to a run's observers."""

    def __init__(self) -> None:
        self._subs: Dict[str, Tuple[Handler, ...]] = {}
        #: True once a component has taken this probe (see :meth:`bind`).
        self.bound = False
        #: True once a :data:`PER_TASK` kind has a subscriber.  A probe
        #: without one (every ``repro check`` seed: log + drop accounting)
        #: stays False, and those four sites skip building events nobody
        #: reads — several per task, against ~3 traced ones.
        self.per_task = False

    def subscribe(self, handlers: Mapping[str, Handler]) -> None:
        """Register *handlers* (kind -> fn); dispatch order is
        subscription order."""
        if self.bound:
            raise ReproError(
                "probe already bound by a component: this subscriber would "
                "see a run it missed the start of — construct the monitor "
                "before the run")
        for kind, fn in handlers.items():
            if kind not in TRACED and kind not in OBSERVER_ONLY:
                raise ReproError(f"unknown probe kind {kind!r}")
            self._subs[kind] = self._subs.get(kind, ()) + (fn,)
            self.per_task = self.per_task or kind in PER_TASK

    def emit(self, t: float, kind: str, source: str, **detail: Any) -> None:
        subs = self._subs.get(kind)
        if subs is None:
            # First sight of a kind nobody named exactly: resolve the
            # worker.exit.<reason> family (or nothing) once and cache it.
            subs = self._subs[kind] = self._subs.get(
                kind.rpartition(".")[0] + ".*", ())
        for fn in subs:
            fn(t, kind, source, detail)

    def bind(self, t: float, kind: str, source: str, **detail: Any) -> None:
        """A component's constructor taking this probe: closes the
        subscription window, then announces the component."""
        self.bound = True
        self.emit(t, kind, source, **detail)

    @classmethod
    def for_run(cls, trace: Optional[Any] = None, metrics: Optional[Any] = None,
                profiler: Optional[Any] = None) -> Optional["Probe"]:
        """The probe for one run's observers, or None without any.  The
        log subscribes first: every other observer sees an event after
        its record exists."""
        if trace is None and metrics is None and profiler is None:
            return None
        probe = cls()
        if trace is not None:
            probe.subscribe({
                kind: trace.record if not extras else _stripping(trace, extras)
                for kind, extras in TRACED.items()})
        if metrics is not None:
            metrics.subscribe(probe)
        if profiler is not None:
            profiler.subscribe(probe)
        return probe


def _stripping(trace: Any, extras: Tuple[str, ...]) -> Handler:
    def record(t: float, kind: str, source: str, detail: Dict[str, Any]) -> None:
        kept = detail.copy()  # later subscribers still want the extras
        for key in extras:
            kept.pop(key, None)
        trace.record(t, kind, source, kept)
    return record
