"""The probe seam: the one thing a component says about a protocol step.

Worker, network, Clearinghouse, JobQ and JobManager each hold one
``self._probe`` — ``None`` when nobody observes, so an unobserved run
pays exactly one guard per site.  A :class:`Probe` *is* the compiled
dispatch table, kind -> the one callable that reaches every observer
of that kind, and a site calls it directly::

    if self._probe is not None and (on := self._probe.get("closure.new")):
        on(self.sim.now, "closure.new", self.name, {"cid": cid})

A kind nobody observes is absent, so its event is never built.
Everything that watches a run is a per-kind *subscriber* — the metrics
consumer (:class:`~repro.obs.metrics.ProbeMetrics`, which owns every
instrument handle), the :class:`~repro.obs.health.HealthMonitor`, the
:class:`~repro.obs.prof.SpanProfiler`, the checker's drop accounting —
behind the run's :class:`~repro.util.trace.TraceLog`, whose recorder
hands each event on itself.  The callable is re-resolved on every
``subscribe`` (the window closes at the first ``bind``), so from the
first event on a lone observer is called by the site, with no dispatch
frame in between.  A new observer subscribes to kinds; no call site
changes.

The catalogue below is the contract (``docs/observability.md`` carries
the same table; ``tests/obs/test_probe.py`` holds the three in step).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ReproError

#: A subscriber: ``fn(t, kind, source, detail)`` — *detail* is the
#: site's dict literal, shared by every subscriber of the event.
Handler = Callable[[float, str, str, Dict[str, Any]], None]

#: Kinds the TraceLog records -> the detail fields it keeps, in the
#: site's key order: a record stores their values, not the dict, and a
#: site's fields beyond them are observer-only (no per-task kind has
#: any).  None keeps the dict whole: ``steal.request``, whose
#: ``proactive`` is optional, and the ``worker.exit.*`` family (sites
#: look it up under that key and pass ``worker.exit.<reason>`` as kind).
TRACED: Dict[str, Optional[Tuple[str, ...]]] = {
    "closure.new": ("cid",), "closure.exec": ("cid", "thread"),
    "closure.suspend": ("cid", "missing"), "closure.lost": ("cids", "reason"),
    "closure.drop": ("cid", "reason"), "join.fill": ("cid", "slot", "remaining"),
    "join.dup": ("cid", "slot"), "arg.retry": ("cid", "slot", "seq"),
    "steal.request": None, "steal.grant": ("thief", "cid", "req"),
    "steal.success": ("victim", "cid", "req"), "steal.reclaim": ("thief", "req", "pairs"),
    "migrate.in": ("sender", "n", "cids"), "migrate.out": ("target", "n", "cids"),
    "migrate.dup": ("sender", "n"), "migrate.reoffer": ("pairs",),
    "redo": ("dead", "n", "pairs"),
    "worker.start": (), "worker.rejoin": (), "worker.exit.*": None,
    "net.send": ("dst", "port", "id"), "net.recv": ("src", "id", "port"),
    "net.loopback": ("id", "port"), "net.partition": ("dst", "id"), "net.loss": ("id",),
    "net.drop.down": ("id",), "net.drop.unbound": ("id",),
    "ch.register": ("worker",), "ch.unregister": ("worker",), "ch.result": ("sender",),
    "ch.worker_died": ("worker",), "ch.peer_update": ("peers",),
    "jobq.submit": ("job", "id"), "jobq.grant": ("job", "to"), "jobq.done": ("id",),
    "jm.start_worker": ("job",), "jm.reclaim": (), "jm.preempt": (),
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


def _fan_out(subs: Tuple[Handler, ...]) -> Handler:
    """The one callable that reaches *subs* in order: the lone
    subscriber itself, a fixed-arity call for two or three (no loop, no
    tuple walk on the per-task path), a loop beyond that."""
    if len(subs) == 1:
        return subs[0]
    if len(subs) == 2:
        a, b = subs

        def both(t: float, kind: str, source: str, detail: Dict[str, Any]) -> None:
            a(t, kind, source, detail)
            b(t, kind, source, detail)
        return both
    if len(subs) == 3:
        a, b, c = subs

        def all_three(t: float, kind: str, source: str, detail: Dict[str, Any]) -> None:
            a(t, kind, source, detail)
            b(t, kind, source, detail)
            c(t, kind, source, detail)
        return all_three

    def each(t: float, kind: str, source: str, detail: Dict[str, Any]) -> None:
        for fn in subs:
            fn(t, kind, source, detail)
    return each


class Probe(Dict[str, Handler]):
    """A run's compiled dispatch table: kind -> the one callable that
    reaches that kind's observers — the log first (when there is one and
    the kind is :data:`TRACED`), then the subscribers in subscription
    order."""

    def __init__(self, log: Optional[Any] = None) -> None:
        super().__init__()
        self._log = log
        self._subs: Dict[str, Tuple[Handler, ...]] = {}
        #: True once a component has taken this probe (see :meth:`bind`).
        self.bound = False
        if log is not None:
            for kind in TRACED:
                self._compile(kind)

    def _compile(self, kind: str) -> None:
        """Resolve *kind* to its one callable: the subscribers' fan-out,
        behind the log's recorder when the log records this kind."""
        on = _fan_out(self._subs[kind]) if kind in self._subs else None
        if self._log is not None and kind in TRACED:
            on = self._log.recorder(on, TRACED[kind])
        self[kind] = on

    def subscribe(self, handlers: Mapping[str, Handler]) -> None:
        """Register *handlers* (kind -> fn) behind any earlier
        subscriber of the same kind."""
        if self.bound:
            raise ReproError(
                "probe already bound by a component: this subscriber would "
                "see a run it missed the start of — construct the monitor "
                "before the run")
        for kind, fn in handlers.items():
            if kind not in TRACED and kind not in OBSERVER_ONLY:
                raise ReproError(f"unknown probe kind {kind!r}")
            self._subs[kind] = self._subs.get(kind, ()) + (fn,)
            self._compile(kind)

    def bind(self, t: float, kind: str, source: str,
             detail: Dict[str, Any]) -> None:
        """A component's constructor taking this probe: closes the
        subscription window, then announces the component."""
        self.bound = True
        on = self.get(kind)
        if on is not None:
            on(t, kind, source, detail)

    @classmethod
    def for_run(cls, trace: Optional[Any] = None, metrics: Optional[Any] = None,
                profiler: Optional[Any] = None) -> Optional["Probe"]:
        """The probe for one run's observers, or None without any.  The
        log comes first: every other observer sees an event after its
        record exists."""
        if trace is None and metrics is None and profiler is None:
            return None
        probe = cls(trace)
        if metrics is not None:
            metrics.subscribe(probe)
        if profiler is not None:
            profiler.subscribe(probe)
        return probe
