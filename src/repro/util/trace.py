"""Structured event tracing for simulated executions.

A :class:`TraceLog` is an append-only list of timestamped, typed records.
Schedulers and the network emit into it when tracing is enabled; tests and
the experiment harness query it to assert ordering properties (e.g. "no
steal reply precedes its request") and to debug runs.  Tracing is off by
default because the paper's largest run executes millions of tasks.

Recording is deliberately cheap: a record is five attribute stores on a
slotted object (no dataclass machinery, and :meth:`TraceLog.recorder`
skips even the constructor call), and what it stores of the detail is
its kind's kept fields' values, not the dict — ``TraceEvent.detail``
rebuilds the dict when read.  Rendering is lazy too — the
``[time] source kind k=v`` line is only formatted when someone calls
``str()``/:meth:`TraceLog.dump`.  A log can additionally be restricted to
*categories* (kind prefixes) so a consumer that only needs, say, the
``steal.`` and ``closure.`` records does not pay to store the rest.
"""

from __future__ import annotations

import json
from collections import deque
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple


def jsonable(value: Any) -> Any:
    """Best-effort JSON coercion of one detail value (tuples become
    lists, unknown objects their ``repr``) — lossy on types, lossless on
    information, which is what offline re-analysis needs."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return repr(value)


def event_row(time: float, kind: str, source: str,
              detail: Dict[str, Any]) -> str:
    """One event as the JSONL line a writer of a run emits
    (:class:`~repro.obs.stream.JsonlSpanSink`)."""
    return json.dumps({
        "t": time, "kind": kind, "src": source,
        "detail": {k: jsonable(v) for k, v in detail.items()},
    }, sort_keys=True)


class TraceEvent:
    """One trace record.

    Attributes:
        time: simulated time at which the event occurred.
        kind: short event-type tag, e.g. ``"steal.request"``.
        source: name of the emitting component (worker/host name).
        payload: what the record keeps of the detail — the value itself
            for a kind with one kept field, a tuple of the values in
            :attr:`fields` order for several, the detail dict itself for
            a kind kept whole.
        fields: the detail keys *payload* holds the values of (the
            kind's one shared tuple), or None when it is the dict itself.
    """

    __slots__ = ("time", "kind", "source", "payload", "fields")

    def __init__(self, time: float, kind: str, source: str,
                 detail: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.kind = kind
        self.source = source
        self.payload: Any = {} if detail is None else detail
        self.fields: Optional[Tuple[str, ...]] = None

    @property
    def detail(self) -> Dict[str, Any]:
        """The event's detail for humans and tests: the kept fields as
        the site said them, rebuilt on each read (treat it as read-only)."""
        fields = self.fields
        if fields is None:
            return self.payload
        if len(fields) == 1:
            return {fields[0]: self.payload}
        return dict(zip(fields, self.payload))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceEvent)
            and other.time == self.time
            and other.kind == self.kind
            and other.source == self.source
            and other.detail == self.detail
        )

    def __repr__(self) -> str:
        return (f"TraceEvent(time={self.time!r}, kind={self.kind!r}, "
                f"source={self.source!r}, detail={self.detail!r})")

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:12.6f}] {self.source:<16} {self.kind:<20} {extras}"


_new_event = TraceEvent.__new__


class TraceLog:
    """Append-only trace collector with simple query helpers."""

    def __init__(
        self,
        enabled: bool = True,
        capacity: Optional[int] = None,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        """Create a log.

        Args:
            enabled: when False, :meth:`emit` is a no-op (cheap to leave in
                hot paths).
            capacity: optional bound; older events are discarded FIFO once
                the bound is reached, so long runs cannot exhaust memory.
            categories: optional kind-prefix filter; when given, only
                events whose ``kind`` starts with one of these prefixes
                are recorded (e.g. ``("steal.", "closure.")``).  Filtered
                events are *not* counted as dropped: a filtered log is a
                deliberate projection, not a truncated history.
        """
        if capacity is not None and capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity!r}")
        self.enabled = enabled
        self.capacity = capacity
        #: Kind-prefix filter as a tuple (``str.startswith`` accepts it
        #: directly), or None for "record everything".
        self.categories: Optional[Tuple[str, ...]] = (
            tuple(categories) if categories is not None else None
        )
        #: Bounded deque: eviction of the oldest event is O(1), so a
        #: capacity-limited log stays cheap no matter how long the run.
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._dropped = 0
        from repro.obs.probe import TRACED  # repro.obs imports this module
        #: Kind -> the detail fields a run's record keeps (:meth:`emit`).
        self._kept = TRACED

    def emit(self, time: float, kind: str, source: str, **detail: Any) -> None:
        """Record one event (no-op when disabled or filtered out) as a
        run records it: the kind's kept fields when *detail* is exactly
        those, in order, and the dict whole otherwise.  The recorder is
        built per call, not stored: a stored one would make the log a
        reference cycle with itself."""
        fields = self._kept.get(kind)
        self.recorder(fields=fields if fields and tuple(detail) == fields else None)(
            time, kind, source, detail)

    def recorder(self, then: Optional[Callable[..., None]] = None,
                 fields: Optional[Tuple[str, ...]] = None) -> Callable[..., None]:
        """``record(time, kind, source, detail)`` into this log — the
        shape a :class:`~repro.obs.probe.Probe` calls its subscribers
        with.  The record keeps the values of *fields* (the kind's kept
        detail keys, in the site's order; the rest of *detail* is
        observer-only), taken by one C-level ``itemgetter``, or *detail*
        itself when no fields are given; *then*, when given, is handed
        the same event afterwards (recorded or filtered out), so the log
        and a kind's other observers cost one call frame, not a fan-out
        plus two."""
        events = self._events
        fields = fields or None
        values = itemgetter(*fields) if fields else None

        def record(time: float, kind: str, source: str,
                   detail: Dict[str, Any]) -> None:
            if self.enabled and ((categories := self.categories) is None
                                 or kind.startswith(categories)):
                if len(events) == self.capacity:
                    self._dropped += 1  # deque(maxlen) evicts the oldest silently
                # TraceEvent(time, kind, source, detail) without the
                # constructor frame: most records of a long run are evicted
                # from the ring unread, so construction is their whole cost.
                # The kind's fields ride in a slot, not on a subclass per
                # kind: one record type keeps these stores specialised.
                ev = _new_event(TraceEvent)
                ev.time = time
                ev.kind = kind
                ev.source = source
                ev.payload = detail if values is None else values(detail)
                ev.fields = fields
                events.append(ev)
            if then is not None:
                then(time, kind, source, detail)
        return record

    def handover(self) -> "TraceLog":
        """A new log that takes over this one's events, settings and
        dropped count; this log is left empty.  Recorders already handed
        out keep writing here, never into the new log — so a run's record
        can leave the run's object graph before teardown."""
        log = TraceLog(self.enabled, self.capacity, self.categories)
        log._events.extend(self._events)
        log._dropped = self._dropped
        self._events.clear()
        self._dropped = 0
        return log

    @property
    def dropped(self) -> int:
        """Number of events discarded due to the capacity bound.

        Consumers that need the *complete* history (e.g. the invariant
        checker in :mod:`repro.check`) must treat ``dropped > 0`` as
        "history truncated" and degrade to warnings rather than report
        false violations.
        """
        return self._dropped

    @property
    def truncated(self) -> bool:
        """True when at least one event was evicted (history incomplete)."""
        return self._dropped > 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        where: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Return events filtered by kind and/or source and/or predicate."""
        out = []
        for ev in self._events:
            if kind is not None and ev.kind != kind:
                continue
            if source is not None and ev.source != source:
                continue
            if where is not None and not where(ev):
                continue
            out.append(ev)
        return out

    def count(self, kind: str) -> int:
        """Number of recorded events of the given kind."""
        return sum(1 for ev in self._events if ev.kind == kind)

    def kinds(self) -> List[Tuple[str, int]]:
        """(kind, count) pairs sorted by kind — a quick run fingerprint."""
        acc: Dict[str, int] = {}
        for ev in self._events:
            acc[ev.kind] = acc.get(ev.kind, 0) + 1
        return sorted(acc.items())

    def dump(self) -> str:
        """The whole log as one newline-joined string.

        Stable given a deterministic run: the determinism regression
        tests compare ``dump()`` outputs byte-for-byte.
        """
        return "\n".join(str(ev) for ev in self._events)
