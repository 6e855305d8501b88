"""Replay a TraceLog (+ MetricsRegistry) as Chrome/Perfetto trace JSON.

The document is written by the run's one Perfetto translation,
:class:`repro.obs.stream.PerfettoWriter` — the writer ``repro profile
--perfetto`` subscribes live — fed here from a *finished* run: the log's
events of the stream kinds, time-merged with what only the registry
holds (health :class:`~repro.obs.health.Incident` records, the samples
of its :class:`~repro.obs.metrics.Series` instruments as counter
tracks).  The output opens directly in ``ui.perfetto.dev`` and
``chrome://tracing``; simulated seconds map to trace microseconds (the
format's native unit).
"""

from __future__ import annotations

import io
import json
from heapq import merge
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import INCIDENT, SAMPLE, STREAM_KINDS, PerfettoWriter
from repro.util.trace import TraceLog

#: One replayed event, in the shape a probe subscriber is called with.
_Event = Tuple[float, str, str, Dict[str, Any]]


def _registry_events(registry: MetricsRegistry,
                     last_t: float) -> List[Iterable[_Event]]:
    """The registry's time-ordered streams: its monitor's incidents and
    one per series."""
    streams: List[Iterable[_Event]] = []
    health = registry.health
    if health is not None:
        # A detector that fires at a pulse after the last traced event
        # is drawn at it: the timeline ends where the log does.
        streams.append(
            (min(max(inc.t_start, 0.0), last_t), INCIDENT, inc.subject,
             {"kind": inc.kind, "severity": inc.severity,
              "subject": inc.subject, "t_end": inc.t_end, **dict(inc.evidence)})
            for inc in health.ring.incidents)
    for name in registry.names():
        inst = registry.get(name)
        if inst.kind == "series":
            # "micro.deque.depth.ws03" -> counter "deque depth ws03".
            label = name.replace("micro.deque.depth.", "deque depth ")
            streams.append([(t, SAMPLE, label, {"value": v})
                            for t, v in inst.samples])
    return streams


def to_perfetto(
    trace: TraceLog,
    registry: Optional[MetricsRegistry] = None,
    job_name: str = "phish",
) -> Dict[str, Any]:
    """Build the trace_event document (a JSON-ready dict)."""
    # Only the stream kinds: every other record (net.*, closure.*) would
    # become a lifecycle instant, hundreds of thousands of them.
    kinds = frozenset(STREAM_KINDS)
    streams: List[Any] = [[
        (ev.time, ev.kind, ev.source, ev.detail) for ev in trace
        if ev.kind in kinds or ev.kind.startswith("worker.exit.")]]
    if registry is not None:
        streams += _registry_events(
            registry, max((ev.time for ev in trace), default=0.0))
    out = io.StringIO()
    writer = PerfettoWriter(out, job_name)
    for event in merge(*streams, key=lambda e: e[0]):
        writer.on(*event)
    # A truncated log lost its *oldest* events, so the rendered timeline
    # starts mid-run; viewers of the doc alone must be able to tell.
    writer.close({"trace_events": len(trace), "trace_dropped": trace.dropped,
                  "trace_truncated": trace.truncated})
    return json.loads(out.getvalue())


def write_perfetto(
    trace: TraceLog,
    path: str,
    registry: Optional[MetricsRegistry] = None,
    job_name: str = "phish",
) -> Dict[str, Any]:
    """Write the export to *path*; returns the document."""
    doc = to_perfetto(trace, registry, job_name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc


#: Phase types emitted by this exporter and the streaming profile
#: writer, with their required keys.  "E" carries no name: it closes
#: the innermost open "B" on its track.
_REQUIRED_KEYS: Dict[str, Tuple[str, ...]] = {
    "M": ("name", "pid", "args"),
    "X": ("name", "pid", "tid", "ts", "dur"),
    "B": ("name", "pid", "tid", "ts"),
    "E": ("pid", "tid", "ts"),
    "i": ("name", "pid", "tid", "ts", "s"),
    "C": ("name", "pid", "ts", "args"),
}


def validate_perfetto(doc: Dict[str, Any]) -> List[str]:
    """Check *doc* against the Chrome trace_event JSON-object format.

    Returns a list of problems (empty = valid): structural shape, the
    per-phase required keys, numeric non-negative timestamps,
    monotonically non-decreasing ``ts`` within each (pid, tid) track,
    properly nested ``B``/``E`` duration pairs per track (every ``E``
    closes an open ``B``; a named ``E`` must match the ``B`` it closes;
    no ``B`` left open at the end of the document), and instant (``i``)
    events landing inside the trace's time range — no later than the
    last non-instant event ends (a stray instant past the end usually
    means a timestamp-unit bug in the producer; negative ``ts`` is
    already rejected for every phase).
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    # End of the substantive (non-instant, non-metadata) events;
    # instants are checked against it below.  A doc with no such events
    # has no range to enforce.
    t_hi = None
    for ev in events:
        if not isinstance(ev, dict) or ev.get("ph") in ("M", "i"):
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            continue
        end = ts + ev["dur"] if (
            ev.get("ph") == "X" and isinstance(ev.get("dur"), (int, float))
        ) else ts
        t_hi = end if t_hi is None else max(t_hi, end)
    last_ts: Dict[Tuple[Any, Any], float] = {}
    open_b: Dict[Tuple[Any, Any], List[str]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        required = _REQUIRED_KEYS.get(ph)
        if required is None:
            problems.append(f"event {i} has unknown phase {ph!r}")
            continue
        missing = [k for k in required if k not in ev]
        if missing:
            problems.append(f"event {i} ({ph}) missing keys {missing}")
            continue
        ts = ev.get("ts", 0)
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} has bad ts {ts!r}")
            continue
        if ph == "X" and (not isinstance(ev["dur"], (int, float)) or ev["dur"] < 0):
            problems.append(f"event {i} has bad dur {ev['dur']!r}")
        if ph == "i":
            if ev["s"] not in ("t", "p", "g"):
                problems.append(f"event {i} has bad instant scope {ev['s']!r}")
            if t_hi is not None and ts > t_hi:
                problems.append(
                    f"event {i} instant ts {ts} outside trace range "
                    f"[0, {t_hi}]"
                )
        if ph != "M":
            key = (ev.get("pid"), ev.get("tid"))
            if ts < last_ts.get(key, 0.0):
                problems.append(
                    f"event {i} ts {ts} not monotonic on track {key}"
                )
            last_ts[key] = ts
            if ph == "B":
                open_b.setdefault(key, []).append(ev["name"])
            elif ph == "E":
                stack = open_b.get(key)
                if not stack:
                    problems.append(
                        f"event {i} E with no open B on track {key}"
                    )
                    continue
                begun = stack.pop()
                name = ev.get("name")
                if name is not None and name != begun:
                    problems.append(
                        f"event {i} E name {name!r} closes B {begun!r} "
                        f"on track {key}"
                    )
    for key, stack in sorted(open_b.items(), key=lambda kv: str(kv[0])):
        for name in stack:
            problems.append(f"unclosed B {name!r} on track {key}")
    return problems
