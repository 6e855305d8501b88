"""The files a run writes: probe subscribers in front of a bounded buffer.

A sink is an observer like any other (:mod:`repro.obs.probe`): it
subscribes its ``on(t, kind, source, detail)`` for :data:`STREAM_KINDS`
and is closed with the run's profile summary
(:class:`~repro.obs.prof.SpanProfiler` does both for the ``sinks`` it is
given).  Events arrive in global sim-time order, so a sink is a pure
forward writer: hold at most ``buffer_events`` lines, flush, repeat — a
million-task run is written in O(buffer) memory (pinned by
``tests/obs/test_stream.py``).

* :class:`JsonlSpanSink` — one :func:`~repro.util.trace.event_row` per
  line between a ``profile_meta`` header and the ``profile_summary``
  that ``close`` appends.
* :class:`PerfettoWriter` — incremental Chrome ``traceEvents`` JSON; its
  ``on`` is the repo's one probe-kind -> trace-event translation, fed
  live by ``repro profile --perfetto`` and replayed from a finished
  :class:`~repro.util.trace.TraceLog` by
  :func:`repro.obs.export.to_perfetto`.  Intervals are ``B``/``E`` pairs
  written *at their start and end times*, never ``X`` complete events:
  an ``X`` is only known when the interval ends but is stamped with its
  start, which would land behind instants already written and break the
  forward-only contract.  ``B``/``E`` keeps every track monotonic by
  construction (and is what ``validate_perfetto`` pairing-checks).
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Tuple

from repro.obs.prof import PROFILE_SCHEMA
from repro.util.trace import event_row, jsonable

#: The probe kinds a run's output files are written from.  The first row
#: is what the TraceLog records too (so a finished log replays to the
#: same document); the second is observer-only, seen live alone.
STREAM_KINDS: Tuple[str, ...] = (
    "worker.start", "worker.rejoin", "worker.exit.*",
    "steal.request", "steal.grant", "steal.success",
    "migrate.in", "migrate.out", "redo", "closure.lost",
    "ch.register", "ch.unregister", "ch.worker_died", "ch.result",
    "jobq.submit", "jobq.grant", "jobq.done",
    # -- observer-only --
    "worker.begin", "phase.begin", "phase.end", "task.done", "task.charged",
)

#: Kinds only a replay feeds :meth:`PerfettoWriter.on`, from the metrics
#: registry: a health incident (source = its subject) and one sample of
#: a series (source = the counter's name).
INCIDENT, SAMPLE = "health.incident", "series.sample"

#: Worker rows live in one "cluster" process, control-plane rows (one
#: per kind family below, ``health``, the ``run`` extent, counters) in
#: another.
WORKERS_PID = 1
CONTROL_PID = 2
CONTROL_TRACKS = {"ch": "clearinghouse", "jobq": "jobq"}

#: The JSONL row shape, recorded in the header (1 was the profiler's
#: private ``{"ev", "t", "w", ...}`` vocabulary).
JSONL_ROWS = 2

_US = 1e6  # seconds -> trace-event microseconds

#: One track of the document: ``(pid, tid, names of its open B's)``.
_Track = Tuple[int, int, List[str]]


def _meta_line(meta: Dict[str, Any]) -> str:
    return json.dumps({"profile_meta": {"schema": PROFILE_SCHEMA,
                                        "rows": JSONL_ROWS, **meta}},
                      sort_keys=True) + "\n"


class _StreamSink:
    """A probe subscriber writing text lines through a bounded buffer.

    ``path_or_fh`` may be a filesystem path (opened and owned by the
    sink) or an already-open text file object (borrowed — closing
    flushes but does not close it).  ``events``, ``peak_buffered`` and
    ``flushes`` expose the memory-bound contract to tests.
    """

    def __init__(self, path_or_fh: Any, buffer_events: int) -> None:
        if buffer_events < 1:
            raise ValueError("buffer_events must be >= 1")
        self.buffer_events = buffer_events
        if hasattr(path_or_fh, "write"):
            self._fh: IO[str] = path_or_fh
            self._owns_fh = False
            self.path = getattr(path_or_fh, "name", "<stream>")
        else:
            self.path = str(path_or_fh)
            self._fh = open(self.path, "w", encoding="utf-8")
            self._owns_fh = True
        self.events = 0
        self.peak_buffered = 0
        self.flushes = 0
        self._buf: List[str] = []
        self._closed = False

    def subscribe(self, probe: Any) -> None:
        probe.subscribe(dict.fromkeys(STREAM_KINDS, self.on))

    def _write(self, line: str) -> None:
        self._buf.append(line)
        self.events += 1
        n = len(self._buf)
        if n > self.peak_buffered:
            self.peak_buffered = n
        if n >= self.buffer_events:
            self._flush()

    def _flush(self) -> None:
        if self._buf:
            self._fh.write("\n".join(self._buf) + "\n")
            self._buf.clear()
            self.flushes += 1

    def close(self, summary: Optional[Dict[str, Any]] = None) -> None:
        """End the file with the subclass's ``_tail(summary)``.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        tail = self._tail(summary)
        self._flush()
        self._fh.write(tail)
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()


class JsonlSpanSink(_StreamSink):
    """The stream as JSON lines: header, one event row each, summary."""

    def __init__(self, path_or_fh: Any, buffer_events: int = 8192,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(path_or_fh, buffer_events)
        self._fh.write(_meta_line(meta or {}))

    def on(self, t: float, kind: str, source: str, detail: Dict[str, Any]) -> None:
        self._write(event_row(t, kind, source, detail))

    def _tail(self, summary: Optional[Dict[str, Any]]) -> str:
        return "" if summary is None else json.dumps(
            {"profile_summary": summary}, sort_keys=True) + "\n"


class PerfettoWriter(_StreamSink):
    """Incremental Chrome/Perfetto ``traceEvents`` writer.

    Events are translated and appended as they arrive; nothing is kept
    beyond the line buffer and the track table (name -> tid and the
    stack of open ``B`` names, bounded by nesting depth, <= 3).  A ``run`` slice
    spans the whole document, ``[0, last event]``, so instants that
    trail the last worker exit (a PhishSystem's ``jobq.done``) are still
    inside the trace's range.  ``close`` ends every still-open ``B`` at
    the last seen timestamp (a crash, or a capacity-truncated log, can
    end mid-interval) and writes the track names, so the document
    always passes ``validate_perfetto``.
    """

    def __init__(self, path_or_fh: Any, job_name: str = "job",
                 buffer_events: int = 8192) -> None:
        super().__init__(path_or_fh, buffer_events)
        self.job_name = job_name
        self._tracks: Dict[Tuple[int, str], _Track] = {}
        self._last_t = 0.0
        self._fh.write('{"traceEvents":[\n')
        self._begin(0.0, self._track(CONTROL_PID, "run"), job_name, "run")

    # -- low-level appends ------------------------------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        self._write(("," if self.events else "") + json.dumps(event))

    def _append(self, ph: str, ts: float, track: _Track, **fields: Any) -> None:
        self._emit({"ph": ph, "pid": track[0], "tid": track[1], "ts": ts,
                    **fields})

    def _track(self, pid: int, name: str) -> _Track:
        track = self._tracks.get((pid, name))
        if track is None:
            tid = 1 + sum(p == pid for p, _ in self._tracks)
            track = self._tracks[(pid, name)] = (pid, tid, [])
        return track

    def _begin(self, ts: float, track: _Track, name: str, cat: str,
               **args: Any) -> None:
        self._append("B", ts, track, name=name, cat=cat,
                     **({"args": args} if args else {}))
        track[2].append(name)

    def _sweep(self, ts: float, track: _Track, reason: str) -> None:
        """End every open interval on *track*, innermost first; the
        participation span carries how it ended."""
        while track[2]:
            if track[2].pop() == "participating":
                self._append("E", ts, track, args={"exit": reason})
            else:
                self._append("E", ts, track)

    def _instant(self, ts: float, track: _Track, name: str, cat: str,
                 scope: str, detail: Dict[str, Any]) -> None:
        self._append("i", ts, track, name=name, cat=cat, s=scope,
                     args={k: jsonable(v) for k, v in detail.items()})

    # -- the translation --------------------------------------------------

    def on(self, t: float, kind: str, source: str, detail: Dict[str, Any]) -> None:
        """One stream event -> its Chrome trace events (the only such
        mapping under ``src/``)."""
        if t > self._last_t:
            self._last_t = t
        ts = round(t * _US, 3)
        if kind == SAMPLE:
            self._emit({"ph": "C", "pid": CONTROL_PID, "ts": ts, "name": source,
                        "args": {"value": detail["value"]}})
            return
        control = CONTROL_TRACKS.get(kind.partition(".")[0])
        if control is not None:
            self._instant(ts, self._track(CONTROL_PID, control), kind,
                          "control", "p", detail)
            return
        if kind == INCIDENT:
            # On the offending worker's track; cluster-scoped ones
            # (stalls, SLO breaches) on a track of their own.
            pid, name, scope = WORKERS_PID, source, "t"
            if (pid, name) not in self._tracks:
                pid, name, scope = CONTROL_PID, "health", "p"
            self._instant(ts, self._track(pid, name),
                          f"health.{detail['kind']}", "health", scope, detail)
            return
        track = self._track(WORKERS_PID, source)
        stack = track[2]
        if kind == "task.done":
            self._begin(ts, track, detail["thread"], "exec",
                        cid=str(detail["cid"]), depth=detail["depth"])
        elif kind in ("task.charged", "phase.end"):
            # Ends the innermost interval — never the participation
            # span: a phase.end can outlive the exit that swept its
            # phase shut (an interrupted generator's ``finally``).
            if stack and stack[-1] != "participating":
                stack.pop()
                self._append("E", ts, track)
        elif kind == "phase.begin":
            self._begin(ts, track, detail["phase"], "phase")
        elif kind == "worker.begin":
            # Start-up and the registration handshake, closed by the
            # worker's own ``phase.end``.
            self._begin(ts, track, "protocol", "phase")
        elif kind in ("worker.start", "worker.rejoin"):
            if "participating" not in stack:
                self._begin(ts, track, "participating", "worker")
        elif kind.startswith("worker.exit."):
            reason = kind[len("worker.exit."):]
            self._sweep(ts, track, reason)
            if reason == "crashed":
                self._instant(ts, track, kind, "lifecycle", "t", detail)
        else:  # steal.*, migrate.*, redo, closure.lost
            self._instant(ts, track, kind, "lifecycle", "t", detail)

    def _tail(self, summary: Optional[Dict[str, Any]]) -> str:
        """*summary*'s scalar entries ride along as ``otherData`` (a
        profile's T1 / T-inf / counters, a replay's truncation flags)."""
        ts = round(self._last_t * _US, 3)
        tracks = sorted(self._tracks.items())
        for _key, track in tracks:
            self._sweep(ts, track, "running")
        for pid, name in ((WORKERS_PID, f"cluster:{self.job_name}"),
                          (CONTROL_PID, "control")):
            self._emit({"name": "process_name", "ph": "M", "pid": pid,
                        "args": {"name": name}})
        for (pid, name), track in tracks:
            self._emit({"name": "thread_name", "ph": "M", "pid": pid,
                        "tid": track[1], "args": {"name": name}})
        other = {"job": self.job_name,
                 **{k: v for k, v in (summary or {}).items()
                    if not isinstance(v, dict)}}
        return ('],"displayTimeUnit":"ms","otherData":'
                + json.dumps(other, sort_keys=True) + "}\n")


# ----------------------------------------------------------------------
# JSONL readers
# ----------------------------------------------------------------------

def iter_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Yield every non-blank line of a JSONL file as a parsed object
    (a profile's header and summary included), streaming — O(1) memory."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_profile_summary(path: str) -> Optional[Dict[str, Any]]:
    """Return the ``profile_summary`` object of a JSONL profile, or
    ``None`` if the file has no summary line (unclosed sink)."""
    summary: Optional[Dict[str, Any]] = None
    for obj in iter_jsonl(path):
        if "profile_summary" in obj:
            summary = obj["profile_summary"]
    return summary


def write_incidents_jsonl(incidents: Iterable[Any], path: str) -> int:
    """Write health :class:`~repro.obs.health.Incident` records as JSON
    lines (one ``Incident.row()`` object per line, in the order given —
    rings hand them over already sorted).  Returns the line count.
    Streaming and deterministic: the same incidents produce a
    byte-identical file."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for inc in incidents:
            fh.write(json.dumps(inc.row(), sort_keys=True) + "\n")
            count += 1
    return count


def iter_incidents_jsonl(path: str) -> Iterator[Any]:
    """Yield :class:`~repro.obs.health.Incident` records back from a
    :func:`write_incidents_jsonl` file, streaming — O(1) memory."""
    from repro.obs.health import Incident

    return map(Incident.from_row, iter_jsonl(path))
