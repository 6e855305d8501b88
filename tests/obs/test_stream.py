"""Stream sinks: bounded memory, Perfetto validity, live == replay."""

import io
import json
import os

import pytest

from repro.apps.fib import fib_job
from repro.obs import (
    JsonlSpanSink,
    PerfettoWriter,
    SpanProfiler,
    iter_jsonl,
    read_profile_summary,
    to_perfetto,
)
from repro.obs.export import validate_perfetto
from repro.obs.probe import TRACED
from repro.obs.stream import STREAM_KINDS
from repro.phish import run_job


def _stream_fib(n, path, seed=1, n_workers=4, **sink_kwargs):
    sink = JsonlSpanSink(path, **sink_kwargs)
    prof = SpanProfiler(sinks=[sink])
    res = run_job(fib_job(n), n_workers=n_workers, seed=seed, profiler=prof)
    return res, prof, sink


def _written(writer):
    """Close *writer* and load the document it wrote."""
    writer.close()
    with open(writer.path, encoding="utf-8") as fh:
        return json.load(fh)


class TestJsonlSpanSink:
    def test_header_rows_and_summary_roundtrip(self, tmp_path):
        path = str(tmp_path / "prof.jsonl")
        res, prof, sink = _stream_fib(8, path, meta={"app": "fib", "seed": 1})
        lines = list(iter_jsonl(path))
        assert lines[0]["profile_meta"]["app"] == "fib"
        assert lines[0]["profile_meta"]["rows"] == 2
        assert "profile_summary" in lines[-1]
        summary = read_profile_summary(path)
        assert summary == res.profile
        assert summary["nodes"] == prof.nodes
        # Every line in between is the one event row, of a stream kind.
        stream_kinds = tuple(k.rstrip("*") for k in STREAM_KINDS)
        for obj in lines[1:-1]:
            assert sorted(obj) == ["detail", "kind", "src", "t"]
            assert obj["kind"].startswith(stream_kinds)
        assert sum(o["kind"] == "task.done" for o in lines[1:-1]) == prof.nodes
        assert len(lines) - 2 == sink.events

    def test_rows_globally_time_sorted(self, tmp_path):
        path = str(tmp_path / "prof.jsonl")
        _stream_fib(10, path)
        times = [obj["t"] for obj in iter_jsonl(path) if "kind" in obj]
        assert times and times == sorted(times)

    def test_borrowed_fh_not_closed(self):
        fh = io.StringIO()
        sink = JsonlSpanSink(fh, buffer_events=2)
        sink.on(0.0, "worker.start", "ws00", {})
        sink.close({"nodes": 0})
        assert not fh.closed
        lines = [json.loads(l) for l in fh.getvalue().splitlines()]
        assert "profile_meta" in lines[0]
        assert lines[1] == {"t": 0.0, "kind": "worker.start", "src": "ws00",
                            "detail": {}}
        assert lines[-1]["profile_summary"]["nodes"] == 0

    def test_close_idempotent(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        sink = JsonlSpanSink(path)
        sink.close({"nodes": 1})
        sink.close({"nodes": 2})
        assert read_profile_summary(path)["nodes"] == 1

    def test_rejects_nonpositive_buffer(self):
        with pytest.raises(ValueError, match="buffer_events"):
            JsonlSpanSink(io.StringIO(), buffer_events=0)
        with pytest.raises(ValueError, match="buffer_events"):
            PerfettoWriter(io.StringIO(), buffer_events=0)


class TestBoundedMemory:
    def test_million_events_stay_within_buffer_bound(self):
        """The acceptance bound: a >= 1M-event stream is held in
        O(buffer) memory — peak buffered rows never exceed the
        configured buffer, independent of stream length."""
        buffer_events = 4096
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            sink = JsonlSpanSink(devnull, buffer_events=buffer_events)
            detail = {"cid": ("ws00", 1), "thread": "fib_task", "depth": 0}
            for i in range(1_000_000):
                sink.on(i * 1e-6, "task.done", "ws00", detail)
            sink.close()
        assert sink.events == 1_000_000
        assert sink.peak_buffered <= buffer_events
        assert sink.flushes >= 1_000_000 // buffer_events

    def test_perfetto_writer_buffer_bound(self, tmp_path):
        writer = PerfettoWriter(str(tmp_path / "trace.json"), buffer_events=64)
        for i in range(10_000):
            t = i * 1e-6
            writer.on(t, "task.done", "ws00",
                      {"cid": ("ws00", i), "thread": "t", "depth": 0})
            writer.on(t + 5e-7, "task.charged", "ws00", {"cid": ("ws00", i)})
        doc = _written(writer)
        assert writer.events >= 20_000
        assert writer.peak_buffered <= 64
        assert validate_perfetto(doc) == []


class TestStreamingPerfettoWriter:
    def test_streamed_run_validates(self, tmp_path):
        perfetto = str(tmp_path / "trace.json")
        writer = PerfettoWriter(perfetto, job_name="fib")
        prof = SpanProfiler(sinks=[writer])
        run_job(fib_job(10), n_workers=4, seed=1, profiler=prof)
        with open(perfetto, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_perfetto(doc) == []
        other = doc["otherData"]
        assert other["job"] == "fib"
        assert other["nodes"] == prof.nodes
        assert other["t_inf_s"] == prof.t_inf_s
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("name") == "thread_name"}
        assert {"ws00", "ws01", "ws02", "ws03"} <= names
        execs = [e for e in doc["traceEvents"] if e.get("cat") == "exec"]
        assert len(execs) == prof.nodes and {e["ph"] for e in execs} == {"B"}

    def test_auto_closes_open_intervals(self, tmp_path):
        writer = PerfettoWriter(str(tmp_path / "trace.json"))
        writer.on(0.0, "worker.start", "ws00", {})
        writer.on(1.0, "phase.begin", "ws00", {"phase": "stealing"})
        doc = _written(writer)  # both B's still open: must be auto-closed
        assert validate_perfetto(doc) == []
        ends = [e for e in doc["traceEvents"]
                if e["ph"] == "E" and e["pid"] == 1]
        assert [e["ts"] for e in ends] == [1e6, 1e6]
        # innermost first; the participation span says it never exited
        assert [e.get("args") for e in ends] == [None, {"exit": "running"}]

    def test_unmatched_end_dropped(self, tmp_path):
        writer = PerfettoWriter(str(tmp_path / "trace.json"))
        writer.on(1.0, "task.charged", "ws00", {"cid": ("ws00", 1)})
        # ... and an end never closes the participation span: only the
        # worker's exit does.
        writer.on(2.0, "worker.start", "ws00", {})
        writer.on(3.0, "phase.end", "ws00", {"phase": "stealing"})
        writer.on(4.0, "worker.exit.done", "ws00", {})
        doc = _written(writer)
        assert validate_perfetto(doc) == []
        ends = [e for e in doc["traceEvents"]
                if e["ph"] == "E" and e["pid"] == 1]
        assert [(e["ts"], e["args"]) for e in ends] == [(4e6, {"exit": "done"})]


class TestTeeSink:
    """Two sinks on one profiler (the class name predates the probe
    seam: a ``TeeSink`` used to do the fan-out the probe does now)."""

    def test_fans_out_and_closes_all(self, tmp_path):
        fh = io.StringIO()
        jsonl = JsonlSpanSink(fh)
        perfetto = PerfettoWriter(str(tmp_path / "t.json"))
        prof = SpanProfiler(sinks=[jsonl, perfetto])
        res = run_job(fib_job(8), n_workers=2, seed=1, profiler=prof)
        # One event stream reached both, and finalize closed both with
        # the summary.
        assert jsonl.events > prof.nodes
        assert perfetto.events > jsonl.events  # + the run slice, sweeps, names
        assert json.loads(fh.getvalue().splitlines()[-1]) == {
            "profile_summary": res.profile}
        with open(perfetto.path, encoding="utf-8") as f:
            doc = json.load(f)
        assert validate_perfetto(doc) == []
        assert doc["otherData"]["nodes"] == prof.nodes


def _tracks(doc, keep):
    """track name -> its ``(ph, name, ts)`` sequence, restricted to the
    events *keep* admits (an ``E`` goes with the ``B`` it closes)."""
    names = {(e["pid"], e["tid"]): e["args"]["name"]
             for e in doc["traceEvents"] if e.get("name") == "thread_name"}
    out, kept = {}, {}
    for e in doc["traceEvents"]:
        if e["ph"] not in "BEi":
            continue
        key = (e["pid"], e["tid"])
        if e["ph"] == "B":
            kept.setdefault(key, []).append(keep(e))
        if kept[key].pop() if e["ph"] == "E" else keep(e):
            out.setdefault(names[key], []).append(
                (e["ph"], e.get("name"), e["ts"]))
    return out


class TestLiveEqualsReplay:
    def test_live_document_restricted_to_traced_kinds_is_the_replay(self, tmp_path):
        """One translation: what ``profile --perfetto`` streams live and
        what ``to_perfetto`` replays from the same run's log are the
        same document wherever the log has the events."""
        writer = PerfettoWriter(str(tmp_path / "live.json"), job_name="fib")
        res = run_job(fib_job(16), n_workers=4, seed=5, trace=True,
                      profiler=SpanProfiler(sinks=[writer]))
        with open(writer.path, encoding="utf-8") as fh:
            live = json.load(fh)
        replay = to_perfetto(res.trace, job_name="fib")
        assert validate_perfetto(live) == validate_perfetto(replay) == []
        assert res.stats.tasks_stolen > 0  # the run has lifecycle instants

        def traced(e):
            # phase / exec intervals come from observer-only kinds
            return e["cat"] not in ("phase", "exec")
        assert all(k in TRACED for k in STREAM_KINDS[:STREAM_KINDS.index("worker.begin")])
        live_tracks = _tracks(live, traced)
        assert live_tracks == _tracks(replay, lambda e: True)
        assert {"ws00", "ws01", "ws02", "ws03", "clearinghouse", "run"} \
            <= set(live_tracks)
        # ... and the live one does carry what only it can see.
        assert any(e.get("cat") == "exec" for e in live["traceEvents"])
        assert not any(e.get("cat") == "exec" for e in replay["traceEvents"])


class TestIncidentJsonl:
    def _incidents(self):
        from repro.obs.health import Incident

        return [
            Incident(kind="steal-storm", severity="warn", t_start=0.5,
                     t_end=0.6, subject="ws01",
                     evidence=(("timeouts", 10), ("window_s", 0.25))),
            Incident(kind="stall", severity="crit", t_start=1.0, t_end=2.0,
                     subject="job", evidence=(("idle_s", 1.0),)),
        ]

    def test_round_trip(self, tmp_path):
        from repro.obs import iter_incidents_jsonl, write_incidents_jsonl

        path = str(tmp_path / "incidents.jsonl")
        incidents = self._incidents()
        assert write_incidents_jsonl(incidents, path) == 2
        assert list(iter_incidents_jsonl(path)) == incidents

    def test_lines_are_sorted_json_objects(self, tmp_path):
        from repro.obs import write_incidents_jsonl

        path = str(tmp_path / "incidents.jsonl")
        write_incidents_jsonl(self._incidents(), path)
        with open(path) as fh:
            lines = [line.rstrip("\n") for line in fh]
        assert len(lines) == 2
        for line in lines:
            obj = json.loads(line)
            assert json.dumps(obj, sort_keys=True) == line
            assert obj["kind"] in ("steal-storm", "stall")
