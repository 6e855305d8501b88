"""Tests for the Chrome/Perfetto trace_event exporter."""

import json

from repro.apps.fib import fib_job
from repro.obs.export import to_perfetto, validate_perfetto, write_perfetto
from repro.obs.stream import CONTROL_PID, WORKERS_PID
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from tests.obs.emitting import emitter
from repro.phish import run_job
from repro.util.trace import TraceLog


def _run(n=18, workers=4, seed=1):
    # fib(18) at this seed steals several times yet stays well under the
    # trace capacity, so the export sees the complete history.
    reg = MetricsRegistry()
    res = run_job(fib_job(n), n_workers=workers, seed=seed, trace=True,
                  metrics=reg)
    assert not res.trace.truncated
    return res, reg


def test_export_validates_and_is_json(tmp_path):
    res, reg = _run()
    doc = write_perfetto(res.trace, str(tmp_path / "t.json"), reg,
                         job_name="fib")
    assert validate_perfetto(doc) == []
    # The written file is plain JSON and identical to the document.
    reloaded = json.loads((tmp_path / "t.json").read_text())
    assert reloaded == doc
    assert reloaded["otherData"]["job"] == "fib"


def test_export_has_one_track_per_worker():
    res, reg = _run(workers=4)
    doc = to_perfetto(res.trace, reg)
    thread_names = {
        ev["args"]["name"]
        for ev in doc["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "thread_name"
        and ev["pid"] == WORKERS_PID
    }
    assert thread_names == {"ws00", "ws01", "ws02", "ws03"}


def test_export_counter_tracks_for_depth_and_participants():
    res, reg = _run()
    doc = to_perfetto(res.trace, reg)
    counters = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "C"}
    assert "macro.participants" in counters
    assert any(name.startswith("deque depth ws") for name in counters)
    # Counter values ride in args.value (the format Perfetto plots).
    sample = next(ev for ev in doc["traceEvents"] if ev["ph"] == "C")
    assert "value" in sample["args"]


def test_export_instant_events_for_steals():
    res, reg = _run()
    assert res.stats.tasks_stolen > 0
    doc = to_perfetto(res.trace, reg)
    instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
    names = {ev["name"] for ev in instants}
    assert "steal.success" in names
    assert "ch.register" in names
    # Worker instants land on worker tracks, control ones on the CH track.
    steal = next(ev for ev in instants if ev["name"] == "steal.success")
    assert steal["pid"] == WORKERS_PID
    reg_ev = next(ev for ev in instants if ev["name"] == "ch.register")
    assert reg_ev["pid"] == CONTROL_PID


def test_export_crash_instant_from_synthetic_trace():
    trace = TraceLog()
    trace.emit(0.0, "worker.start", "ws00")
    trace.emit(0.5, "steal.request", "ws00", victim="ws01")
    trace.emit(2.0, "worker.exit.crashed", "ws00")
    doc = to_perfetto(trace)
    assert validate_perfetto(doc) == []
    events = doc["traceEvents"]
    crash = [ev for ev in events if ev.get("name") == "worker.exit.crashed"]
    assert len(crash) == 1 and crash[0]["ph"] == "i"
    # The participation span opens at the start and closes at the crash.
    span = [ev for ev in events if ev["ph"] in "BE" and ev["pid"] == WORKERS_PID]
    assert [(ev["ph"], ev["ts"]) for ev in span] == [("B", 0.0), ("E", 2.0 * 1e6)]
    assert span[0]["name"] == "participating"
    assert span[1]["args"] == {"exit": "crashed"}


def test_export_timestamps_monotonic_per_track():
    res, reg = _run()
    doc = to_perfetto(res.trace, reg)
    last = {}
    for ev in doc["traceEvents"]:
        if ev["ph"] == "M":
            continue
        key = (ev["pid"], ev.get("tid"))
        assert ev["ts"] >= last.get(key, 0.0)
        last[key] = ev["ts"]


def test_validate_rejects_malformed_documents():
    assert validate_perfetto([]) == ["document is not a JSON object"]
    assert validate_perfetto({}) == ["traceEvents missing or not a list"]
    bad = {"traceEvents": [{"ph": "X", "name": "n", "pid": 1, "tid": 1,
                            "ts": 5.0, "dur": -1.0}]}
    assert any("bad dur" in p for p in validate_perfetto(bad))
    unordered = {"traceEvents": [
        {"ph": "i", "s": "t", "name": "a", "pid": 1, "tid": 1, "ts": 5.0},
        {"ph": "i", "s": "t", "name": "b", "pid": 1, "tid": 1, "ts": 4.0},
    ]}
    assert any("monotonic" in p for p in validate_perfetto(unordered))


def _doc(events):
    return {"traceEvents": events}


def _b(name, ts, pid=1, tid=1):
    return {"ph": "B", "name": name, "pid": pid, "tid": tid, "ts": ts}


def _e(ts, pid=1, tid=1, name=None):
    ev = {"ph": "E", "pid": pid, "tid": tid, "ts": ts}
    if name is not None:
        ev["name"] = name
    return ev


def test_validate_accepts_nested_duration_pairs():
    doc = _doc([
        _b("participating", 0.0),
        _b("working", 1.0),
        _e(2.0),
        _b("stealing", 3.0),
        _e(4.0, name="stealing"),
        _e(5.0),
    ])
    assert validate_perfetto(doc) == []


def test_validate_rejects_end_without_begin():
    problems = validate_perfetto(_doc([_e(1.0)]))
    assert any("no open B" in p for p in problems)


def test_validate_rejects_mismatched_named_end():
    doc = _doc([_b("working", 0.0), _e(1.0, name="stealing")])
    problems = validate_perfetto(doc)
    assert any("'stealing'" in p and "'working'" in p for p in problems)


def test_validate_rejects_unclosed_begin():
    problems = validate_perfetto(_doc([_b("working", 0.0)]))
    assert problems == ["unclosed B 'working' on track (1, 1)"]


def test_validate_pairs_tracks_independently():
    # An E on a different (pid, tid) must not close another track's B.
    doc = _doc([_b("working", 0.0, tid=1), _e(1.0, tid=2)])
    problems = validate_perfetto(doc)
    assert any("no open B on track (1, 2)" in p for p in problems)
    assert any("unclosed B 'working' on track (1, 1)" in p for p in problems)


def test_validate_requires_b_and_e_keys():
    problems = validate_perfetto(_doc([{"ph": "B", "pid": 1, "tid": 1,
                                        "ts": 0.0}]))
    assert any("missing keys ['name']" in p for p in problems)
    problems = validate_perfetto(_doc([{"ph": "E", "pid": 1, "ts": 0.0}]))
    assert any("missing keys ['tid']" in p for p in problems)


def test_export_records_truncation_in_metadata():
    trace = TraceLog(capacity=4)
    for i in range(8):
        trace.emit(float(i), "steal.request", "ws00", victim="ws01")
    assert trace.truncated
    doc = to_perfetto(trace)
    assert doc["otherData"]["trace_truncated"] is True
    assert doc["otherData"]["trace_dropped"] == trace.dropped


def test_export_of_truncated_run_validates():
    # The ring kept only the tail: worker.start records are gone, so
    # exits close nothing and instants land on tracks with no span.
    res, _reg = _run()
    tail = TraceLog(capacity=300)
    for ev in res.trace:
        tail.emit(ev.time, ev.kind, ev.source, **ev.detail)
    assert tail.truncated and not tail.events(kind="worker.start")
    assert tail.events(kind="worker.exit.done")
    doc = to_perfetto(tail)
    assert validate_perfetto(doc) == []
    assert not any(ev.get("name") == "participating" for ev in doc["traceEvents"])
    assert any(ev["ph"] == "i" for ev in doc["traceEvents"])


def test_export_control_instants_after_the_last_worker_exit_validate():
    # A PhishSystem outlives its jobs: a submission after every worker
    # of the first job is gone is an instant past the last interval,
    # and must still fall inside the document's range.
    from repro.macro import PhishSystem, PhishSystemConfig

    system = PhishSystem(PhishSystemConfig(n_workstations=3, seed=0,
                                           trace=True, metrics=True))
    system.submit(fib_job(12), from_host="ws00")
    system.run_until_done(timeout_s=3600)
    system.sim.run(until=system.sim.now + 1.0)
    system.submit(fib_job(5), from_host="ws01")
    system.stop()
    exits = [ev.time for ev in system.trace
             if ev.kind.startswith("worker.exit.")]
    assert system.trace.events(kind="jobq.submit")[-1].time > max(exits)
    doc = to_perfetto(system.trace, system.metrics, "macro")
    assert validate_perfetto(doc) == []
    names = {ev.get("name") for ev in doc["traceEvents"]}
    assert {"jobq.submit", "jobq.grant", "jobq.done", "ch.result"} <= names


def test_export_untruncated_metadata_flag_false():
    trace = TraceLog()
    trace.emit(0.0, "worker.start", "ws00")
    doc = to_perfetto(trace)
    assert doc["otherData"]["trace_truncated"] is False
    assert doc["otherData"]["trace_dropped"] == 0


# ------------------------------------------------ instant range checking


def test_validate_rejects_instant_past_trace_end():
    doc = _doc([
        _b("working", 0.0), _e(10.0),
        {"ph": "i", "s": "t", "name": "stray", "pid": 1, "tid": 2,
         "ts": 99.0},
    ])
    problems = validate_perfetto(doc)
    assert any("outside trace range" in p for p in problems)


def test_validate_accepts_instant_inside_x_span():
    doc = _doc([
        {"ph": "X", "name": "participating", "pid": 1, "tid": 1,
         "ts": 0.0, "dur": 10.0},
        {"ph": "i", "s": "t", "name": "steal.request", "pid": 1, "tid": 1,
         "ts": 7.0},
    ])
    assert validate_perfetto(doc) == []


def test_validate_instants_unconstrained_without_other_events():
    # A doc of only instants (e.g. a bare incident stream) has no
    # substantive range to enforce.
    doc = _doc([{"ph": "i", "s": "p", "name": "a", "pid": 1, "tid": 1,
                 "ts": 5.0}])
    assert validate_perfetto(doc) == []


def test_validate_rejects_bad_instant_scope():
    doc = _doc([{"ph": "i", "s": "z", "name": "a", "pid": 1, "tid": 1,
                 "ts": 0.0}])
    assert any("bad instant scope" in p for p in validate_perfetto(doc))


# ------------------------------------------------------- health instants


def test_export_health_incidents_on_worker_tracks():
    from repro.obs.health import HealthMonitor

    reg = MetricsRegistry()
    monitor = HealthMonitor(reg)
    trace = TraceLog()
    emit = emitter(Probe.for_run(trace, reg))
    emit(0.0, "worker.start", "ws00")
    emit(0.0, "worker.start", "ws01")
    for i in range(10):
        emit(1.0 + i * 0.01, "steal.timeout", "ws01", victim="ws00")
    emit(2.0, "worker.exit.retired", "ws00")
    emit(2.0, "worker.exit.retired", "ws01")
    monitor.job_sojourn(1.5, 7, sojourn_s=1.4, slo_s=0.5)
    doc = to_perfetto(trace, reg, "diag")
    assert validate_perfetto(doc) == []
    health = [e for e in doc["traceEvents"] if e.get("cat") == "health"]
    by_name = {e["name"]: e for e in health}
    # Worker-scoped incident rides the worker's track under WORKERS_PID…
    storm = by_name["health.steal-storm"]
    assert storm["pid"] == WORKERS_PID and storm["s"] == "t"
    assert storm["args"]["severity"] == "warn"
    # …while job-scoped incidents go to the dedicated health track.
    breach = by_name["health.slo-breach"]
    assert breach["pid"] == CONTROL_PID and breach["s"] == "p"
    names = [e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"]
    assert "health" in names


def test_export_clamps_late_incident_into_range():
    from repro.obs.health import HealthMonitor

    reg = MetricsRegistry()
    monitor = HealthMonitor(reg)
    trace = TraceLog()
    trace.emit(0.0, "worker.start", "ws00")
    trace.emit(1.0, "worker.exit.retired", "ws00")
    # Past the last trace event (so not through a probe the log is on).
    monitor.death(5.0, "ch.worker_died", "ws00",
                  {"worker": "ws00", "last_seen": 4.0})
    doc = to_perfetto(trace, reg, "diag")
    assert validate_perfetto(doc) == []
