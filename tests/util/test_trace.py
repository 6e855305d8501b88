"""Tests for the structured trace log."""

import json

from repro.util.trace import TraceEvent, TraceLog, event_row


def test_emit_and_query():
    log = TraceLog()
    log.emit(1.0, "steal.request", "ws01", victim="ws02")
    log.emit(2.0, "steal.grant", "ws02", thief="ws01")
    log.emit(3.0, "steal.request", "ws03")
    assert log.count("steal.request") == 2
    assert len(log.events(kind="steal.grant")) == 1
    assert len(log.events(source="ws01")) == 1


def test_disabled_log_is_noop():
    log = TraceLog(enabled=False)
    log.emit(1.0, "x", "y")
    assert len(log) == 0


def test_capacity_drops_oldest():
    log = TraceLog(capacity=3)
    for i in range(5):
        log.emit(float(i), "k", "s", i=i)
    assert len(log) == 3
    assert log.dropped == 2
    assert [ev.detail["i"] for ev in log] == [2, 3, 4]


def test_truncated_flag_tracks_eviction():
    log = TraceLog(capacity=2)
    log.emit(0.0, "a", "s")
    log.emit(1.0, "b", "s")
    assert not log.truncated  # at capacity but nothing evicted yet
    log.emit(2.0, "c", "s")
    assert log.truncated
    assert log.dropped == 1


def test_unbounded_log_never_truncates():
    log = TraceLog()
    for i in range(1000):
        log.emit(float(i), "k", "s")
    assert not log.truncated
    assert log.dropped == 0


def test_dump_is_stable_and_ordered():
    """dump() is the determinism fingerprint: identical emissions must
    produce identical bytes, in emission order, detail keys sorted."""

    def build():
        log = TraceLog()
        log.emit(0.25, "steal.grant", "ws02", thief="ws01", cid=("ws02", 7))
        log.emit(0.5, "net.recv", "ws01", src="ws02", id=3)
        return log

    a, b = build().dump(), build().dump()
    assert a == b
    lines = a.splitlines()
    assert len(lines) == 2
    assert "steal.grant" in lines[0] and "net.recv" in lines[1]
    assert "cid=('ws02', 7) thief=ws01" in lines[0]  # sorted detail keys


def test_where_predicate():
    log = TraceLog()
    for i in range(10):
        log.emit(float(i), "tick", "src", i=i)
    evens = log.events(where=lambda ev: ev.detail["i"] % 2 == 0)
    assert len(evens) == 5


def test_kinds_fingerprint():
    log = TraceLog()
    log.emit(0, "a", "s")
    log.emit(1, "b", "s")
    log.emit(2, "a", "s")
    assert log.kinds() == [("a", 2), ("b", 1)]


def test_str_rendering():
    ev = TraceEvent(1.5, "net.send", "ws00", {"dst": "ws01"})
    s = str(ev)
    assert "net.send" in s and "ws00" in s and "dst=ws01" in s


def test_categories_filter_by_kind_prefix():
    log = TraceLog(categories=("steal.", "closure."))
    log.emit(0.0, "steal.request", "w1")
    log.emit(1.0, "net.send", "w1")      # filtered out
    log.emit(2.0, "closure.lost", "w1")
    log.emit(3.0, "worker.start", "w1")  # filtered out
    assert [ev.kind for ev in log] == ["steal.request", "closure.lost"]
    # Filtered events are *not* dropped events: nothing was evicted.
    assert log.dropped == 0
    assert not log.truncated


def test_categories_none_keeps_everything():
    log = TraceLog(categories=None)
    log.emit(0.0, "a", "s")
    log.emit(1.0, "b", "s")
    assert len(log) == 2


def test_categories_compose_with_capacity():
    # Capacity counts only events that pass the filter.
    log = TraceLog(capacity=2, categories=("keep.",))
    for i in range(5):
        log.emit(float(i), "keep.tick", "s", i=i)
        log.emit(float(i), "noise.tick", "s", i=i)
    assert [ev.detail["i"] for ev in log] == [3, 4]
    assert log.dropped == 3  # evicted keep.* events only


def test_categories_with_disabled_log():
    log = TraceLog(enabled=False, categories=("steal.",))
    log.emit(0.0, "steal.request", "w1")
    assert len(log) == 0


def test_trace_event_slots_and_equality():
    a = TraceEvent(1.0, "k", "s", {"x": 1})
    b = TraceEvent(1.0, "k", "s", {"x": 1})
    c = TraceEvent(1.0, "k", "s", {"x": 2})
    assert a == b
    assert a != c
    assert a != "not an event"
    try:
        a.extra = 1
        raised = False
    except AttributeError:
        raised = True
    assert raised


def test_handover_moves_the_record_and_leaves_the_log_empty():
    log = TraceLog(capacity=2, categories=("steal.",))
    record = log.recorder()
    for i in range(3):
        record(float(i), "steal.request", "ws01", {"i": i})
    taken = log.handover()
    assert (taken.capacity, taken.categories, taken.dropped) == (2, ("steal.",), 1)
    assert [ev.detail["i"] for ev in taken] == [1, 2]
    record(3.0, "steal.request", "ws01", {"i": 3})  # a late record stays behind
    assert len(taken) == 2 and len(log) == 1 and log.dropped == 0


def test_event_row_coerces_exotic_detail_values():
    class Thing:
        def __repr__(self):
            return "<thing>"

    row = json.loads(event_row(0.5, "k", "s", {"obj": Thing(), "nested": {"a": (1,)}}))
    assert row == {"t": 0.5, "kind": "k", "src": "s",
                   "detail": {"obj": "<thing>", "nested": {"a": [1]}}}
