"""The probe seam: one vocabulary, declared once, spoken everywhere.

The catalogue test holds three things equal — the kinds the five
component files emit (AST scan), the kinds ``repro.obs.probe``
declares, and the kinds table in ``docs/observability.md`` — and keeps
the four pre-seam observer channels from growing back.  The budget test
counts what one observed task costs in Python calls, which no machine's
speed can move.
"""

import ast
import os
import re
import sys
from pathlib import Path

import pytest

from repro.apps.fib import fib_job, fib_serial
from repro.check import Perturbation, run_checked
from repro.cluster.platform import SPARCSTATION_1
from repro.errors import ReproError
from repro.macro.system import PhishSystem, PhishSystemConfig
from repro.macro.traffic import TrafficConfig, TrafficSystem
from repro.micro import protocol as P
from repro.micro.worker import Worker
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import OBSERVER_ONLY, TRACED, Probe
from repro.obs.prof import SpanProfiler
from repro.phish import build_cluster, run_job
from repro.sim.core import Simulator
from repro.util.rng import RngRegistry
from repro.util.trace import TraceLog
from tests.obs.emitting import emitter

ROOT = Path(__file__).resolve().parents[2]
COMPONENTS = [ROOT / "src" / "repro" / rel for rel in (
    "micro/worker.py", "net/network.py", "clearinghouse/clearinghouse.py",
    "macro/jobq.py", "macro/jobmanager.py", "micro/initiation.py")]

#: Worker message tags handled without an emit, and why that is enough.
UNPROBED = (
    ("GRANT_ACK", "only disarms a reclaim timer; the grant (steal.grant) and "
                  "any reclaim (steal.reclaim) are probed"),
    ("ARG_ACK", "only clears a retransmit entry; the fill (join.fill) and "
                "each retransmission (arg.retry) are probed"),
    ("LOAD", "push-mode load gossip; the migrations it drives are probed "
             "at the receiver (migrate.in)"),
    ("PAUSE", "checkpoint stop-the-world flag; fault/checkpoint.py owns it"),
    ("RESUME", "checkpoint stop-the-world flag; fault/checkpoint.py owns it"),
    ("SNAPSHOT_REQ", "checkpoint read of worker state; changes nothing"),
    ("JOB_DONE", "sets the done flags; the Clearinghouse probes ch.result "
                 "and the exit is worker.exit.done"),
    ("PEER_UPDATE", "replaces the peer list; the Clearinghouse probes "
                    "ch.peer_update with the same list"),
)


def _kind_literals(node, scope):
    """The kind(s) a site's lookup key / kind argument can evaluate to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _kind_literals(node.body, scope) | _kind_literals(node.orelse, scope)
    if isinstance(node, ast.JoinedStr):  # f"worker.exit.{reason}"
        head = node.values[0]
        assert isinstance(head, ast.Constant) and head.value.endswith(".")
        return {head.value + "*"}
    if isinstance(node, ast.Name):  # kind = "a" if ... else "b", once, above
        (value,) = [n.value for n in ast.walk(scope) if isinstance(n, ast.Assign)
                    and ast.unparse(n.targets[0]) == node.id]
        return _kind_literals(value, scope)
    raise AssertionError(f"probe kind is not a literal: {ast.dump(node)}")


def _on_a_probe(call, attr):
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == attr and "probe" in ast.unparse(call.func.value))


def _emitted_kinds(tree, keys=None):
    """Kinds of every ``probe.get(kind)`` lookup and ``probe.bind`` in
    *tree* — after checking the one call shape: the looked-up callable is
    named ``on`` / ``charged_on`` and called as ``(t, kind, source,
    {dict literal})`` with the kind it was looked up under.  *keys*, when
    given, collects kind -> each such call's dict keys (``**`` a splat)."""
    kinds = set()
    scopes = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)] or [tree]
    for scope in scopes:
        looked_up = set()
        for node in ast.walk(scope):
            if _on_a_probe(node, "get"):
                looked_up |= _kind_literals(node.args[0], scope)
            elif _on_a_probe(node, "bind"):
                kinds |= _kind_literals(node.args[1], scope)
                assert isinstance(node.args[3], ast.Dict)
            assert not _on_a_probe(node, "emit"), ast.unparse(node)
        said = set()
        for node in ast.walk(scope):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("on", "charged_on")):
                site = _kind_literals(node.args[1], scope)
                said |= site
                assert isinstance(node.args[3], ast.Dict), ast.unparse(node)
                for kind in site if keys is not None else ():
                    keys.setdefault(kind, set()).add(tuple(
                        "**" if k is None else k.value for k in node.args[3].keys))
        assert said == looked_up, (getattr(scope, "name", "?"), said, looked_up)
        kinds |= looked_up
    return kinds


def test_catalogue_equals_the_emit_sites_equals_the_docs_table():
    declared = set(TRACED) | set(OBSERVER_ONLY)
    assert not set(TRACED) & set(OBSERVER_ONLY)

    emitted, said = set(), {}
    for path in COMPONENTS:
        emitted |= _emitted_kinds(ast.parse(path.read_text()), said)
    assert emitted == declared

    rows = re.findall(r"^\| `([a-z_.*]+)` \| (log|whole|—) \|([^|]*)\|([^|]*)\|[^|]*\|$",
                      (ROOT / "docs" / "observability.md").read_text(), re.M)
    assert {kind for kind, *_ in rows} == declared
    assert {kind for kind, log, *_ in rows if log != "—"} == set(TRACED)
    # The record schema.  A traced kind's docs detail is its kept fields
    # in TRACED order, then its italic observer-only fields, and every
    # site's dict literal says exactly those keys in that order.  A kind
    # kept whole is None in TRACED and `whole` in the docs; its sites say
    # the plain fields, and a splat for the bracketed optional ones.
    for kind, log, _source, detail in rows:
        if log == "—":
            continue
        kept = tuple(re.findall(r"(?<!\*)\b(\w+)\b(?!\*)", re.sub(r"\[.*\]", "", detail)))
        italic = tuple(re.findall(r"\*(\w+)\*", detail))
        assert (log == "whole") == (TRACED[kind] is None), kind
        assert TRACED[kind] in (None, kept), kind
        optional = ("**",) if "[" in detail else ()
        assert said[kind] == {kept + italic + optional}, kind


def test_the_four_old_channels_do_not_grow_back():
    guards = 0
    for path in COMPONENTS:
        text = path.read_text()
        for gone in ("_m_", "_prof", "_health", "attach_metrics",
                     "attach_profiler", "on_drop", ".trace.emit",
                     "per_task", "_suspended_at"):
            assert gone not in text, f"{gone!r} is back in {path.name}"
        # The only observer guard is on the probe...
        assert not re.search(r"\b(trace|metrics|profiler) is (not )?None", text)
        guards += len(re.findall(r"\b_?probe is (not )?None", text))
    assert guards <= 71  # ...and there were 123 guards before the seam.


def _emits(cls, name, seen=None):
    """Does Worker method *name* reach a probe emit (through self.* calls)?"""
    seen = set() if seen is None else seen
    if name in seen or name not in cls:
        return False
    seen.add(name)
    body = cls[name]
    if _emitted_kinds(body):
        return True
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "self"
        and _emits(cls, n.func.attr, seen)
        for n in ast.walk(body))


def test_every_message_tag_is_probed_or_listed_unprobed():
    tree = ast.parse(COMPONENTS[0].read_text())
    worker = next(n for n in tree.body
                  if isinstance(n, ast.ClassDef) and n.name == "Worker")
    methods = {n.name: n for n in worker.body if isinstance(n, ast.FunctionDef)}
    # The net loop dispatches on the schema table: one lookup, one getattr.
    assert "P.HANDLERS" in ast.unparse(methods["_net"])
    assert "tag ==" not in ast.unparse(methods["_net"]).replace(
        "tag == P.JOB_DONE", "")
    handled = {tag: entry.handler for tag, entry in P.SCHEMA.items()
               if entry.handler}
    assert len(handled) >= 14
    assert {tag: (h, P.SCHEMA[tag].replies) for tag, h in handled.items()} \
        == P.HANDLERS
    for tag, handler in handled.items():
        assert handler in methods and callable(getattr(Worker, handler)), tag
    silent = {tag.upper() for tag, handler in handled.items()
              if not _emits(methods, handler)}
    assert silent == {tag for tag, _why in UNPROBED}
    assert all(why for _tag, why in UNPROBED)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def test_log_first_then_subscription_order_and_the_exit_family():
    log = TraceLog()
    probe = Probe.for_run(trace=log)
    seen = []
    probe.subscribe({"worker.exit.*": lambda t, k, s, d: seen.append((len(log), k)),
                     "net.send": lambda t, k, s, d: seen.append((len(log), d["size"]))})
    emit = emitter(probe)
    emit(1.0, "worker.exit.retired", "ws01", deque=0)
    emit(2.0, "net.send", "ws00", dst="ws01", port=7, id=1, size=64)
    emit(3.0, "task.done", "ws00", cid=1)  # nobody reads it: not in the table
    # Each handler ran after the log had its record; the observer-only
    # field reached the handler and not the log.
    assert seen == [(1, "worker.exit.retired"), (2, 64)]
    assert [(e.kind, e.detail) for e in log] == [
        ("worker.exit.retired", {"deque": 0}),
        ("net.send", {"dst": "ws01", "port": 7, "id": 1}),
    ]
    assert "task.done" not in probe
    with pytest.raises(ReproError, match="unknown probe kind"):
        probe.subscribe({"closure.nwe": print})


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_a_kind_compiles_to_one_callable_reaching_subscribers_in_order(n):
    probe, seen = Probe(), []
    handlers = [lambda t, k, s, d, i=i: seen.append((i, t, k, s, d)) for i in range(n)]
    for fn in handlers:
        probe.subscribe({"redo": fn})
    if n == 1:
        assert probe["redo"] is handlers[0]  # the lone subscriber itself
    detail = {"n": 1}
    probe["redo"](0.5, "redo", "ws00", detail)
    assert seen == [(i, 0.5, "redo", "ws00", detail) for i in range(n)]
    assert all(row[4] is detail for row in seen)  # one dict, shared


def test_a_probe_holds_only_the_kinds_its_observers_read():
    """What nobody reads is not in the table, so its site builds nothing."""
    log_only = Probe.for_run(trace=TraceLog())
    assert set(log_only) == set(TRACED)
    registry_only = Probe.for_run(metrics=MetricsRegistry())
    assert not {"arg.send", "task.charged", "closure.new", "closure.exec"} & set(registry_only)
    assert {"task.done", "deque.depth", "join.fill"} <= set(registry_only)
    profiler_only = Probe.for_run(profiler=SpanProfiler())
    assert not {"deque.depth", "join.fill", "closure.suspend"} & set(profiler_only)
    assert {"task.done", "task.charged", "arg.send"} <= set(profiler_only)


def _obs_calls_per(unit, **observers):
    """Python calls into ``repro/obs/`` and ``repro/util/trace.py`` made
    by a fib(16) P=4 run, per task executed / per record written."""
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call":
            path = frame.f_code.co_filename.replace(os.sep, "/")
            if "/repro/obs/" in path or path.endswith("/repro/util/trace.py"):
                calls += 1

    sys.setprofile(count)
    try:
        res = run_job(fib_job(16), n_workers=4, seed=1, **observers)
    finally:
        sys.setprofile(None)
    assert res.result == fib_serial(16)
    if unit == "task":
        return calls / sum(w.stats.tasks_executed for w in res.workers)
    return calls / (len(res.trace) + res.trace.dropped)


def test_dispatch_budget_in_python_calls():
    """A count, not a timing: the same on every machine.

    Before the table was compiled (``Probe.emit(t, kind, source,
    **detail)`` looping over subscribers) this run cost 31.12 observer
    calls per task with every observer on (6.68 emits, each a call, ahead
    of the handlers) and 3.23 per record in a log-only run (emit,
    ``TraceLog.record``, ``TraceEvent.__init__``, and a stripping copy on
    ``join.fill``).  Now a lone subscriber is called by the site itself.
    """
    registry = MetricsRegistry()
    HealthMonitor(registry)
    per_task = _obs_calls_per("task", trace=True, metrics=registry,
                              profiler=SpanProfiler())
    assert per_task <= 0.70 * 31.12
    # One call per record: TraceLog.record.  The margin is set-up (a few
    # dozen calls) and the stripped net.* kinds (two calls, ~10 records).
    assert _obs_calls_per("record", trace=True) < 1.01


def test_drop_accounting_lands_directly_after_the_drops_own_record():
    """fib partition seed 27 loses a steal grant to a down host and a
    migration batch to a severed link; the checker's subscriber accounts
    each inside the same dispatch, right behind the log's record."""
    run = run_checked(fib_job(14), n_workers=4, seed=27,
                      perturbation=Perturbation.generate(27, 4, scenario="partition"),
                      expected=fib_serial(14))
    run.require_ok()
    events = list(run.trace)
    pairs = [(events[i - 1], ev) for i, ev in enumerate(events)
             if ev.kind == "closure.lost" and ev.detail["reason"].startswith("net-")]
    assert sorted((drop.kind, lost.detail["reason"]) for drop, lost in pairs) == [
        ("net.drop.down", "net-down"), ("net.partition", "net-partition")]
    assert all(drop.time == lost.time and "msg" not in drop.detail
               for drop, lost in pairs)


def test_no_observer_means_no_probe():
    assert Probe.for_run() is None
    res = run_job(fib_job(10), n_workers=2, seed=1)
    assert res.network._probe is None and res.clearinghouse._probe is None
    assert all(w._probe is None for w in res.workers)


# ---------------------------------------------------------------------------
# The silent late attach is an error now
# ---------------------------------------------------------------------------


def _hand_built(registry):
    sim = Simulator()
    build_cluster(sim, 2, SPARCSTATION_1, RngRegistry(1),
                  probe=Probe.for_run(metrics=registry))


LATE = {
    "run_job": lambda reg: run_job(fib_job(8), n_workers=2, metrics=reg),
    "hand-built cluster": _hand_built,
    "TrafficSystem": lambda reg: TrafficSystem(TrafficConfig(n_jobs=1), metrics=reg),
}


@pytest.mark.parametrize("built", LATE)
def test_monitor_constructed_after_the_run_was_built_is_refused(built):
    registry = MetricsRegistry()
    LATE[built](registry)
    with pytest.raises(ReproError, match="construct the monitor before the run"):
        HealthMonitor(registry)


def test_monitor_on_a_phish_systems_own_registry_is_refused():
    system = PhishSystem(PhishSystemConfig(n_workstations=2, metrics=True))
    with pytest.raises(ReproError, match="construct the monitor before the run"):
        HealthMonitor(system.metrics)
    system.stop()


def test_subscribing_to_a_bound_probe_is_refused():
    log = TraceLog()
    probe = Probe.for_run(trace=log)
    build_cluster(Simulator(), 2, SPARCSTATION_1, RngRegistry(1), probe=probe)
    with pytest.raises(ReproError, match="construct the monitor before the run"):
        probe.subscribe({"steal.success": print})


def test_monitor_constructed_first_sees_the_run():
    registry = MetricsRegistry()
    monitor = HealthMonitor(registry)
    res = run_job(fib_job(10), n_workers=2, seed=1, metrics=registry)
    assert res.result == fib_serial(10)
    assert monitor._last_progress is not None  # task.done reached it
