"""The task fast path is a host-only optimisation: every ``sim`` number
is pinned here from the commit *before* the flat dispatch path landed.

Each pin is ``(result, repr(makespan), sim.events_processed,
network.counters.sent, per-worker max_tasks_in_use, sha256 of the
TraceLog dump)``.  The three hazards a rewrite of the per-task path can
trip are all visible in it: the float accumulation order of
``frame.cycles`` (makespan repr), the non-monotone ``max_tasks_in_use``
high-water mark in ``central`` mode, and trace-event / rng draw order
(the trace digest).

To re-pin after a *deliberate* behaviour change:
``PYTHONPATH=src python tests/micro/test_fastpath_identity.py``.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.apps.fib import fib_job, fib_serial
from repro.apps.knary import knary_job
from repro.check import Perturbation, run_checked
from repro.check.harness import CHECK_WORKER, RESILIENT_TIMEOUTS
from repro.clearinghouse.clearinghouse import Clearinghouse
from repro.cluster.platform import SPARCSTATION_1
from repro.cluster.workstation import Workstation
from repro.errors import ClosureError, ReproError, SchedulerError
from repro.micro.steal import RandomVictim
from repro.micro.worker import Worker, WorkerConfig
from repro.obs import SpanProfiler, validate_perfetto
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.obs.stream import STREAM_KINDS, PerfettoWriter
from repro.phish import build_cluster, run_job
from repro.sim.core import Simulator
from repro.tasks.closure import Closure, Continuation
from repro.tasks.program import JobProgram, ThreadProgram
from repro.util.rng import RngRegistry

APPS = {"fib16": lambda: fib_job(16), "knary432": lambda: knary_job(4, 3, 2)}

#: "plain" is the paper protocol (no completed-set tracking); "resilient"
#: adds grant acks, argument retransmission and track_completed — the
#: configuration every partition/spike fuzz schedule runs under.  The
#: push knobs are scaled to the millisecond jobs so ``push`` mode really
#: exports tasks (they are inert in the other two modes).
_PUSH = dict(push_threshold=2, load_broadcast_s=0.002)
CONFIGS = {
    "plain": WorkerConfig(startup_cost_s=0.01, steal_timeout_s=0.02,
                          steal_backoff_s=0.002, **_PUSH),
    "resilient": dataclasses.replace(CHECK_WORKER, **RESILIENT_TIMEOUTS, **_PUSH),
}

CASES = [
    (app, p, mode, cfg)
    for app in APPS
    for p in (4, 8)
    for mode in ("steal", "central", "push")
    for cfg in CONFIGS
]


def fingerprint(app, p, mode, cfg):
    config = dataclasses.replace(CONFIGS[cfg], mode=mode)
    res = run_job(APPS[app](), n_workers=p, seed=5, worker_config=config,
                  start_jitter_s=0.002, trace=True)
    assert res.trace.dropped == 0
    return (
        res.result,
        repr(res.makespan),
        res.sim.events_processed,
        res.network.counters.sent,
        tuple(w.stats.max_tasks_in_use for w in res.workers),
        hashlib.sha256(res.trace.dump().encode()).hexdigest(),
    )


PINS = {
    ('fib16', 4, 'steal', 'plain'): (
        987, '0.03632493831152707', 5090, 66,
        (18, 16, 14, 17),
        '1fcc2f18b2875402db7674020b93cbc7c5fa6466c6942d193ac5f7f5a0724610'),
    ('fib16', 4, 'steal', 'resilient'): (
        987, '0.03632493831152707', 5138, 74,
        (18, 16, 14, 17),
        'b0377a9ca8adb9c482ba85c6f6ad48fba408a10839f3457f570dd67794f81000'),
    ('fib16', 4, 'central', 'plain'): (
        987, '0.09414903999999742', 5862, 364,
        (33, 9, 10, 9),
        '435d7590110d34814164a509b0f46a95978564775de5cf02833a6f73969560bf'),
    ('fib16', 4, 'central', 'resilient'): (
        987, '0.09414903999999742', 6236, 464,
        (33, 9, 10, 9),
        'f2a49e87a5415dbab588f0373cf0cb403b731fea23b1645c8d07f8b132514943'),
    ('fib16', 4, 'push', 'plain'): (
        987, '0.1641048799999997', 9354, 1921,
        (36, 39, 36, 32),
        'a0ae3bfb0b33b42fe5557fa7ea90a1584a4df835f2900427cee55e11f7342a4f'),
    ('fib16', 4, 'push', 'resilient'): (
        987, '0.1641048799999997', 9740, 2098,
        (36, 39, 36, 32),
        '24b2a99f2dcc7457b9bd1adc1dc2af41c5e23b62c48d6512c294524b121ee4dc'),
    ('fib16', 8, 'steal', 'plain'): (
        987, '0.03734111498373956', 5458, 160,
        (18, 13, 0, 16, 15, 0, 0, 17),
        'e7974b8b3b2f9e0bfb57a3befc0c829a682eaa27dbb1aaa6d9e7c32862cb7f92'),
    ('fib16', 8, 'steal', 'resilient'): (
        987, '0.03734111498373956', 5545, 176,
        (18, 13, 0, 16, 15, 0, 0, 17),
        'e6a9b3fc296b6069dbff1481186b05a50660529a8e69bc9815dd66855340cca6'),
    ('fib16', 8, 'central', 'plain'): (
        987, '0.13785519498373958', 6797, 659,
        (28, 5, 6, 8, 7, 7, 7, 6),
        'e37fab59a5814f55b2ba5506cd89681feb6a3747e0096e2e5fe6ad2b744a3706'),
    ('fib16', 8, 'central', 'resilient'): (
        987, '0.13785519498373958', 7399, 827,
        (28, 5, 6, 8, 7, 7, 7, 6),
        '8c9f024a7db95f92623dc7c2d8b4d21c6e16ce73bd6c396cbe7d284d1255d04f'),
    ('fib16', 8, 'push', 'plain'): (
        987, '0.2252176000000008', 24402, 8839,
        (43, 33, 41, 40, 43, 33, 27, 30),
        'e9eb8f748be99c7957e3b7a0364569945c59295727ddc7e7951722c95bcd5912'),
    ('fib16', 8, 'push', 'resilient'): (
        987, '0.2252176000000008', 25382, 9297,
        (43, 33, 41, 40, 43, 33, 27, 30),
        '64ec9cea9cd3a92bf131e384a066ae5d3c36e38581f75b6b15417520bdb7e31b'),
    ('knary432', 4, 'steal', 'plain'): (
        40, '0.0034307199999999965', 220, 17,
        (8, 0, 0, 0),
        '5faa05a3ced8c3bc6fd7c35470ba1f3abff43a38890f9d916fcc89831c5b07bd'),
    ('knary432', 4, 'steal', 'resilient'): (
        40, '0.0034307199999999965', 228, 17,
        (8, 0, 0, 0),
        '5faa05a3ced8c3bc6fd7c35470ba1f3abff43a38890f9d916fcc89831c5b07bd'),
    ('knary432', 4, 'central', 'plain'): (
        40, '0.0034307199999999965', 213, 15,
        (8, 0, 0, 0),
        '503e61bf1c1ba79ce5a24cac56427d169069f2f8cce35a1d116547938c63d429'),
    ('knary432', 4, 'central', 'resilient'): (
        40, '0.0034307199999999965', 221, 15,
        (8, 0, 0, 0),
        '503e61bf1c1ba79ce5a24cac56427d169069f2f8cce35a1d116547938c63d429'),
    ('knary432', 4, 'push', 'plain'): (
        40, '0.0034307199999999965', 237, 12,
        (8, 0, 0, 0),
        'fcc0d707575caa2f0d96de24238dac855a491b856f3cc54a148f2d3bb1f410dc'),
    ('knary432', 4, 'push', 'resilient'): (
        40, '0.0034307199999999965', 245, 12,
        (8, 0, 0, 0),
        'fcc0d707575caa2f0d96de24238dac855a491b856f3cc54a148f2d3bb1f410dc'),
    ('knary432', 8, 'steal', 'plain'): (
        40, '0.0034307199999999965', 272, 25,
        (8, 0, 0, 0, 0, 0, 0, 0),
        'd984a43c013d1a7cabd089feb36445bd6c687e0de2d68ccb3fd1aa4888fc6e42'),
    ('knary432', 8, 'steal', 'resilient'): (
        40, '0.0034307199999999965', 288, 25,
        (8, 0, 0, 0, 0, 0, 0, 0),
        'd984a43c013d1a7cabd089feb36445bd6c687e0de2d68ccb3fd1aa4888fc6e42'),
    ('knary432', 8, 'central', 'plain'): (
        40, '0.0034307199999999965', 265, 23,
        (8, 0, 0, 0, 0, 0, 0, 0),
        '85972ce0dcf6282233a0b19a1fcdaff9e09c6bf61b7011d15a7ed3d48f6ff2e2'),
    ('knary432', 8, 'central', 'resilient'): (
        40, '0.0034307199999999965', 281, 23,
        (8, 0, 0, 0, 0, 0, 0, 0),
        '85972ce0dcf6282233a0b19a1fcdaff9e09c6bf61b7011d15a7ed3d48f6ff2e2'),
    ('knary432', 8, 'push', 'plain'): (
        40, '0.0034307199999999965', 337, 21,
        (8, 0, 0, 0, 0, 0, 0, 0),
        'feabd6062bc2d1abfe62547c0e16cf49546f42fcec1af57f5bba2b4e4b88f756'),
    ('knary432', 8, 'push', 'resilient'): (
        40, '0.0034307199999999965', 353, 21,
        (8, 0, 0, 0, 0, 0, 0, 0),
        'feabd6062bc2d1abfe62547c0e16cf49546f42fcec1af57f5bba2b4e4b88f756'),
}


@pytest.mark.parametrize("app,p,mode,cfg", CASES,
                         ids=["-".join(map(str, c)) for c in CASES])
def test_sim_numbers_identical_to_pre_fastpath_commit(app, p, mode, cfg):
    assert fingerprint(app, p, mode, cfg) == PINS[(app, p, mode, cfg)]


# ---------------------------------------------------------------------------
# Every user-facing check survives on the worker's flat path
# ---------------------------------------------------------------------------


def _misuse_program(body):
    """root runs *body(frame, k, prog)* inside a real Worker task."""
    prog = ThreadProgram("misuse")

    @prog.thread
    def leaf(frame, k):
        frame.send(k, 1)

    @prog.thread
    def join2(frame, k, a, b):
        frame.send(k, a + b)

    @prog.thread
    def root(frame, k):
        body(frame, k, prog.threads)

    return JobProgram(prog, root)


MISUSES = {
    "spawn-arity": (SchedulerError,
                    lambda f, k, t: f.spawn(t["leaf"], k, "extra")),
    "spawn-by-name": (SchedulerError, lambda f, k, t: f.spawn("leaf", k)),
    "successor-over-arity": (
        SchedulerError, lambda f, k, t: f.successor(t["leaf"], k, 1, 2)),
    "successor-nothing-missing": (
        SchedulerError, lambda f, k, t: f.successor(t["leaf"], k)),
    "send-to-non-continuation": (
        SchedulerError, lambda f, k, t: f.send(("ws00", 1), 5)),
    "cont-on-filled-slot": (
        ClosureError, lambda f, k, t: f.successor(t["join2"], k).cont(0)),
    "send-to-out-of-range-slot": (
        ClosureError,
        lambda f, k, t: f.send(
            Continuation(f.successor(t["join2"], k).closure.cid, 7), 1)),
}


@pytest.mark.parametrize("name", MISUSES)
def test_misuse_raises_its_original_error_through_the_worker(name):
    error, body = MISUSES[name]
    with pytest.raises(error):
        run_job(_misuse_program(body), n_workers=1)


@pytest.fixture
def lone_worker(sim, network):
    ws = Workstation(sim, "wA", SPARCSTATION_1, network)
    worker = Worker(sim, ws, network, fib_job(5), "wA")
    sim.run(until=0.0)
    worker.stop()
    sim.run(until=0.1)
    return worker


def test_execute_refuses_a_closure_with_missing_arguments(lone_worker):
    waiting = Closure.born_waiting(("wA", 99), "fib_sum", [None], 2, 0)
    with pytest.raises(ClosureError, match="missing argument"):
        lone_worker._execute(waiting)


def test_execute_refuses_a_crashed_workstation(lone_worker):
    lone_worker.workstation.crash()
    ready = Closure(("wA", 99), "fib_task", [Continuation(("wA", 1), 0), 1])
    with pytest.raises(ReproError, match="crashed workstation"):
        lone_worker._execute(ready)


def test_born_waiting_agrees_with_the_checked_constructor():
    fast = Closure.born_waiting(("w", 1), "t", ("k", 5), 2, 3)
    slow = Closure(("w", 1), "t", ["k", 5, None, None], [2, 3], depth=3)
    assert repr(fast) == repr(slow)
    assert (fast.join_counter, fast.depth) == (slow.join_counter, slow.depth) == (2, 3)
    assert fast.try_fill(2, "x") == 1 and fast.try_fill(2, "y") == -1
    assert fast.args[2] == "x"  # the duplicate did not overwrite
    with pytest.raises(ClosureError):
        fast.fill(2, "again")


# ---------------------------------------------------------------------------
# The cached victim tuple
# ---------------------------------------------------------------------------


class _RecordingPolicy(RandomVictim):
    def __init__(self, rng):
        super().__init__(rng)
        self.offered = []

    def choose(self, victims):
        self.offered.append(victims)
        return super().choose(victims)


def test_peer_update_refreshes_the_victim_tuple(lone_worker):
    w = lone_worker
    policy = w.victim_policy = _RecordingPolicy(w.rng)
    w._on_peer_update(["wC", "wA", "wB"])
    assert w._victims == ("wB", "wC")  # sorted, self excluded
    w._on_peer_update(["wA", "wC"])
    assert w._victims == ("wC",)
    for _ in range(50):
        w._steal_begin()  # the request is sent: victim chosen
    assert all(offered is w._victims for offered in policy.offered)
    assert type(w._victims) is tuple  # a policy cannot append/sort/assign
    assert set(w._steal_open.values()) == {"wC"}  # wB never chosen again


def test_worker_death_drops_the_dead_victim_everywhere():
    """faults-only seed 31: ws02 crashes at 0.049 s holding stolen work;
    the Clearinghouse declares it dead and broadcasts the new peer list."""
    run = run_checked(fib_job(14), n_workers=4, seed=31,
                      perturbation=Perturbation.generate(
                          31, 4, scenario="faults-only"),
                      expected=fib_serial(14))
    run.require_ok()
    (died,) = [e for e in run.trace.events() if e.kind == "ch.worker_died"]
    assert died.detail["worker"] == "ws02"
    requests = [e for e in run.trace.events() if e.kind == "steal.request"]
    # Before the announcement thieves still (rightly) try the dead host...
    assert any(e.detail["victim"] == "ws02" and 0.049 < e.time < died.time
               for e in requests)
    # ...afterwards (one peer-update delivery later) nobody does.
    late = [e for e in requests if e.time > died.time + 0.01]
    assert late and all(e.detail["victim"] != "ws02" for e in late)
    for w in run.workers:
        if w.name != "ws02":
            assert "ws02" not in w._victims
            assert w._victims == tuple(sorted(set(w.peers) - {w.name}))


# ---------------------------------------------------------------------------
# Observers never perturb: there is one dispatch path, observed or not
# ---------------------------------------------------------------------------


CHANNELS = ["trace", "metrics", "metrics+health", "profiler", "all"]


def _observers(channel):
    """(registry, monitor, profiler) for one observer subset."""
    reg = mon = prof = None
    if channel in ("metrics", "metrics+health", "all"):
        reg = MetricsRegistry()
    if channel in ("metrics+health", "all"):
        mon = HealthMonitor(reg)
    if channel in ("profiler", "all"):
        prof = SpanProfiler()
    return reg, mon, prof


def _observed(channel):
    reg, _mon, prof = _observers(channel)
    res = run_job(fib_job(16), n_workers=4, seed=5, metrics=reg, profiler=prof,
                  trace=channel in ("trace", "all"))
    return (res.result, repr(res.makespan), res.sim.events_processed,
            res.network.counters.sent, res.stats.tasks_executed,
            tuple(w.stats.max_tasks_in_use for w in res.workers))


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _outputs(reg, mon, prof, trace):
    """sha256 of every observer's output; None for an absent observer."""
    return {
        "metrics": None if reg is None else _sha(reg.snapshot()),
        "profile": None if prof is None else _sha(prof.summary()),
        "incidents": (None if mon is None
                      else _sha([i.row() for i in mon.incidents])),
        "trace": hashlib.sha256(trace.dump().encode()).hexdigest(),
    }


OBSERVED_JOBS = {"fib16-p4": (lambda: fib_job(16), 4),
                 "knary653-p8": (lambda: knary_job(6, 5, 3), 8)}

#: What each observer reported on the commit *before* the probe seam
#: (four separately wired channels), seed 1, every observer on; the
#: "metrics" entry is the registry's snapshot when no HealthMonitor
#: (whose incident ring rides the snapshot) is attached.  "profile" is
#: that summary without the ``kernel`` block (dropped with the kernel's
#: monitor hook; every other entry unchanged).
OBSERVER_PINS = {
    "fib16-p4": {
        "result": 987,
        "metrics": "4e9c3ed1e88a346f47c588683089e02842b2ad57f4a2ae22c5a01e00cde912bf",
        "metrics+health":
            "5c007b444758d94985314e4fd8720e5cbad2e2adf8a8e50abaee89b85852b9ac",
        "profile": "ab17d03cbed49fb38e030dc0277b97881081606671ddf5b41f4b28f3ea55e75a",
        "incidents": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "8da9792543f1c1836574c05a48e96198eed12bdec676ad1fbfa73548b6bf5d9f",
    },
    "knary653-p8": {
        "result": 3906,
        "metrics": "6dfa59594cbd7d671f49b51703f7c912268505b8b81905528fa4d7e0537521d8",
        "metrics+health":
            "03053ed36f7d060435cafd0bacfd82cdaed0eede1bd488a88f7972eb806f4cec",
        "profile": "77880ce310bf8a56fe4ded7dfd18a3ea7b886c28e9548b285377dc09005f44cc",
        "incidents": "7646db2877cf2f6df403080614636f18bf5da0e0626d7a2ab67366bd305f9a79",
        "trace": "2fb867bb45103c7b2d123ce896bf922d38e9e70a0f11746bbe6a0e9522a241c7",
    },
    # run_checked(fib(14), P=4, seed 2, --scenario spike) with a
    # HealthMonitor: a steal storm behind the congestion spike.
    "spike-seed2": {
        "result": 377,
        "metrics+health":
            "ea9ca59c8d471f6c0d53ac835ac19b9d6bd46fa52adada1b1a0eea9c2313c41b",
        "incidents": "c130f36f6e1bba7ef9dceda1073ddd24db763c93fd35ddc4159bb40eb7d431a2",
        "trace": "79ccdd317e7c9cbd018dea0e3f3158c167ca71ba3e728519c27ba606cfa6be91",
    },
}


def _observer_outputs(case, channel):
    reg, mon, prof = _observers(channel)
    if case == "spike-seed2":
        run = run_checked(fib_job(14), n_workers=4, seed=2, metrics=reg,
                          perturbation=Perturbation.generate(2, 4, scenario="spike"),
                          expected=fib_serial(14))
        run.require_ok()
    else:
        make, p = OBSERVED_JOBS[case]
        run = run_job(make(), n_workers=p, seed=1, trace=True, metrics=reg,
                      profiler=prof)
    out = _outputs(reg, mon, prof, run.trace)
    if mon is not None:
        out["metrics+health"] = out.pop("metrics")
    return dict(out, result=run.result)


@pytest.fixture(scope="module")
def plain_run():
    return _observed("plain")


@pytest.mark.parametrize("channel", CHANNELS)
def test_observed_run_equals_the_plain_run(channel, plain_run):
    assert _observed(channel) == plain_run
    # ...and on top of the same simulation, each observer of the subset
    # reports exactly what it reported before the seam, next to a
    # byte-identical TraceLog.
    for case, pins in OBSERVER_PINS.items():
        if case == "spike-seed2" and channel not in ("trace", "metrics+health"):
            continue  # run_checked takes the log and a registry only
        for name, digest in _observer_outputs(case, channel).items():
            if digest is not None:
                assert digest == pins[name], (case, channel, name)


#: run_checked(shrink, P=4, seed 12, --scenario mixed) on the commit before
#: the probe became a compiled table: a reclaim with a migration out, a
#: crash with its redo and a lost closure, clean.  Single-observer
#: subsets beside the log: what the other observer would read is never
#: built, and what this one reads must not notice.  "profile" is without
#: the (empty) ``kernel`` block the profiler no longer reports.
CHURN_PINS = {
    "trace": "1c5e11a5af449870132384c2e8121334628ce3c6e07b810caf2bef0a9dc088d5",
    "metrics": "cf75481381c891ac6f17d4de84baf37a82b4777c9ca454ad6cde029c142b0721",
    "profile": "c27dc281def076ffb2702045c30a399746ab26d8992b6be95411003982fcc6c9",
}


@pytest.mark.parametrize("channel", ["metrics", "profiler"])
def test_single_observer_subsets_stay_pinned_on_the_churn_path(channel, monkeypatch):
    from repro.check.fuzzer import APPS as FUZZ_APPS

    reg, _mon, prof = _observers(channel)
    if prof is not None:
        # run_checked takes the log and a registry only; hand its probe
        # the profiler where it builds one.
        for_run = Probe.for_run.__func__
        monkeypatch.setattr(Probe, "for_run", classmethod(
            lambda cls, trace=None, metrics=None, profiler=None:
            for_run(cls, trace, metrics, prof)))
    spec = FUZZ_APPS["shrink"]
    run = run_checked(spec.make(), n_workers=4, seed=12, metrics=reg,
                      perturbation=Perturbation.generate(12, 4, scenario="mixed"),
                      expected=spec.expected, worker_config=spec.worker_config)
    run.require_ok()
    assert {"migrate.out", "redo", "closure.lost"} <= {k for k, _n in run.trace.kinds()}
    probe = run.workers[0]._probe
    assert ("deque.depth" in probe, "task.charged" in probe) == (
        reg is not None, prof is not None)
    if prof is not None:
        prof.finalize(run.sim.now)
    for name, digest in _outputs(reg, None, prof, run.trace).items():
        if digest is not None:
            assert digest == CHURN_PINS[name], (channel, name)


class _ListSink(list):
    """The stream as ``(t, kind, source, detail)`` tuples."""

    def subscribe(self, probe):
        probe.subscribe(dict.fromkeys(
            STREAM_KINDS, lambda *event: self.append(event)))

    def close(self, summary=None):
        pass


def test_crash_mid_task_still_closes_the_profilers_working_interval(tmp_path):
    """A crash Interrupt lands in the cycle-charging yield of the run
    loop; the task's ``task.done`` / ``task.charged`` pair (the exec B/E
    of the stream, the profiler's working interval) must close there,
    before the participation span ends."""
    rows = _ListSink()
    path = str(tmp_path / "trace.json")
    prof = SpanProfiler(sinks=[rows, PerfettoWriter(path)])
    sim = Simulator()
    reg = RngRegistry(5)
    job = fib_job(16)
    probe = Probe.for_run(profiler=prof)
    network, hosts = build_cluster(sim, 2, SPARCSTATION_1, reg, probe=probe)
    ch = Clearinghouse(sim, network, "ws00", job.name, probe=probe)
    config = WorkerConfig(startup_cost_s=0.01, steal_timeout_s=0.02,
                          steal_backoff_s=0.002)
    workers = [Worker(sim, ws, network, job, "ws00", config=config,
                      rng=reg.stream(f"worker.{i}"), probe=probe)
               for i, ws in enumerate(hosts)]
    victim = workers[1]
    while victim.stats.tasks_executed < 5:
        sim.step()
    t_crash = sim.now
    hosts[1].crash()  # ws01's run loop is parked in the charging yield
    sim.run(until=t_crash + 0.001)
    assert victim.exit_reason == "crashed"
    prof.finalize(sim.now)

    mine = [(t, kind, d) for t, kind, src, d in rows if src == "ws01"]
    begun = [d["cid"] for _t, kind, d in mine if kind == "task.done"]
    ended = [d["cid"] for _t, kind, d in mine if kind == "task.charged"]
    assert begun == ended and len(begun) == victim.stats.tasks_executed
    kinds = [kind for _t, kind, _d in mine]
    last_end = max(i for i, kind in enumerate(kinds) if kind == "task.charged")
    assert mine[last_end][0] == t_crash
    assert last_end < kinds.index("worker.exit.crashed")
    with open(path, encoding="utf-8") as fh:
        assert validate_perfetto(json.load(fh)) == []
    assert ch.result is None  # the job itself was cut short by the test


if __name__ == "__main__":
    print("PINS = {")
    for case in CASES:
        print(f"    {case!r}: {fingerprint(*case)!r},")
    print("}")
