"""Kernel events per round-trip and round-trips per scheduling decision,
exactly (sim counts, no timing).

The split-phase round-trip is the unit every latency bound is written
in, so what it costs the kernel is pinned: a regression here is a
regression of ``macro_traffic`` / ``micro_steal`` host time that no
noisy benchmark has to catch.  Both runs are loss-free and without a
``tiebreak_rng`` (under one, ``Channel.send`` keeps its put-completion
events on purpose).  docs/performance.md names each event.  The macro
half counts the round-trips themselves: a daemon's ``release`` /
``job_done`` rides on its next ``request_job``, so no JobQ request is
served that is not a ``request_job`` unless an owner took a machine back.
"""

import gc
import sys

from repro.apps.fib import fib_job
from repro.macro.traffic import TrafficConfig, TrafficSystem
from repro.micro.worker import WorkerConfig
from repro.net.rpc import RpcServer, rpc_call
from repro.obs.probe import Probe
from repro.phish import run_job, start_job
from repro.sim.core import Simulator
from repro.tasks.program import JobProgram, ThreadProgram

#: sender overhead, request delivery, server receive, reply's sender
#: overhead, reply delivery, caller receive, relay hop, deadline.
EVENTS_PER_RPC = 8
#: request delivery, victim receive, reply's sender overhead, reply
#: delivery, thief receive, steal waiter, relay hop, deadline, backoff.
EVENTS_PER_REFUSED_STEAL = 9
#: Python frames entered (``sys.setprofile`` "call" events: calls and
#: generator resumes) per refused steal, the test's own calls excluded.
#: A ceiling, not an exact count, because CI runs several interpreters:
#: measured 68 on CPython 3.10.13, 3.11.7 and 3.12.1 alike (98 before the
#: refused steal's path was flattened, 70 before the run loop was one
#: generator).
FRAMES_PER_REFUSED_STEAL = 68
#: Python frames entered per executed task of a fib run, as above: the
#: local spawn/sync/execute path around the task's one kernel event.
#: Measured 19.21 on CPython 3.10.13, 3.11.7 and 3.12.1 alike (26.22
#: before the ready deque's len() and the task's lookups became C calls).
FRAMES_PER_TASK = 19.3


def _events_for_calls(sim, network, n_calls):
    def caller(sim):
        for i in range(n_calls):
            assert (yield from rpc_call(network, "client", "server", 9000, "echo", i)) == i

    before = sim.events_processed
    sim.run(sim.process(caller(sim)))
    sim.run()  # every settled call's deadline drains too
    return sim.events_processed - before


def test_rpc_round_trip_costs_eight_events(sim, network):
    RpcServer(network, "server", 9000).register("echo", lambda args, msg: args)
    sim.run()  # the server's boot is not a round-trip's cost
    one = _events_for_calls(sim, network, 1)
    assert _events_for_calls(sim, network, 11) - one == 10 * EVENTS_PER_RPC


def _steady_refusals(count):
    """One worker sits in a single long task (one kernel event, far past
    the horizon) with an empty ready list; the other's every steal
    attempt is refused.  Returns ``count()`` read at each refusal once
    the first attempt's deadline has come due — from then on, refusal to
    refusal is the backoff, the next attempt, and one earlier attempt's
    deadline."""
    prog = ThreadProgram("one-long-task")

    @prog.thread
    def root(frame, k):
        frame.work(5e7)

    sim = Simulator()
    config = WorkerConfig(startup_cost_s=0.0)
    refused_at = []
    probe = Probe()
    probe.subscribe({"steal.refused": lambda t, kind, source, detail:
                     refused_at.append((t, count(sim)))})
    cluster = start_job(sim, JobProgram(prog, root), 2, 0, config, probe=probe)
    sim.run(until=1.0)

    assert cluster.workers[1].stats.failed_steal_attempts == len(refused_at) > 50
    assert cluster.network.counters.dropped_loss == 0
    first_deadline = refused_at[0][0] + config.steal_timeout_s
    steady = [n for t, n in refused_at if t > first_deadline]
    assert len(steady) > 40
    return steady


def test_refused_steal_costs_nine_events():
    steady = _steady_refusals(lambda sim: sim.events_processed)
    assert {b - a for a, b in zip(steady, steady[1:])} == {EVENTS_PER_REFUSED_STEAL}


def _profiled(run):
    """``(Python frames entered, result)`` of ``run(calls)``, where
    ``calls[0]`` is the running count.  The collector is settled first
    and paused throughout: a collection inside the window would close
    earlier runs' suspended generators (their worker and clearinghouse
    loops), entering their frames too."""
    calls = [0]

    def on_call(frame, event, arg):
        if event == "call":
            calls[0] += 1

    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(on_call)
    try:
        result = run(calls)
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return calls[0], result


def test_refused_steal_enters_at_most_its_frame_budget():
    """The host-side twin of the event pin: what one refusal costs in
    Python frames, which no timing noise moves.  To re-pin after a
    change to the steal path, the kernel, the network or the socket,
    print the set below and set the ceiling to its largest member on
    every interpreter CI runs."""
    _, steady = _profiled(lambda calls: _steady_refusals(lambda sim: calls[0]))
    # Each difference also counts two calls of this test's own: the
    # recording subscriber and the counter it reads.
    frames = {b - a - 2 for a, b in zip(steady, steady[1:])}
    assert max(frames) <= FRAMES_PER_REFUSED_STEAL, sorted(frames)


def test_task_enters_at_most_its_frame_budget():
    """What one task costs the host in Python frames on fib, the
    all-overhead application: the difference between two job sizes, so
    set-up, teardown and this test's own calls cancel.  To re-pin after
    a change to the worker's task path, the deque or the closures, print
    the ratio and set the ceiling to it on every interpreter CI runs."""
    def tasks_executed(n):
        result = run_job(fib_job(n), n_workers=8, seed=5)
        return sum(w.stats.tasks_executed for w in result.workers)

    small = _profiled(lambda calls: tasks_executed(16))
    large = _profiled(lambda calls: tasks_executed(18))
    per_task = (large[0] - small[0]) / (large[1] - small[1])
    assert per_task <= FRAMES_PER_TASK, per_task


#: Jobs the one machine runs back to back in the round-trip guards.
N_JOBS = 12


def _one_machine_system():
    """A JobQ host and one harvested machine, its owner away: twelve
    single-machine jobs, all submitted within seconds.  The JobQ host's
    own daemon is stopped (its calls are loopback, never on the wire)."""
    system = TrafficSystem(TrafficConfig(
        n_workstations=2, n_jobs=N_JOBS, sizes="exponential", size_mean_s=3.0,
        rate_per_s=5.0, max_workers_per_job=1, policy="rr"))
    system.jobmanagers[system.jobq.host].stop()
    return system, system.workstations[1]


def test_no_notice_travels_alone_while_the_owner_is_away():
    system, _ws = _one_machine_system()
    try:
        assert system.run().n_completed == N_JOBS
    finally:
        system.stop()
    jobq, counters = system.jobq, system.network.counters
    assert counters.dropped_loss == 0
    # Every datagram is half of a served round-trip ...
    assert counters.sent == 2 * jobq.rpc.requests_served
    # ... and every round-trip asked for a job: the N job_done's rode along.
    assert jobq.rpc.requests_served == jobq.requests
    assert all(record.done for record in jobq.jobs.values())


def test_returning_owner_costs_one_standalone_release_sent_at_once():
    system, ws = _one_machine_system()
    cfg = system.config
    try:
        system.run()
        record = system.jobq.submit_record(
            system._program, system.jobq.host, size_hint_s=500.0,
            max_workers=1, register_first_worker=False)
        quantum_starts, released_at = [], []
        charge, on_release = ws.charge, system.policy.on_release
        ws.charge = lambda s: (quantum_starts.append(system.sim.now), charge(s))
        system.policy.on_release = lambda rec, name: (
            released_at.append(system.sim.now), on_release(rec, name))
        while ws.name not in record.participants:
            system.sim.run(until=system.sim.now + 1.0)
        system.sim.run(until=system.sim.now + 3.3 * cfg.quantum_s)
        ws.user_logged_in = True            # mid-quantum
        system.sim.run(until=system.sim.now + 10 * cfg.owner_poll_s)
        jobq = system.jobq
        # The twelve job_done's rode on requests; the one thing sent on its
        # own is the release of the machine the owner took back.
        assert jobq.rpc.requests_served - jobq.requests == 1
        assert ws.name not in record.participants and not record.done

        def one_call(sim):
            start = sim.now
            yield from system.jobmanagers[ws.name].jobq.call("list_jobs", {"limit": 1})
            return sim.now - start

        rtt_s = system.sim.run(system.sim.process(one_call(system.sim)))
    finally:
        system.stop()
    # The daemon saw the owner at the end of the quantum they arrived in
    # and the JobQ had the slot back within a round-trip of that instant
    # (not after a busy_poll_s sleep, not on some later request).
    seen_at = quantum_starts[-1] + cfg.quantum_s
    (released,) = released_at
    assert seen_at < released <= seen_at + rtt_s
