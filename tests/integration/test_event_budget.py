"""Kernel events per round-trip, exactly (sim counts, no timing).

The split-phase round-trip is the unit every latency bound is written
in, so what it costs the kernel is pinned: a regression here is a
regression of ``macro_traffic`` / ``micro_steal`` host time that no
noisy benchmark has to catch.  Both runs are loss-free and without a
``tiebreak_rng`` (under one, ``Channel.send`` keeps its put-completion
events on purpose).  docs/performance.md names each event.
"""

from repro.micro.worker import WorkerConfig
from repro.net.rpc import RpcServer, rpc_call
from repro.obs.probe import Probe
from repro.phish import start_job
from repro.sim.core import Simulator
from repro.tasks.program import JobProgram, ThreadProgram

#: sender overhead, request delivery, server receive, reply's sender
#: overhead, reply delivery, caller receive, relay hop, deadline.
EVENTS_PER_RPC = 8
#: request delivery, victim receive, reply's sender overhead, reply
#: delivery, thief receive, steal waiter, relay hop, deadline, backoff.
EVENTS_PER_REFUSED_STEAL = 9


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


def test_refused_steal_costs_nine_events():
    """One worker sits in a single long task (one kernel event, far past
    the horizon) with an empty ready list; the other's every steal
    attempt is refused.  From refusal to refusal: the backoff, the next
    attempt, and — once the first has come due — one earlier attempt's
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
                     refused_at.append((t, sim.events_processed))})
    cluster = start_job(sim, JobProgram(prog, root), 2, 0, config, probe=probe)
    sim.run(until=1.0)

    assert cluster.workers[1].stats.failed_steal_attempts == len(refused_at) > 50
    assert cluster.network.counters.dropped_loss == 0
    first_deadline = refused_at[0][0] + config.steal_timeout_s
    steady = [n for t, n in refused_at if t > first_deadline]
    assert len(steady) > 40
    assert {b - a for a, b in zip(steady, steady[1:])} == {EVENTS_PER_REFUSED_STEAL}
