"""Tests for split-phase RPC: request/reply, retransmission, errors."""

import random

import pytest

from repro.cluster.platform import SPARCSTATION_1
from repro.errors import RpcError
from repro.net.network import Network
from repro.net.rpc import RpcClient, RpcServer, _Request, rpc_call
from repro.net.socket import Socket
from repro.net.topology import UniformTopology
from repro.obs.probe import Probe
from repro.sim.core import Interrupt, Simulator


@pytest.fixture
def server(network):
    srv = RpcServer(network, "server", 9000, name="test")
    srv.register("echo", lambda args, msg: args)
    srv.register("add", lambda args, msg: args[0] + args[1])
    srv.register("whoami", lambda args, msg: msg.src)
    srv.register("boom", lambda args, msg: 1 / 0)
    return srv


def call(sim, network, method, args=None, **kw):
    def proc(sim):
        return (yield from rpc_call(network, "client", "server", 9000, method, args, **kw))

    return sim.run(sim.process(proc(sim)))


def test_echo(sim, network, server):
    assert call(sim, network, "echo", {"a": 1}) == {"a": 1}


def test_add(sim, network, server):
    assert call(sim, network, "add", (2, 3)) == 5


def test_handler_sees_caller(sim, network, server):
    assert call(sim, network, "whoami") == "client"


def test_unknown_method(sim, network, server):
    with pytest.raises(RpcError, match="no such method"):
        call(sim, network, "missing")


def test_handler_exception_becomes_rpc_error(sim, network, server):
    with pytest.raises(RpcError, match="ZeroDivisionError"):
        call(sim, network, "boom")


def test_no_server_times_out(sim, network):
    with pytest.raises(RpcError, match="no reply"):
        call(sim, network, "echo", timeout_s=0.1, retries=1)


def test_retransmission_survives_loss(sim, lossy_network):
    srv = RpcServer(lossy_network, "server", 9000)
    calls = []

    def handler(args, msg):
        calls.append(args)
        return args * 2

    srv.register("double", handler)

    def proc(sim):
        results = []
        for i in range(10):
            r = yield from rpc_call(
                lossy_network, "client", "server", 9000, "double", i, timeout_s=0.2
            )
            results.append(r)
        return results

    assert sim.run(sim.process(proc(sim))) == [i * 2 for i in range(10)]


def test_at_most_once_execution_under_retransmission(sim, lossy_network):
    """Handlers must not re-execute on duplicate (retransmitted) requests."""
    srv = RpcServer(lossy_network, "server", 9000)
    executions = {"n": 0}

    def handler(args, msg):
        executions["n"] += 1
        return executions["n"]

    srv.register("count", handler)

    def proc(sim):
        out = []
        for _ in range(20):
            out.append((yield from rpc_call(
                lossy_network, "client", "server", 9000, "count", None, timeout_s=0.2
            )))
        return out

    results = sim.run(sim.process(proc(sim)))
    # Each logical call executed exactly once, in order.
    assert results == list(range(1, 21))


def test_duplicate_registration_raises(network):
    srv = RpcServer(network, "server", 9000)
    srv.register("m", lambda a, m: a)
    with pytest.raises(RpcError):
        srv.register("m", lambda a, m: a)


def test_server_stop_releases_port(sim, network):
    srv = RpcServer(network, "server", 9000)
    srv.stop()
    sim.run()
    RpcServer(network, "server", 9000)  # rebind works


def test_concurrent_clients(sim, network, server):
    results = []

    def proc(sim, name, x):
        r = yield from rpc_call(network, name, "server", 9000, "add", (x, 1))
        results.append((name, r))

    for i in range(5):
        sim.process(proc(sim, f"c{i}", i))
    sim.run()
    assert sorted(results) == [(f"c{i}", i + 1) for i in range(5)]


def test_reply_cache_holds_the_in_flight_window_not_every_reply(sim, network, server):
    """At-most-once needs a reply only until its caller can no longer
    retransmit: 10k spaced calls (through a bound ``RpcClient``, the way
    every daemon and worker calls) leave a window's worth cached."""
    client = RpcClient(network, "client", "server", 9000, timeout_s=0.5, retries=1)
    peak = 0

    def proc(sim):
        nonlocal peak
        for i in range(10_000):
            assert (yield from client.call("add", (i, 1))) == i + 1
            peak = max(peak, len(server._reply_cache))
            yield sim.timeout(0.1)

    sim.run(sim.process(proc(sim)))
    # forget_at = call time + (2 + retries) * timeout_s = 1.5 s, one call
    # per ~0.1 s: never more than ~15 replies alive at once.
    assert peak <= 16
    assert server.requests_served == 10_000


def test_retransmission_inside_the_window_is_answered_from_the_cache(sim, network):
    """A duplicate arriving while its caller may still retransmit gets
    the cached reply (the handler does not run again), however much
    other traffic the server saw in between; past ``forget_at`` the
    server no longer remembers it."""
    srv = RpcServer(network, "server", 9000)
    ran = []
    srv.register("mark", lambda args, msg: (ran.append(args), len(ran))[1])
    sock = Socket(network, "client", 7000)
    request = _Request(req_id=1, method="mark", args="x", forget_at=3.0)
    replies = []

    def proc(sim):
        for wait_s in (0.0, 2.0, 2.0):      # sent at t = 0, ~2 and ~4
            yield sim.timeout(wait_s)
            yield sock.sendto(request, "server", 9000)
            replies.append((yield sock.recv()).payload.value)
            for i in range(5):               # unrelated calls in between
                yield from rpc_call(network, "other", "server", 9000, "mark", i)

    sim.run(sim.process(proc(sim)))
    assert replies == [1, 1, 12]             # cached inside the window ...
    assert ran.count("x") == 2               # ... executed anew only past it


def test_requests_served_counter(sim, network, server):
    call(sim, network, "echo", 1)
    call(sim, network, "echo", 2)
    assert server.requests_served == 2


# -- notices: one-way (method, args) pairs riding on a call -------------


@pytest.fixture
def ledger(server):
    """Every ``note``/``sum`` execution on *server*, in order."""
    ran = []
    server.register("note", lambda args, msg: ran.append(("note", args)))
    server.register("sum", lambda args, msg: (ran.append(("sum", args)), sum(args))[1])
    return ran


def test_notices_run_before_the_method_in_order(sim, network, server, ledger):
    assert call(sim, network, "sum", (1, 2),
                notices=(("note", "a"), ("note", "b"))) == 3
    assert ledger == [("note", "a"), ("note", "b"), ("sum", (1, 2))]
    assert server.requests_served == 1       # one datagram-level request


def test_notices_travel_through_a_bound_client(sim, network, server, ledger):
    client = RpcClient(network, "client", "server", 9000)

    def proc(sim):
        return (yield from client.call("echo", 7, notices=(("note", "x"),)))

    assert sim.run(sim.process(proc(sim))) == 7
    assert ledger == [("note", "x")]


class _FirstRepliesLost(UniformTopology):
    """The first *n* datagrams the server sends die on the wire."""

    def __init__(self, params, n):
        super().__init__(params)
        self.left = n

    def is_reachable(self, src, dst):
        if src != "server" or not self.left:
            return True
        self.left -= 1
        return False


def test_retransmitted_request_runs_each_notice_and_the_method_once(sim, rng_registry):
    """The first reply is lost; the retransmission is answered from the
    reply cache, so neither the notices nor the method run again."""
    network = Network(sim, _FirstRepliesLost(SPARCSTATION_1.net, 1),
                      rng=rng_registry.stream("net"))
    server = RpcServer(network, "server", 9000)
    ran = []
    server.register("note", lambda args, msg: ran.append(("note", args)))
    server.register("sum", lambda args, msg: (ran.append(("sum", args)), sum(args))[1])
    assert call(sim, network, "sum", (4, 5), timeout_s=0.2,
                notices=(("note", "a"), ("note", "b"))) == 9
    assert network.counters.dropped_partition == 1
    assert network.counters.sent == 4        # request, lost reply, both again
    assert ran == [("note", "a"), ("note", "b"), ("sum", (4, 5))]
    assert server.requests_served == 1


def test_failing_notice_is_the_calls_error_and_the_method_does_not_run(
        sim, network, server, ledger):
    with pytest.raises(RpcError, match="ZeroDivisionError"):
        call(sim, network, "sum", (1, 2),
             notices=(("note", "a"), ("boom", None), ("note", "b")))
    assert ledger == [("note", "a")]         # nothing after the failure ran


def test_unknown_notice_method_is_the_calls_error(sim, network, server, ledger):
    with pytest.raises(RpcError, match="no such method 'missing'"):
        call(sim, network, "sum", (1, 2), notices=(("missing", None),))
    assert ledger == []


def test_call_without_notices_costs_what_it_did(sim, network, server):
    """Same datagrams and same kernel events with and without the
    ``notices`` slot in play (tests/integration/test_event_budget.py pins
    the absolute number); a notice adds neither."""
    def cost(**kw):
        events, sent = sim.events_processed, network.counters.sent
        call(sim, network, "echo", 1, **kw)
        sim.run()                             # the settled call's deadline
        return sim.events_processed - events, network.counters.sent - sent

    call(sim, network, "echo", 0)
    sim.run()                                 # server boot is not a call's cost
    plain = cost()
    assert plain[1] == 2
    assert cost(notices=()) == plain
    assert cost(notices=(("echo", 2), ("echo", 3))) == plain


# -- one socket per client: RpcClient re-binds a recycled socket --------


def _port_server(probe=None):
    """A fresh run whose server answers ``port`` with the caller's port."""
    sim = Simulator()
    network = Network(sim, UniformTopology(SPARCSTATION_1.net),
                      rng=random.Random(0), probe=probe)
    RpcServer(network, "server", 9000).register("port", lambda args, msg: msg.src_port)
    return sim, network


def _calls(how, n, timeout_s=2.0, probe=None):
    """*n* back-to-back ``port`` calls, ephemeral or through one client:
    (replies, events, datagrams sent, dropped, client)."""
    sim, network = _port_server(probe)
    client = RpcClient(network, "client", "server", 9000, timeout_s=timeout_s)

    def proc(sim):
        replies = []
        for _ in range(n):
            if how == "client":
                replies.append((yield from client.call("port")))
            else:
                replies.append((yield from rpc_call(
                    network, "client", "server", 9000, "port", timeout_s=timeout_s)))
        return replies

    replies = sim.run(sim.process(proc(sim)))
    sim.run()                                 # late replies, settled deadlines
    counters = network.counters
    return replies, sim.events_processed, counters.sent, counters.dropped_unroutable, client


def test_client_calls_bind_the_ports_ephemeral_calls_bind():
    """One socket object serves every call of a client, re-bound to the
    port (the request id) a fresh ephemeral socket would have had, at the
    same kernel-event and datagram cost."""
    *ephemeral, _ = _calls("ephemeral", 6)
    *client_run, client = _calls("client", 6)
    assert client_run == ephemeral
    assert ephemeral[0] == list(range(49152, 49158))
    assert len(client._sockets) == 1


def test_late_reply_to_a_finished_call_is_dropped_as_unbound():
    """A deadline shorter than the round-trip: every call retransmits,
    the first reply answers it, and the second arrives after the call
    ended — by then the client's socket is bound to the next call's port,
    so the reply is dropped as unbound, exactly as for ephemeral sockets."""
    runs = {}
    for how in ("ephemeral", "client"):
        drops = []
        probe = Probe()
        probe.subscribe({"net.drop.unbound": lambda t, kind, source, detail: drops.append(
            (t, source, detail["id"], detail["msg"].dst_port))})
        *counts, _ = _calls(how, 3, timeout_s=0.002, probe=probe)
        runs[how] = (counts, drops)
    assert runs["client"] == runs["ephemeral"]
    (replies, _events, _sent, dropped), drops = runs["client"]
    assert dropped == len(drops) == 3
    assert [port for *_, port in drops] == replies


def test_after_an_interrupted_call_the_next_is_answered_on_its_first_attempt():
    """An interrupt leaves the call's receive parked; recycling the socket
    drops it, so the next call's reply reaches the next call."""
    sim, network = _port_server()
    client = RpcClient(network, "client", "server", 9000, timeout_s=2.0)

    def abandoned(sim):
        with pytest.raises(Interrupt):
            yield from client.call("port")

    def interrupter(sim, victim):
        yield sim.timeout(0.001)              # request sent, no reply yet
        victim.interrupt("owner back")

    def next_call(sim):
        yield sim.timeout(0.5)
        start = sim.now
        return (yield from client.call("port")), sim.now - start

    sim.process(interrupter(sim, sim.process(abandoned(sim))))
    port, took = sim.run(sim.process(next_call(sim)))
    assert port == 49153 and took < 0.1      # no retransmission
    assert network.counters.dropped_unroutable == 1   # the abandoned reply
    assert len(client._sockets) == 1


def test_concurrent_calls_on_one_client_get_their_own_sockets():
    sim, network = _port_server()
    client = RpcClient(network, "client", "server", 9000)

    def proc(sim):
        return (yield from client.call("port"))

    calls = [sim.process(proc(sim)) for _ in range(2)]
    sim.run()
    assert sorted(c.value for c in calls) == [49152, 49153]
    assert len(client._sockets) == 2
