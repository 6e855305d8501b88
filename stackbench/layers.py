"""Family 3: isolated cost of one operation of each layer.

Every figure is host time, best of ``REPEATS`` passes, per operation, and
drives public functions only.  The loop that issues the operations is part
of the figure (about 20 ns an iteration), so compare a figure with itself
across commits and not with another figure.

Cheap operations are issued ``OPS`` times a pass.  The ones that cost tens
of microseconds (an RPC round trip is ~15 kernel events) are issued
``RPC_OPS`` times, and a Clearinghouse join once per worker of ``JOIN_JOBS``
64-worker jobs, so that the whole pass stays within a few seconds: it runs
inside every ``--trace 1`` run.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, Tuple

from repro.apps.fib import fib_job, fib_serial
from repro.check import check_invariants, run_checked
from repro.cluster.platform import SPARCSTATION_1
from repro.macro.jobq import PhishJobQ
from repro.macro.policies import make_policy
from repro.micro import protocol
from repro.micro.deque import ReadyDeque
from repro.net.network import Network
from repro.net.rpc import RpcServer, rpc_call
from repro.net.socket import Socket
from repro.net.topology import UniformTopology
from repro.obs.metrics import MetricsRegistry
from repro.phish import run_job
from repro.sim.core import Simulator
from repro.sim.resources import Store
from repro.tasks.closure import Closure
from repro.util.trace import TraceLog

REPEATS = 5
OPS = 50_000
RPC_OPS = 5_000
JOIN_WORKERS = 64
JOIN_JOBS = 8

LAYER_OP_UNITS: Dict[str, str] = {
    "sim.timeout_ns": "ns",
    "sim.timeout_churn_ns": "ns",
    "sim.process_switch_ns": "ns",
    "sim.heap_timeout_ns": "ns",
    "net.post_ns": "ns",
    "net.transmit_ns": "ns",
    "net.rpc_roundtrip_ns": "ns",
    "micro.deque_push_pop_ns": "ns",
    "micro.deque_steal_ns": "ns",
    "tasks.closure_new_ns": "ns",
    "clearinghouse.join_us_per_worker": "us",
    "macro.jobq_request_ns": "ns",
    "util.trace_emit_ns": "ns",
    "obs.counter_inc_ns": "ns",
    "obs.histogram_observe_ns": "ns",
    "check.invariants_us_per_event": "us",
}


def _best_per_op(make: Callable[[], Tuple[Callable[[], object], int]]) -> float:
    """Best host seconds per operation over REPEATS passes.

    *make* builds fresh state (untimed) and returns ``(run, n_ops)``.
    """
    best = float("inf")
    for _ in range(REPEATS):
        run, n_ops = make()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            run()
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        best = min(best, elapsed / n_ops)
    return best


def _timeouts(queue: str):
    def make():
        sim = Simulator(queue=queue)

        def run():
            timeout = sim.timeout
            for i in range(OPS):
                timeout(float(i % 97))
            sim.run()
        return run, OPS
    return make


def _timeout_churn():
    """50 processes sleeping on a few recurring delays: pushes and pops
    interleave, as the steal-backoff and retry timers make them."""
    delays = (0.0005, 0.001, 0.002, 0.004, 0.008)
    n_procs = 50
    rounds = OPS // n_procs
    sim = Simulator()

    def churn(delay):
        for _ in range(rounds):
            yield sim.timeout(delay)

    for i in range(n_procs):
        sim.process(churn(delays[i % len(delays)]))
    return sim.run, n_procs * rounds


def _process_switch():
    """Two processes handing a token back and forth through Stores; one
    operation is one hand-over (a put and the get it wakes)."""
    sim = Simulator()
    a_to_b, b_to_a = Store(sim), Store(sim)
    trips = OPS // 2

    def ping():
        for i in range(trips):
            yield a_to_b.put(i)
            yield b_to_a.get()

    def pong():
        for _ in range(trips):
            value = yield a_to_b.get()
            yield b_to_a.put(value)

    sim.process(ping())
    sim.process(pong())
    return sim.run, 2 * trips


def _network() -> Network:
    return Network(Simulator(), UniformTopology(SPARCSTATION_1.net))


def _send(method: str):
    def make():
        network = _network()
        Socket(network, "b", 7)
        send = getattr(network, method)

        def run():
            for i in range(OPS):
                send("a", 9, "b", 7, i, 64)
            network.sim.run()
        return run, OPS
    return make


def _calls(network: Network, server_host: str, port: int, method: str, arg_of):
    """A client process making RPC_OPS sequential calls."""
    def client():
        for i in range(RPC_OPS):
            yield from rpc_call(network, "client", server_host, port, method, arg_of(i))

    done = network.sim.process(client())
    return lambda: network.sim.run(done), RPC_OPS


def _rpc_roundtrip():
    network = _network()
    server = RpcServer(network, "server", 700)
    server.register("echo", lambda args, _msg: args)
    return _calls(network, "server", 700, "echo", lambda i: i)


def _jobq_request():
    """request_job against a JobQ holding 1000 sized records under srp.
    Every request names another workstation, so each is granted the
    shortest record: the grant path with nothing skipped."""
    network = _network()
    jobq = PhishJobQ(network.sim, network, "jobq", make_policy("srp"))
    program = fib_job(1)
    for i in range(1000):
        jobq.submit_record(program, "jobq", size_hint_s=5.0 + (i * 37) % 1000,
                           register_first_worker=False)
    return _calls(network, "jobq", protocol.JOBQ_PORT, "request_job",
                  lambda i: f"ws{i}")


def _deque_push_pop():
    deque = ReadyDeque()
    closure = Closure(("w", 0), "t", [1, 2])

    def run():
        push, pop = deque.push, deque.pop_exec
        for _ in range(OPS):
            push(closure)
            pop()
    return run, OPS


def _deque_steal():
    deque = ReadyDeque()
    closure = Closure(("w", 0), "t", [1, 2])
    for _ in range(OPS):
        deque.push(closure)

    def run():
        steal = deque.pop_steal
        for _ in range(OPS):
            steal()
    return run, OPS


def _closure_new():
    def run():
        for i in range(OPS):
            Closure(("w", i), "t", [i, 2, 3], [1])
    return run, OPS


def _join():
    """A one-task job: registration and the peer-list fan-out are all of it."""
    def run():
        for seed in range(JOIN_JOBS):
            run_job(fib_job(1), n_workers=JOIN_WORKERS, seed=seed)
    return run, JOIN_JOBS * JOIN_WORKERS


def _trace_emit():
    # The bound run_job(trace=True) uses.
    trace = TraceLog(enabled=True, capacity=200_000)

    def run():
        emit = trace.emit
        for i in range(OPS):
            emit(0.5, "task.exec", "ws00", cid=i)
    return run, OPS


def _counter_inc():
    counter = MetricsRegistry().counter("bench.count")

    def run():
        inc = counter.inc
        for _ in range(OPS):
            inc()
    return run, OPS


def _histogram_observe():
    histogram = MetricsRegistry().histogram("bench.latency_s")

    def run():
        observe = histogram.observe
        for i in range(OPS):
            observe(0.0001 * (i % 100))
    return run, OPS


def _invariants():
    """check_invariants over one recorded fault-free fib(16) trace."""
    recorded = run_checked(fib_job(16), n_workers=4, seed=0, expected=fib_serial(16))
    recorded.require_ok()

    passes = -(-OPS // len(recorded.trace))

    def make():
        def run():
            for _ in range(passes):
                check_invariants(recorded.trace, recorded.workers, completed=True,
                                 result_ok=True).require_ok()
        return run, passes * len(recorded.trace)
    return make


def measure_layer_ops() -> Dict[str, float]:
    """Run the whole family-3 pass; values in the units of LAYER_OP_UNITS."""
    per_op_s = {
        "sim.timeout_ns": _timeouts("auto"),
        "sim.timeout_churn_ns": _timeout_churn,
        "sim.process_switch_ns": _process_switch,
        "sim.heap_timeout_ns": _timeouts("heap"),
        "net.post_ns": _send("post"),
        "net.transmit_ns": _send("transmit"),
        "net.rpc_roundtrip_ns": _rpc_roundtrip,
        "micro.deque_push_pop_ns": _deque_push_pop,
        "micro.deque_steal_ns": _deque_steal,
        "tasks.closure_new_ns": _closure_new,
        "clearinghouse.join_us_per_worker": _join,
        "macro.jobq_request_ns": _jobq_request,
        "util.trace_emit_ns": _trace_emit,
        "obs.counter_inc_ns": _counter_inc,
        "obs.histogram_observe_ns": _histogram_observe,
        "check.invariants_us_per_event": _invariants(),
    }
    scale = {"ns": 1e9, "us": 1e6}
    return {name: _best_per_op(make) * scale[LAYER_OP_UNITS[name]]
            for name, make in per_op_s.items()}
