"""White-box unit tests of Worker state transitions.

These construct a Worker, immediately stop its simulation processes,
and drive the delivery/redo/forwarding logic synchronously — pinning
the exact semantics the integration tests rely on.
"""

import pytest

from repro.apps.fib import fib_job
from repro.cluster.platform import SPARCSTATION_1
from repro.cluster.workstation import Workstation
from repro.micro import protocol as P
from repro.micro.worker import Worker, WorkerConfig
from repro.net.network import Network
from repro.net.socket import Socket
from repro.net.topology import UniformTopology
from repro.sim.core import Event, Simulator
from repro.tasks.closure import CLEARINGHOUSE_TARGET, Closure, Continuation


@pytest.fixture
def rig(sim):
    net = Network(sim, UniformTopology(SPARCSTATION_1.net))
    workers = {}
    for name in ("wA", "wB"):
        ws = Workstation(sim, name, SPARCSTATION_1, net)
        workers[name] = Worker(sim, ws, net, fib_job(5), "wA",
                               config=WorkerConfig(track_completed=True))
    sim.run(until=0.0)  # boot the processes so stop() can interrupt them
    for w in workers.values():
        w.stop()
    sim.run(until=0.1)
    return sim, net, workers


def suspended_closure(worker, slots=2):
    c = Closure(worker.new_cid(), "thr", [None] * (slots + 1),
                missing_slots=list(range(1, slots + 1)))
    worker.register_suspended(c)
    return c


class TestDeliver:
    def test_local_fill_counts_local_synch(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        c = suspended_closure(w)
        w.deliver(Continuation(c.cid, 1), "x")
        assert w.stats.synchronizations == 1
        assert w.stats.non_local_synchs == 0
        assert c.args[1] == "x"

    def test_last_fill_enables_and_enqueues(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        c = suspended_closure(w)
        w.deliver(Continuation(c.cid, 1), "x")
        assert len(w.deque) == 0
        w.deliver(Continuation(c.cid, 2), "y")
        assert len(w.deque) == 1
        assert c.cid not in w.suspended
        assert c.cid in w.completed  # track_completed records it

    def test_remote_target_counts_non_local(self, rig):
        sim, net, workers = rig
        w = workers["wA"]
        w.deliver(Continuation(("wB", 99), 0), "v")
        assert w.stats.non_local_synchs == 1

    def test_clearinghouse_target_from_ch_host_is_local(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]  # ch_host is wA
        w.deliver(Continuation(CLEARINGHOUSE_TARGET, 0), "result")
        assert w.stats.non_local_synchs == 0

    def test_clearinghouse_target_from_other_host_is_non_local(self, rig):
        _sim, _net, workers = rig
        w = workers["wB"]
        w.deliver(Continuation(CLEARINGHOUSE_TARGET, 0), "result")
        assert w.stats.non_local_synchs == 1

    def test_duplicate_to_filled_slot_dropped(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        c = suspended_closure(w)
        w.deliver(Continuation(c.cid, 1), "first")
        w.deliver(Continuation(c.cid, 1), "dup")
        assert w.stats.duplicate_sends == 1
        assert c.args[1] == "first"

    def test_send_to_completed_closure_dropped(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        c = suspended_closure(w, slots=1)
        w.deliver(Continuation(c.cid, 1), "v")  # completes it
        w.deliver(Continuation(c.cid, 1), "late-redo")
        assert w.stats.duplicate_sends == 1

    def test_send_to_own_unknown_cid_swallowed(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        w.deliver(Continuation(("wA", 424242), 0), "ghost")
        assert w.stats.duplicate_sends == 1


class TestRedo:
    def test_worker_died_re_enqueues_outstanding(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        stolen = Closure(w.new_cid(), "thr", [1])
        w.outstanding.setdefault("wB", {})[stolen.cid] = stolen
        w._on_worker_died("wB")
        assert w.stats.tasks_redone == 1
        assert len(w.deque) == 1
        redone = w.deque.peek_all()[0]
        assert redone.cid != stolen.cid  # fresh identity
        assert redone.args == stolen.args

    def test_worker_died_without_outstanding_noop(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        w._on_worker_died("wB")
        assert w.stats.tasks_redone == 0


class TestStealServing:
    def test_a_refusal_returns_the_send_event_the_net_loop_waits_on(self, sim):
        """Two steal requests land on an idle victim in one tick: each
        is refused by a plain call that returns the reply's
        sender-overhead event, and the net loop serves the second only
        once the first reply's overhead has elapsed."""
        net = Network(sim, UniformTopology(SPARCSTATION_1.net))
        victim = Worker(sim, Workstation(sim, "wA", SPARCSTATION_1, net),
                        net, fib_job(5), "wA")
        thief = Socket(net, "wB", victim.config.port)
        served = []
        serve = victim._serve_steal

        def spy(msg, thief_name, req_id):
            sent = serve(msg, thief_name, req_id)
            served.append((sim.now, sent))
            return sent

        victim._serve_steal = spy
        for req_id in (1, 2):
            request = (P.STEAL_REQ, "wB", req_id)
            net.post("wB", thief.port, "wA", victim.config.port, request,
                     P.estimate_size(request))
        sim.run(until=0.1)
        assert all(isinstance(sent, Event) and sent.processed for _t, sent in served)
        (t1, _), (t2, _) = served
        assert t2 - t1 == pytest.approx(SPARCSTATION_1.net.send_overhead_s)
        replies = [m.payload for m in thief.buffered_messages()]
        assert replies == [(P.STEAL_REPLY, None, "wA", 1),
                           (P.STEAL_REPLY, None, "wA", 2)]


class TestInUseAccounting:
    def test_peak_tracks_deque_plus_suspended(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        for i in range(3):
            w.enqueue_ready(Closure(w.new_cid(), "thr", [i]))
        suspended_closure(w)
        assert w.stats.max_tasks_in_use == 4

    def test_peak_never_decreases(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        w.enqueue_ready(Closure(w.new_cid(), "thr", [0]))
        peak = w.stats.max_tasks_in_use
        w.deque.pop_exec()
        w._note_in_use()
        assert w.stats.max_tasks_in_use == peak


class TestCids:
    def test_new_cids_monotonic_and_owned(self, rig):
        _sim, _net, workers = rig
        w = workers["wA"]
        cids = [w.new_cid() for _ in range(5)]
        assert all(c[0] == "wA" for c in cids)
        assert [c[1] for c in cids] == sorted(c[1] for c in cids)
        assert len(set(cids)) == 5
