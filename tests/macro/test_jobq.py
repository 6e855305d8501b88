"""Tests for the PhishJobQ RPC server."""

import pytest

from repro.cluster.platform import SPARCSTATION_1
from repro.cluster.workstation import Workstation
from repro.errors import RpcError
from repro.macro.jobmanager import PhishJobManager
from repro.macro.jobq import PhishJobQ
from repro.micro import protocol as P
from repro.net.network import Network
from repro.net.rpc import rpc_call
from repro.net.topology import UniformTopology
from repro.tasks.program import JobProgram, ThreadProgram


def make_program(name="job"):
    prog = ThreadProgram(name)

    @prog.thread
    def root(frame, k):
        frame.send(k, None)

    return JobProgram(prog, root)


@pytest.fixture
def jobq(sim, network):
    return PhishJobQ(sim, network, "qhost")


def call(sim, network, src, method, args):
    def proc(sim):
        return (yield from rpc_call(network, src, "qhost", P.JOBQ_PORT, method, args))

    return sim.run(sim.process(proc(sim)))


def test_submit_and_request(sim, network, jobq):
    record = jobq.submit_record(make_program(), "subhost")
    d = call(sim, network, "ws1", "request_job", "ws1")
    assert d["job_id"] == record.job_id
    assert d["ch_host"] == "subhost"
    assert "ws1" in record.participants


def test_empty_pool_returns_none(sim, network, jobq):
    assert call(sim, network, "ws1", "request_job", "ws1") is None
    assert jobq.requests == 1
    assert jobq.grants == 0


def test_round_robin_across_jobs(sim, network, jobq):
    jobq.submit_record(make_program("a"), "h1")
    jobq.submit_record(make_program("b"), "h2")
    ids = [call(sim, network, f"ws{i}", "request_job", f"ws{i}")["job_id"]
           for i in range(4)]
    assert ids == [0, 1, 0, 1]


def test_job_stays_in_pool_after_assignment(sim, network, jobq):
    """Paper: assignment keeps the job pooled for other idle machines."""
    jobq.submit_record(make_program(), "h")
    call(sim, network, "ws1", "request_job", "ws1")
    assert len(jobq.pool) == 1
    d2 = call(sim, network, "ws2", "request_job", "ws2")
    assert d2 is not None


def test_same_machine_not_assigned_twice(sim, network, jobq):
    jobq.submit_record(make_program(), "h")
    assert call(sim, network, "ws1", "request_job", "ws1") is not None
    assert call(sim, network, "ws1", "request_job", "ws1") is None


def test_release_re_enables_assignment(sim, network, jobq):
    record = jobq.submit_record(make_program(), "h")
    call(sim, network, "ws1", "request_job", "ws1")
    call(sim, network, "ws1", "release", {"job_id": record.job_id, "workstation": "ws1"})
    assert call(sim, network, "ws1", "request_job", "ws1") is not None


def test_job_done_removes_from_pool(sim, network, jobq):
    record = jobq.submit_record(make_program(), "h")
    call(sim, network, "h", "job_done", record.job_id)
    assert jobq.pool == []
    assert record.finished_at is not None
    assert call(sim, network, "ws1", "request_job", "ws1") is None


def test_job_done_unknown_id_errors(sim, network, jobq):
    with pytest.raises(RpcError):
        call(sim, network, "h", "job_done", 999)


class _RepliesLost(UniformTopology):
    """One-way loss: while ``lost`` is set nothing *host* sends arrives."""

    def __init__(self, params, host):
        super().__init__(params)
        self.host = host
        self.lost = False

    def is_reachable(self, src, dst):
        return not (self.lost and src == self.host)


def test_job_done_that_landed_with_every_reply_lost_is_heard_on_the_retry(
        sim, rng_registry):
    """The JobQ runs ``job_done`` but its replies vanish for 12 s — past
    the call's whole retry budget (5 x 2 s).  The retry-until-heard loop
    asks again 30 s later; the repeat is a no-op answered ``True``, not a
    "job_done twice" error retried every 30 s for good."""
    topology = _RepliesLost(SPARCSTATION_1.net, "qhost")
    network = Network(sim, topology, rng=rng_registry.stream("net"))
    jobq = PhishJobQ(sim, network, "qhost")
    record = jobq.submit_record(make_program(), "h", register_first_worker=False)
    daemon = PhishJobManager(
        sim, Workstation(sim, "h", SPARCSTATION_1, network), network, "qhost")
    daemon.process.interrupt("only its _tell_jobq is under test")
    topology.lost = True
    heard = sim.process(daemon._tell_jobq("job_done", record.job_id))
    sim.run(until=12.0)
    assert record.done and record.finished_at < 0.1   # it landed at once ...
    assert heard.is_alive                             # ... and nobody knows
    topology.lost = False
    sim.run(until=41.0)   # 10 s of retransmissions, 30 s asleep, one more call
    assert heard.value is True and record.finished_at < 0.1
    assert network.counters.dropped_partition == 5


def test_rpc_submit(sim, network, jobq):
    job_id = call(sim, network, "h", "submit",
                  {"program": make_program(), "ch_host": "h"})
    assert job_id == 0
    assert len(jobq.pool) == 1


def test_list_jobs(sim, network, jobq):
    jobq.submit_record(make_program("a"), "h1", priority=2)
    listing = call(sim, network, "x", "list_jobs", None)
    assert listing == [
        {"job_id": 0, "name": "a", "done": False, "participants": ["h1"],
         "priority": 2}
    ]


def test_submitter_counted_as_participant(sim, network, jobq):
    """The first worker starts on the submit host, so the JobQ must not
    assign the job back to that host."""
    jobq.submit_record(make_program(), "subhost")
    assert call(sim, network, "subhost", "request_job", "subhost") is None
