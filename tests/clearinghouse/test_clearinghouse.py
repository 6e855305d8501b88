"""Tests for the Clearinghouse: registry, updates, I/O, death detection."""

import pytest

from repro.clearinghouse.clearinghouse import Clearinghouse, ClearinghouseConfig
from repro.micro import protocol as P
from repro.net.rpc import rpc_call
from repro.net.socket import Socket


@pytest.fixture
def ch(sim, network):
    return Clearinghouse(sim, network, "chhost", "testjob")


def call(sim, network, src, method, args):
    def proc(sim):
        return (yield from rpc_call(network, src, "chhost", P.CLEARINGHOUSE_PORT,
                                    method, args))

    return sim.run(sim.process(proc(sim)))


class TestRegistration:
    def test_first_registrant_gets_root(self, sim, network, ch):
        reply = call(sim, network, "w1", P.RPC_REGISTER, "w1")
        assert reply["run_root"] is True
        assert reply["peers"] == ["w1"]
        reply2 = call(sim, network, "w2", P.RPC_REGISTER, "w2")
        assert reply2["run_root"] is False
        assert reply2["peers"] == ["w1", "w2"]

    def test_unregister_removes(self, sim, network, ch):
        call(sim, network, "w1", P.RPC_REGISTER, "w1")
        call(sim, network, "w2", P.RPC_REGISTER, "w2")
        call(sim, network, "w1", P.RPC_UNREGISTER, {"name": "w1", "graceful": True})
        assert sorted(ch.workers) == ["w2"]

    def test_update_returns_peers_and_heartbeats(self, sim, network, ch):
        call(sim, network, "w1", P.RPC_REGISTER, "w1")
        t_reg = ch.workers["w1"]
        sim.run(until=sim.now + 10)
        reply = call(sim, network, "w1", P.RPC_UPDATE, "w1")
        assert reply["peers"] == ["w1"]
        assert ch.workers["w1"] > t_reg

    def test_registration_after_done_rejected(self, sim, network, ch):
        ch.done.set("the-result")
        ch.result = "the-result"
        reply = call(sim, network, "late", P.RPC_REGISTER, "late")
        assert reply["done"] is True
        assert reply["result"] == "the-result"
        assert "late" not in ch.workers

    def test_membership_change_broadcasts_peer_update(self, sim, network, ch):
        call(sim, network, "w1", P.RPC_REGISTER, "w1")
        # w1 must receive a peer_update when w2 joins.
        w1_sock = Socket(network, "w1", P.WORKER_PORT)
        call(sim, network, "w2", P.RPC_REGISTER, "w2")
        sim.run(until=sim.now + 1.0)  # bounded: the death detector ticks forever
        updates = [msg.payload[1] for msg in w1_sock.buffered_messages()
                   if msg.payload[0] == P.PEER_UPDATE]
        assert ["w1", "w2"] in updates


class TestResult:
    def test_result_sets_done_and_broadcasts(self, sim, network, ch):
        call(sim, network, "w1", P.RPC_REGISTER, "w1")
        w1_sock = Socket(network, "w1", P.WORKER_PORT)
        sender = Socket(network, "w1", 555)
        sender.sendto((P.RESULT, 42, "w1"), "chhost", P.CLEARINGHOUSE_DATA_PORT)
        sim.run()
        assert ch.done.is_set
        assert ch.result == 42
        assert ch.finished_at is not None
        payloads = [msg.payload for msg in w1_sock.buffered_messages()]
        assert (P.JOB_DONE, 42) in payloads

    def test_second_result_ignored(self, sim, network, ch):
        sender = Socket(network, "x", 555)
        sender.sendto((P.RESULT, 1, "x"), "chhost", P.CLEARINGHOUSE_DATA_PORT)
        sender.sendto((P.RESULT, 2, "x"), "chhost", P.CLEARINGHOUSE_DATA_PORT)
        sim.run()
        assert ch.result == 1


class TestIO:
    def test_io_buffered_until_threshold(self, sim, network):
        cfg = ClearinghouseConfig(io_flush_lines=3)
        ch = Clearinghouse(sim, network, "chhost", "job", cfg)
        for i in range(2):
            call(sim, network, "w1", P.RPC_IO_WRITE, {"worker": "w1", "text": f"l{i}"})
        assert ch.io_output == []  # buffered, not yet flushed
        call(sim, network, "w1", P.RPC_IO_WRITE, {"worker": "w1", "text": "l2"})
        assert len(ch.io_output) == 3
        assert ch.io_flushes == 1

    def test_result_flushes_pending_io(self, sim, network, ch):
        call(sim, network, "w1", P.RPC_IO_WRITE, {"worker": "w1", "text": "tail"})
        sender = Socket(network, "w1", 555)
        sender.sendto((P.RESULT, 0, "w1"), "chhost", P.CLEARINGHOUSE_DATA_PORT)
        sim.run()
        assert [t for _, _, t in ch.io_output] == ["tail"]


class TestDeathDetection:
    def test_silent_worker_declared_dead(self, sim, network):
        cfg = ClearinghouseConfig(death_timeout_s=5.0, check_interval_s=1.0)
        ch = Clearinghouse(sim, network, "chhost", "job", cfg)
        call(sim, network, "w1", P.RPC_REGISTER, "w1")
        call(sim, network, "w2", P.RPC_REGISTER, "w2")
        w2_sock = Socket(network, "w2", P.WORKER_PORT)

        # w2 heartbeats; w1 goes silent.
        def heartbeater(sim):
            for _ in range(12):
                yield sim.timeout(1.0)
                yield from rpc_call(network, "w2", "chhost", P.CLEARINGHOUSE_PORT,
                                    P.RPC_UPDATE, "w2")

        sim.process(heartbeater(sim))
        sim.run(until=12.0)
        assert "w1" not in ch.workers
        assert "w2" in ch.workers
        died = [msg.payload[1] for msg in w2_sock.buffered_messages()
                if msg.payload[0] == P.WORKER_DIED]
        assert died == ["w1"]

    def test_root_reassigned_on_owner_death(self, sim, network):
        cfg = ClearinghouseConfig(death_timeout_s=5.0, check_interval_s=1.0)
        ch = Clearinghouse(sim, network, "chhost", "job", cfg)
        reply = call(sim, network, "w1", P.RPC_REGISTER, "w1")
        assert reply["run_root"]
        call(sim, network, "w2", P.RPC_REGISTER, "w2")
        w2_sock = Socket(network, "w2", P.WORKER_PORT)

        def heartbeater(sim):
            for _ in range(12):
                yield sim.timeout(1.0)
                yield from rpc_call(network, "w2", "chhost", P.CLEARINGHOUSE_PORT,
                                    P.RPC_UPDATE, "w2")

        sim.process(heartbeater(sim))
        sim.run(until=12.0)
        assert ch.root_owner == "w2"
        payloads = [msg.payload[0] for msg in w2_sock.buffered_messages()]
        assert P.RUN_ROOT in payloads

    def test_detector_stops_after_done(self, sim, network):
        cfg = ClearinghouseConfig(death_timeout_s=2.0, check_interval_s=1.0)
        ch = Clearinghouse(sim, network, "chhost", "job", cfg)
        call(sim, network, "w1", P.RPC_REGISTER, "w1")
        ch.done.set(None)
        sim.run(until=20.0)
        # No death declared after completion.
        assert "w1" in ch.workers


def test_stop_releases_ports(sim, network, ch):
    ch.stop()
    sim.run()
    Clearinghouse(sim, network, "chhost", "again")  # rebinds cleanly
