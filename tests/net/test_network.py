"""Tests for the network substrate: delivery, cost model, loss, loopback."""

import random

import pytest

from repro.errors import AddressError, NetworkError
from repro.net.network import Network, NetworkParams
from repro.net.socket import Socket
from repro.net.topology import UniformTopology


def make_net(sim, **params):
    return Network(sim, UniformTopology(NetworkParams(**params)), rng=random.Random(0))


class TestParams:
    def test_defaults_valid(self):
        NetworkParams()

    def test_invalid_bandwidth(self):
        with pytest.raises(NetworkError):
            NetworkParams(bandwidth_bytes_per_s=0)

    def test_invalid_loss(self):
        with pytest.raises(NetworkError):
            NetworkParams(loss_prob=1.0)

    def test_negative_overhead(self):
        with pytest.raises(NetworkError):
            NetworkParams(send_overhead_s=-1)


class TestDelivery:
    def test_point_to_point(self, sim):
        net = make_net(sim)
        a = Socket(net, "alpha", 100)
        b = Socket(net, "beta", 200)

        def sender(sim):
            yield a.sendto("hi", "beta", 200)

        def receiver(sim):
            msg = yield b.recv()
            return (msg.payload, msg.src, msg.src_port)

        sim.process(sender(sim))
        p = sim.process(receiver(sim))
        assert sim.run(p) == ("hi", "alpha", 100)

    def test_delivery_time_includes_all_terms(self, sim):
        net = make_net(
            sim,
            send_overhead_s=0.001,
            recv_overhead_s=0.002,
            wire_latency_s=0.01,
            bandwidth_bytes_per_s=1000.0,
        )
        a = Socket(net, "a", 1)
        b = Socket(net, "b", 2)
        a.sendto("x", "b", 2, size_bytes=100)

        def receiver(sim):
            yield b.recv()
            return sim.now

        # send overhead + latency + 100/1000 s transfer
        assert sim.run(sim.process(receiver(sim))) == pytest.approx(0.001 + 0.01 + 0.1)

    def test_unbound_port_drops(self, sim):
        net = make_net(sim)
        a = Socket(net, "a", 1)
        a.sendto("x", "b", 99)
        sim.run()
        assert net.counters.dropped_unroutable == 1
        assert net.counters.delivered == 0

    def test_message_ordering_preserved_without_jitter(self, sim):
        net = make_net(sim)
        a = Socket(net, "a", 1)
        b = Socket(net, "b", 2)
        for i in range(5):
            a.sendto(i, "b", 2)
        got = []

        def receiver(sim):
            for _ in range(5):
                got.append((yield b.recv()).payload)

        sim.process(receiver(sim))
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_counters(self, sim):
        net = make_net(sim)
        a = Socket(net, "a", 1)
        Socket(net, "b", 2)
        a.sendto("x", "b", 2, size_bytes=128)
        a.sendto("y", "b", 2, size_bytes=64)
        sim.run()
        assert net.counters.sent == 2
        assert net.counters.delivered == 2
        assert net.counters.bytes_sent == 192


class TestLoss:
    def test_loss_drops_fraction(self, sim):
        net = make_net(sim, loss_prob=0.5)
        a = Socket(net, "a", 1)
        Socket(net, "b", 2)
        for i in range(400):
            a.sendto(i, "b", 2)
        sim.run()
        assert net.counters.dropped_loss > 100
        assert net.counters.delivered > 100
        assert net.counters.dropped_loss + net.counters.delivered == 400

    def test_lossless_by_default(self, sim):
        net = make_net(sim)
        a = Socket(net, "a", 1)
        Socket(net, "b", 2)
        for i in range(50):
            a.sendto(i, "b", 2)
        sim.run()
        assert net.counters.dropped_loss == 0


class TestLoopback:
    def test_same_host_not_counted_as_sent(self, sim):
        net = make_net(sim)
        a = Socket(net, "a", 1)
        b = Socket(net, "a", 2)
        a.sendto("local", "a", 2)

        def receiver(sim):
            msg = yield b.recv()
            return msg.payload

        assert sim.run(sim.process(receiver(sim))) == "local"
        assert net.counters.sent == 0
        assert net.counters.local == 1

    def test_loopback_faster_than_wire(self, sim):
        net = make_net(sim)
        a = Socket(net, "a", 1)
        b = Socket(net, "a", 2)
        a.sendto("x", "a", 2)

        def receiver(sim):
            yield b.recv()
            return sim.now

        assert sim.run(sim.process(receiver(sim))) < 0.001


class TestHostDown:
    def test_down_host_receives_nothing(self, sim):
        net = make_net(sim)
        a = Socket(net, "a", 1)
        Socket(net, "b", 2)
        net.set_host_down("b")
        a.sendto("x", "b", 2)
        sim.run()
        assert net.counters.delivered == 0
        assert net.counters.dropped_unroutable == 1

    def test_down_host_sends_nothing(self, sim):
        net = make_net(sim)
        a = Socket(net, "a", 1)
        Socket(net, "b", 2)
        net.set_host_down("a")
        a.sendto("x", "b", 2)
        sim.run()
        assert net.counters.sent == 0

    def test_recovery(self, sim):
        net = make_net(sim)
        a = Socket(net, "a", 1)
        Socket(net, "b", 2)
        net.set_host_down("b")
        net.set_host_down("b", False)
        a.sendto("x", "b", 2)
        sim.run()
        assert net.counters.delivered == 1


class TestBinding:
    def test_double_bind_raises(self, sim):
        net = make_net(sim)
        Socket(net, "a", 1)
        with pytest.raises(AddressError):
            Socket(net, "a", 1)

    def test_rebind_after_close(self, sim):
        net = make_net(sim)
        s = Socket(net, "a", 1)
        s.close()
        Socket(net, "a", 1)  # no raise

    def test_ephemeral_ports_unique(self, sim):
        net = make_net(sim)
        ports = {Socket(net, "a").port for _ in range(10)}
        assert len(ports) == 10

    def test_cpu_charge_hook(self, sim):
        net = make_net(sim, send_overhead_s=0.005, recv_overhead_s=0.003)
        charged = {"a": 0.0, "b": 0.0}
        net.attach_cpu("a", lambda s: charged.__setitem__("a", charged["a"] + s))
        net.attach_cpu("b", lambda s: charged.__setitem__("b", charged["b"] + s))
        a = Socket(net, "a", 1)
        Socket(net, "b", 2)
        a.sendto("x", "b", 2)
        sim.run()
        assert charged["a"] == pytest.approx(0.005)
        assert charged["b"] == pytest.approx(0.003)
