"""Tests for the Socket API."""

import pytest

from repro.errors import NetworkError
from repro.net.socket import Socket


def test_addr(network):
    s = Socket(network, "h", 42)
    assert s.addr == ("h", 42)


def test_pending_count(sim, network):
    a = Socket(network, "a", 1)
    b = Socket(network, "b", 2)
    for i in range(3):
        a.sendto(i, "b", 2)
    sim.run()
    assert [m.payload for m in b.buffered_messages()] == [0, 1, 2]


def test_closed_socket_raises(network):
    s = Socket(network, "a", 1)
    s.close()
    with pytest.raises(NetworkError):
        s.sendto("x", "b", 2)
    with pytest.raises(NetworkError):
        s.recv()


def test_close_idempotent(network):
    s = Socket(network, "a", 1)
    s.close()
    s.close()


def test_message_to_closed_socket_dropped(sim, network):
    a = Socket(network, "a", 1)
    b = Socket(network, "b", 2)
    b.close()
    a.sendto("x", "b", 2)
    sim.run()
    assert network.counters.dropped_unroutable == 1


def test_cancel_recv(sim, network):
    a = Socket(network, "a", 1)
    b = Socket(network, "b", 2)
    ev = b.recv()
    assert b.cancel_recv(ev)
    a.sendto("x", "b", 2)
    sim.run()
    # The cancelled recv must not have consumed the message.
    assert [m.payload for m in b.buffered_messages()] == ["x"]


def test_reply_addr(sim, network):
    a = Socket(network, "a", 7)
    b = Socket(network, "b", 8)
    a.sendto("ping", "b", 8)

    def responder(sim):
        msg = yield b.recv()
        return msg.reply_addr()

    assert sim.run(sim.process(responder(sim))) == ("a", 7)
