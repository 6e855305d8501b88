"""Tests for Store, Channel, Signal."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.resources import Channel, Signal, Store


class TestStore:
    def test_put_get_fifo(self, sim):
        st = Store(sim)
        out = []

        def producer(sim):
            for i in range(4):
                yield st.put(i)

        def consumer(sim):
            for _ in range(4):
                out.append((yield st.get()))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert out == [0, 1, 2, 3]

    def test_capacity_blocks_put(self, sim):
        st = Store(sim, capacity=1)
        log = []

        def producer(sim):
            yield st.put("a")
            log.append(("put-a", sim.now))
            yield st.put("b")
            log.append(("put-b", sim.now))

        def consumer(sim):
            yield sim.timeout(5)
            yield st.get()

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert log == [("put-a", 0.0), ("put-b", 5.0)]

    def test_get_blocks_until_item(self, sim):
        st = Store(sim)

        def consumer(sim):
            value = yield st.get()
            return (value, sim.now)

        def producer(sim):
            yield sim.timeout(3)
            yield st.put("late")

        p = sim.process(consumer(sim))
        sim.process(producer(sim))
        assert sim.run(p) == ("late", 3.0)

    def test_invalid_capacity(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_cancel_get(self, sim):
        st = Store(sim)
        ev = st.get()
        assert st.cancel_get(ev)
        assert not st.cancel_get(ev)
        st.put(1)
        # The cancelled getter must not consume the item.
        assert list(st.items) == [1]

    def test_len(self, sim):
        st = Store(sim)
        st.put(1)
        st.put(2)
        assert len(st) == 2


class TestChannel:
    def test_send_never_blocks(self, sim):
        ch = Channel(sim)
        for i in range(1000):
            ch.send(i)
        assert len(ch) == 1000

    def test_recv_in_order(self, sim):
        ch = Channel(sim)
        ch.send("a")
        ch.send("b")
        out = []

        def consumer(sim):
            out.append((yield ch.recv()))
            out.append((yield ch.recv()))

        sim.process(consumer(sim))
        sim.run()
        assert out == ["a", "b"]

    def test_send_to_a_parked_receiver_costs_only_its_wakeup(self, sim):
        ch = Channel(sim)
        got = ch.recv()
        sim.run()
        before = sim.events_processed
        ch.send("m")
        assert got.value == "m" and len(ch) == 0 and not ch._getters
        sim.run()
        assert sim.events_processed == before + 1  # the receive; no put event

    def test_send_into_the_buffer_costs_no_event(self, sim):
        ch = Channel(sim)
        ch.send("m")
        assert list(ch.items) == ["m"]
        sim.run()
        assert sim.events_processed == 0
        assert list(ch.items) == ["m"]

    def test_send_serves_parked_receivers_fifo(self, sim):
        ch = Channel(sim)
        first, second, third = ch.recv(), ch.recv(), ch.recv()
        ch.cancel_get(second)
        ch.send("a")
        ch.send("b")
        ch.send("c")
        assert (first.value, third.value) == ("a", "b")
        assert not second.triggered and list(ch.items) == ["c"]

    def test_send_takes_the_put_path_under_a_tiebreak_rng(self):
        """The put completion's shuffle key is part of a fuzz schedule."""
        sim = Simulator(tiebreak_rng=random.Random(7))
        ch = Channel(sim)
        puts = []
        ch.put = lambda item: puts.append(item) or Store.put(ch, item)
        got = ch.recv()
        ch.send("a")
        ch.send("b")
        assert puts == ["a", "b"]
        assert got.value == "a" and list(ch.items) == ["b"]
        sim.run()
        assert sim.events_processed == 3  # two put completions + the receive


class TestSignal:
    def test_broadcast_wakes_all(self, sim):
        sig = Signal(sim)
        woken = []

        def waiter(sim, name):
            value = yield sig.wait()
            woken.append((name, value, sim.now))

        for n in "abc":
            sim.process(waiter(sim, n))

        def setter(sim):
            yield sim.timeout(4)
            sig.set("go")

        sim.process(setter(sim))
        sim.run()
        assert sorted(woken) == [("a", "go", 4.0), ("b", "go", 4.0), ("c", "go", 4.0)]

    def test_wait_after_set_immediate(self, sim):
        sig = Signal(sim)
        sig.set(123)

        def waiter(sim):
            value = yield sig.wait()
            return (value, sim.now)

        assert sim.run(sim.process(waiter(sim))) == (123, 0.0)

    def test_double_set_is_noop(self, sim):
        sig = Signal(sim)
        sig.set(1)
        sig.set(2)
        assert sig.value == 1

    def test_is_set(self, sim):
        sig = Signal(sim)
        assert not sig.is_set
        sig.set()
        assert sig.is_set
