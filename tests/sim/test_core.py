"""Unit tests for the DES kernel: events, processes, interrupts, run()."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import (
    NORMAL, URGENT, Event, Flag, Interrupt, Process, Simulator, Timeout,
)
from repro.sim.resources import Signal


class TestEvent:
    def test_starts_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed
        assert ev.ok is None

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_succeed_sets_value(self, sim):
        ev = sim.event().succeed(42)
        assert ev.triggered
        assert ev.ok is True
        assert ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = sim.event().succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_then_succeed_raises(self, sim):
        ev = sim.event().fail(ValueError("x"))
        ev.defused = True
        with pytest.raises(SimulationError):
            ev.succeed(1)

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callbacks_run_on_processing(self, sim):
        ev = sim.event()
        seen = []
        ev.subscribe(lambda e: seen.append(e.value))
        ev.succeed("hello")
        sim.run()
        assert seen == ["hello"]

    def test_subscribe_after_processed_still_fires(self, sim):
        ev = sim.event().succeed(7)
        sim.run()
        assert ev.processed
        seen = []
        ev.subscribe(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]

    def test_unsubscribe_removes_callback(self, sim):
        ev = sim.event()
        cb = lambda e: (_ for _ in ()).throw(AssertionError)  # noqa: E731
        ev.subscribe(cb)
        assert ev.unsubscribe(cb)
        assert not ev.unsubscribe(cb)
        ev.succeed(None)
        sim.run()

    def test_unhandled_failure_escalates(self, sim):
        sim.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_defused_failure_does_not_escalate(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        ev.defused = True
        sim.run()  # no raise


class TestTimeout:
    def test_fires_after_delay(self, sim):
        t = sim.timeout(5.0, value="v")
        sim.run()
        assert sim.now == 5.0
        assert t.value == "v"

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_zero_delay_ok(self, sim):
        t = sim.timeout(0.0)
        sim.run()
        assert t.processed
        assert sim.now == 0.0

    def test_same_time_fifo_order(self, sim):
        order = []
        for i in range(5):
            t = sim.timeout(1.0, value=i)
            t.subscribe(lambda e: order.append(e.value))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_returns_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return "done"

        assert sim.run(sim.process(proc(sim))) == "done"

    def test_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_join_another_process(self, sim):
        def child(sim):
            yield sim.timeout(3)
            return 99

        def parent(sim):
            value = yield sim.process(child(sim))
            return value + 1

        assert sim.run(sim.process(parent(sim))) == 100
        assert sim.now == 3.0

    def test_exception_propagates_to_joiner(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise ValueError("child died")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except ValueError as exc:
                return f"caught {exc}"

        assert sim.run(sim.process(parent(sim))) == "caught child died"

    def test_unjoined_crash_escalates(self, sim):
        def bad(sim):
            yield sim.timeout(1)
            raise KeyError("unseen")

        sim.process(bad(sim))
        with pytest.raises(KeyError):
            sim.run()

    def test_yield_non_event_raises_inside_process(self, sim):
        def bad(sim):
            try:
                yield 42  # type: ignore[misc]
            except SimulationError:
                return "caught"

        assert sim.run(sim.process(bad(sim))) == "caught"

    def test_is_alive_lifecycle(self, sim):
        def proc(sim):
            yield sim.timeout(2)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_process_value_is_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return [1, 2]

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == [1, 2]

    def test_immediate_return_without_yield_is_error(self, sim):
        # A generator function that never yields still works (it returns
        # on the first resume).
        def proc(sim):
            return "instant"
            yield  # pragma: no cover - makes it a generator

        assert sim.run(sim.process(proc(sim))) == "instant"


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def victim(sim):
            try:
                yield sim.timeout(100)
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        p = sim.process(victim(sim))

        def killer(sim):
            yield sim.timeout(5)
            assert p.interrupt("because")

        sim.process(killer(sim))
        assert sim.run(p) == ("interrupted", "because", 5.0)

    def test_interrupt_finished_process_is_noop(self, sim):
        def quick(sim):
            yield sim.timeout(1)

        p = sim.process(quick(sim))
        sim.run()
        assert p.interrupt("late") is False

    def test_interrupted_process_can_continue(self, sim):
        def victim(sim):
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(2)
            return sim.now

        p = sim.process(victim(sim))

        def killer(sim):
            yield sim.timeout(1)
            p.interrupt()

        sim.process(killer(sim))
        assert sim.run(p) == 3.0

    def test_original_wait_detached_after_interrupt(self, sim):
        # After an interrupt, the original timeout firing must not
        # resume the process a second time.
        log = []

        def victim(sim):
            try:
                yield sim.timeout(10)
                log.append("timeout")
            except Interrupt:
                log.append("interrupt")
            yield sim.timeout(50)
            log.append("second wait done")

        p = sim.process(victim(sim))

        def killer(sim):
            yield sim.timeout(1)
            p.interrupt()

        sim.process(killer(sim))
        sim.run()
        assert log == ["interrupt", "second wait done"]

    def test_self_interrupt_raises(self, sim):
        def selfish(sim):
            proc = sim._active
            with pytest.raises(SimulationError):
                proc.interrupt()
            yield sim.timeout(0)

        sim.run(sim.process(selfish(sim)))


class TestSimulatorRun:
    def test_run_until_time(self, sim):
        fired = []
        sim.timeout(5).subscribe(lambda e: fired.append(5))
        sim.timeout(15).subscribe(lambda e: fired.append(15))
        sim.run(until=10.0)
        assert fired == [5]
        assert sim.now == 10.0
        sim.run(until=20.0)
        assert fired == [5, 15]

    def test_run_until_past_raises(self, sim):
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_run_until_event_returns_value(self, sim):
        def proc(sim):
            yield sim.timeout(3)
            return "x"

        assert sim.run(sim.process(proc(sim))) == "x"

    def test_run_until_event_reraises_failure(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            raise OSError("nope")

        with pytest.raises(OSError):
            sim.run(sim.process(proc(sim)))

    def test_run_until_never_firing_event_deadlocks(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(ev)

    @pytest.mark.parametrize("queue", ["heap", "calendar"])
    def test_run_until_stops_on_the_flag_or_the_deadline_and_says_which(self, queue):
        def ticker(sim, stop, fire_at):
            for tick in range(1, 11):
                yield sim.timeout(1.0)
                if tick == fire_at:
                    stop.fired = True

        def build(fire_at):
            sim = Simulator(queue=queue)
            stop = Flag()
            sim.process(ticker(sim, stop, fire_at))
            return sim, stop

        sim, stop = build(fire_at=4)
        assert sim.run_until(stop, 100.0) is True
        assert sim.now == 4.0  # stopped right after the firing callback
        processed = sim.events_processed
        assert sim.run_until(stop, 100.0) is True  # already fired: nothing runs
        assert sim.events_processed == processed

        sim, stop = build(fire_at=None)
        assert sim.run_until(stop, 6.5) is False
        assert sim.now == 6.0 and sim.peek() == 7.0  # the clock is not moved
        assert sim.run_until(stop) is False  # no deadline: until nothing is left
        assert sim.now == 10.0 and sim.peek() == float("inf")

        # Stopped mid-bucket (three events share t=1.0), then asked to run
        # to a deadline *before* that bucket: nothing more may run.
        sim, stop = build(fire_at=None)
        fired = []

        def hit(_ev, name):
            fired.append(name)
            stop.fired = name == "a"

        for name in "abc":
            sim.timeout(1.0).subscribe(lambda ev, name=name: hit(ev, name))
        assert sim.run_until(stop, 100.0) is True and fired == ["a"]
        assert sim.run_until(Flag(), 0.5) is False
        assert fired == ["a"] and sim.now == sim.peek() == 1.0
        assert sim.run_until(Flag(), 1.0) is False and fired == ["a", "b", "c"]

    @pytest.mark.parametrize("queue", ["heap", "calendar"])
    def test_run_to_a_horizon_then_resume(self, queue):
        sim = Simulator(queue=queue)
        hits = []
        for d in (1.0, 2.0, 3.0, 4.0):
            sim.timeout(d).subscribe(lambda ev: hits.append(ev.sim.now))
        sim.run(until=2.5)
        assert hits == [1.0, 2.0]
        assert sim.now == 2.5
        sim.timeout(1.0).subscribe(lambda ev: hits.append(ev.sim.now))  # due 3.5
        sim.run()
        assert hits == [1.0, 2.0, 3.0, 3.5, 4.0]

    @pytest.mark.parametrize("queue", ["heap", "calendar"])
    def test_nan_delay_is_rejected_and_inf_is_legal(self, queue):
        sim = Simulator(queue=queue)
        nan = float("nan")
        for schedule in (lambda: sim.timeout(nan),
                         lambda: Timeout(sim, nan),
                         lambda: sim.event().succeed(None, delay=nan)):
            with pytest.raises(SimulationError, match="nan"):
                schedule()
        assert sim.peek() == float("inf")  # nothing slipped into the queue
        sim.timeout(float("inf"))
        sim.timeout(1.0)
        sim.run(until=2.0)
        assert sim.events_processed == 1 and sim.peek() == float("inf")

    def test_simulator_is_the_production_queue_and_the_reference_is_plain(self):
        from repro.sim.core import ReferenceSimulator

        sim = Simulator()
        assert type(sim) is Simulator and sim.queue_backend == "calendar"
        ref = Simulator(queue="heap")
        assert type(ref) is ReferenceSimulator and ref.queue_backend == "heap"
        # One run loop each: the production queue's batched drain, and
        # the reference's one step() at a time (no inlined timeout, no
        # Timeout pool).
        assert ReferenceSimulator._advance is not Simulator._advance
        assert not hasattr(sim, "monitor") and not hasattr(sim, "_step_through")
        assert not hasattr(ref, "_timeout_pool")
    def test_run_until_takes_a_signal_or_a_subscribed_flag(self, sim):
        done = Signal(sim)

        def setter():
            yield sim.timeout(2.0)
            done.set("ok")
            yield sim.timeout(5.0)

        sim.process(setter())
        assert sim.run_until(done, 10.0) is True and sim.now == 2.0
        seen = Flag()
        sim.timeout(1.0).subscribe(seen)  # fires when that event is processed
        assert sim.run_until(seen) is True and sim.now == 3.0

    def test_step_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4)
        assert sim.peek() == 4.0

    def test_urgent_before_normal(self, sim):
        order = []
        e1 = sim.event()
        e1.subscribe(lambda e: order.append("normal"))
        e1.succeed(None, priority=NORMAL)
        e2 = sim.event()
        e2.subscribe(lambda e: order.append("urgent"))
        e2.succeed(None, priority=URGENT)
        sim.run()
        assert order == ["urgent", "normal"]

    def test_events_processed_counter(self, sim):
        for _ in range(7):
            sim.timeout(1)
        sim.run()
        assert sim.events_processed == 7

    def test_call_soon_runs_from_loop(self, sim):
        seen = []
        sim.call_soon(lambda: seen.append(sim.now))
        assert seen == []  # not synchronous
        sim.run()
        assert seen == [0.0]

    @pytest.mark.parametrize("queue", ["calendar", "heap"])
    def test_call_soon_runs_ahead_of_queued_normal_events(self, queue):
        sim = Simulator(queue=queue)
        order = []

        def at_one(_ev):
            sim.event().succeed().subscribe(lambda e: order.append("normal"))
            sim.call_soon(order.append, "soon")
            sim.call_soon(order.append, "soon 2")

        sim.timeout(1.0).subscribe(at_one)
        sim.timeout(1.0).subscribe(lambda e: order.append("queued earlier"))
        sim.run()
        assert order == ["soon", "soon 2", "queued earlier", "normal"]

    def test_negative_delay_enqueue_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            ev.succeed(None, delay=-0.5)

    def test_determinism_same_structure(self):
        def build():
            s = Simulator()
            order = []

            def proc(s, name, d):
                yield s.timeout(d)
                order.append((name, s.now))

            for i, d in enumerate([3, 1, 2, 1, 3]):
                s.process(proc(s, i, d))
            s.run()
            return order

        assert build() == build()
