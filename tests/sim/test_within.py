"""The timed wait: ``value = yield Within(event, deadline)``."""

import pytest

from repro.sim.core import EXPIRED, Event, Interrupt, Simulator, Within
from repro.sim.events import AnyOf


def test_event_first_resumes_with_its_value(sim):
    def proc(sim):
        got = yield Within(sim.timeout(1, value="reply"), sim.timeout(5))
        return sim.now, got

    assert sim.run(sim.process(proc(sim))) == (1.0, "reply")


def test_deadline_first_resumes_with_expired(sim):
    def proc(sim):
        got = yield Within(Event(sim), sim.timeout(5))
        return sim.now, got

    now, got = sim.run(sim.process(proc(sim)))
    assert (now, got) == (5.0, EXPIRED)


@pytest.mark.parametrize("event_first", [True, False])
def test_same_instant_resolves_as_anyof_did(event_first):
    """Both sides due at t=2: the side processed first (insertion order)
    wins, under either spelling."""

    def sides(sim):
        if event_first:
            event = sim.timeout(2, value="reply")
            return event, sim.timeout(2)
        deadline = sim.timeout(2)
        return sim.timeout(2, value="reply"), deadline

    def timed(sim):
        got = yield Within(*sides(sim))
        return "expired" if got is EXPIRED else got

    def conditioned(sim):
        event, deadline = sides(sim)
        settled = yield AnyOf(sim, [event, deadline])
        return settled[event] if event in settled else "expired"

    outcomes = []
    for proc in (timed, conditioned):
        sim = Simulator()
        outcomes.append(sim.run(sim.process(proc(sim))))
    assert outcomes == ["reply" if event_first else "expired"] * 2


def test_failing_event_is_thrown_into_the_process(sim):
    awaited = Event(sim)

    def proc(sim):
        try:
            yield Within(awaited, sim.timeout(5))
        except KeyError as exc:
            return "caught", exc.args[0], sim.now

    def failer(sim):
        yield sim.timeout(1)
        awaited.fail(KeyError("lost"))

    p = sim.process(proc(sim))
    sim.process(failer(sim))
    assert sim.run(p) == ("caught", "lost", 1.0)
    sim.run()  # the deadline drains without anybody to tell
    assert awaited.defused


def test_one_deadline_bounds_several_waits(sim):
    """rpc_call's stray-datagram loop: keep waiting under the same timer."""

    def proc(sim):
        deadline = sim.timeout(10)
        seen = []
        while True:
            got = yield Within(sim.timeout(3, value=sim.now), deadline)
            seen.append((sim.now, got))
            if got is EXPIRED:
                return seen

    assert sim.run(sim.process(proc(sim))) == [
        (3.0, 0.0), (6.0, 3.0), (9.0, 6.0), (10.0, EXPIRED)]


def test_already_processed_sides_resolve_at_once(sim):
    def proc(sim):
        done = sim.timeout(1, value="early")
        deadline = sim.timeout(2)
        yield sim.timeout(3)
        first = yield Within(done, deadline)       # both processed: event wins
        second = yield Within(Event(sim), deadline)
        return sim.now, first, second

    assert sim.run(sim.process(proc(sim))) == (3.0, "early", EXPIRED)


def _interrupted(sim, wait):
    """Events a run costs when a process parked on *wait(sim, event,
    deadline)* is interrupted at t=1 and both sides still fire later."""
    log = []
    event = Event(sim)
    deadline = sim.timeout(10)

    def victim(sim):
        try:
            yield wait(sim, event, deadline)
            log.append("resumed")
        except Interrupt as intr:
            log.append(intr.cause)
        yield sim.timeout(50)
        log.append("second wait done")

    p = sim.process(victim(sim))

    def killer(sim):
        yield sim.timeout(1)
        p.interrupt("reclaimed")
        assert not event.callbacks and not deadline.callbacks
        yield sim.timeout(4)
        event.succeed("late")

    sim.process(killer(sim))
    sim.run()
    assert log == ["reclaimed", "second wait done"]
    return sim.events_processed


def test_interrupt_while_parked_disarms_both_sides(sim):
    """The abandoned wait leaves no ghost: neither side still calls into
    the process (the AnyOf spelling left a condition subscribed to both,
    which then fired for nobody), so it costs exactly what abandoning a
    plain ``yield event`` costs."""
    timed = _interrupted(sim, lambda sim, event, deadline: Within(event, deadline))
    plain = _interrupted(Simulator(), lambda sim, event, deadline: event)
    assert timed == plain


def test_interrupt_during_the_relay_hop(sim):
    """The event was processed and the hop is queued when the interrupt
    lands: the process sees the interrupt only."""
    event = Event(sim)
    log = []

    def victim(sim):
        try:
            log.append((yield Within(event, sim.timeout(5))))
        except Interrupt:
            log.append("interrupt")
        log.append((yield sim.timeout(20, value="later")))

    p = sim.process(victim(sim))

    def trigger(sim):
        yield sim.timeout(1)
        event.subscribe(lambda _ev: p.interrupt())  # runs after the settle
        event.succeed("reply")

    sim.process(trigger(sim))
    sim.run()
    assert log == ["interrupt", "later"]


def test_interrupt_beats_an_already_processed_side(sim):
    """A processed side is subscribed through call_soon, which cannot be
    withdrawn; its late call finds the wait abandoned and does nothing."""
    done = sim.timeout(1, value="early")
    sim.run()
    log = []

    def victim(sim):
        try:
            log.append((yield Within(done, sim.timeout(5))))
        except Interrupt:
            log.append("interrupt")
        log.append((yield sim.timeout(20, value="later")))

    p = sim.process(victim(sim))
    # Queued behind the victim's boot, ahead of the call_soon its first
    # yield makes: the interrupt lands between the two.
    sim.call_soon(p.interrupt)
    sim.run()
    assert log == ["interrupt", "later"]


@pytest.mark.parametrize("winner", ["event", "deadline"])
def test_late_trigger_of_the_other_side_is_inert(sim, winner):
    event = Event(sim)
    resumes = []

    def proc(sim):
        resumes.append((yield Within(event, sim.timeout(5))))
        yield sim.timeout(100)
        resumes.append("end")

    def trigger(sim):
        yield sim.timeout(1 if winner == "event" else 9)
        event.succeed("reply")

    sim.process(proc(sim))
    sim.process(trigger(sim))
    sim.run(until=50)
    assert resumes == ["reply" if winner == "event" else EXPIRED]
    assert event.callbacks is None  # processed, with nobody subscribed
    sim.run()
    assert resumes[1:] == ["end"]


def test_settled_deadline_drains_without_callbacks(sim):
    deadline = sim.timeout(5)

    def proc(sim):
        yield Within(sim.timeout(1), deadline)

    sim.run(sim.process(proc(sim)))
    assert deadline.callbacks == []
