"""Property tests on the simulation kernel."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import EXPIRED, Event, Interrupt, Simulator, Within
from repro.sim.events import AnyOf
from repro.sim.resources import Store


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=200)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.timeout(d).subscribe(lambda e, d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                       min_size=1, max_size=30))
@settings(max_examples=100)
def test_equal_delays_preserve_creation_order(delays):
    sim = Simulator()
    order = []
    for i, d in enumerate(delays):
        sim.timeout(round(d, 1)).subscribe(lambda e, i=i: order.append(i))
    sim.run()
    # Among equal times, creation order is preserved (stable schedule).
    by_time = {}
    for i in order:
        by_time.setdefault(round(delays[i], 1), []).append(i)
    for same_time in by_time.values():
        assert same_time == sorted(same_time)


@given(items=st.lists(st.integers(), min_size=0, max_size=100),
       capacity=st.integers(min_value=1, max_value=10))
@settings(max_examples=100)
def test_store_fifo_under_any_capacity(items, capacity):
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    received = []

    def producer(sim):
        for item in items:
            yield store.put(item)

    def consumer(sim):
        for _ in items:
            received.append((yield store.get()))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert received == items


@given(seed=st.integers(min_value=0, max_value=2**16),
       n=st.integers(min_value=1, max_value=20))
@settings(max_examples=50)
def test_process_tree_joins_deterministically(seed, n):
    def build(seed):
        rng = random.Random(seed)
        sim = Simulator()
        results = []

        def child(sim, i, d):
            yield sim.timeout(d)
            return i

        def parent(sim):
            procs = [sim.process(child(sim, i, rng.random() * 10)) for i in range(n)]
            for p in procs:
                results.append((yield p))

        sim.process(parent(sim))
        sim.run()
        return results, sim.now

    assert build(seed) == build(seed)


def _timed_wait_trace(spelling, queue, rng_seed, plans, interrupts):
    """Resume log of *plans* (one process each: a list of ``(event_delay,
    deadline_delay, fresh_deadline, plain_event)`` waits) with every
    timed wait written in *spelling*."""
    sim = Simulator(queue=queue,
                    tiebreak_rng=None if rng_seed is None else random.Random(rng_seed))
    log = []

    def wait(event, deadline):
        if spelling == "within":
            got = yield Within(event, deadline)
            return "expired" if got is EXPIRED else got
        settled = yield AnyOf(sim, [event, deadline])
        return settled[event] if event in settled else "expired"

    def proc(pid, plan):
        deadline = None
        for step, (ev_delay, dl_delay, fresh, plain) in enumerate(plan):
            if plain:
                # Triggered from another event's callback: one more hop.
                event = Event(sim)
                sim.timeout(ev_delay).subscribe(
                    lambda _ev, event=event, step=step: event.succeed(step))
            else:
                event = sim.timeout(ev_delay, value=step)
            if fresh or deadline is None:
                deadline = sim.timeout(dl_delay)
            try:
                got = yield from wait(event, deadline)
            except Interrupt:
                got = "interrupt"
            log.append((sim.now, pid, step, got))

    procs = [sim.process(proc(pid, plan)) for pid, plan in enumerate(plans)]
    for at, pid in interrupts:
        sim.timeout(at).subscribe(
            lambda _ev, p=procs[pid % len(procs)]: p.interrupt())
    sim.run()
    return log


_TICKS = st.integers(min_value=0, max_value=3).map(float)
_PLANS = st.lists(
    st.lists(st.tuples(_TICKS, _TICKS, st.booleans(), st.booleans()),
             min_size=1, max_size=4),
    min_size=1, max_size=4)


@given(plans=_PLANS, rng_seed=st.one_of(st.none(), st.integers(0, 2**16)))
@settings(max_examples=150, deadline=None)
def test_timed_wait_resumes_in_the_order_anyof_did(plans, rng_seed):
    """Delays on a 4-tick grid, so same-time races are the common case;
    with and without a fuzz shuffle (same rng draws, same schedule)."""
    traces = [_timed_wait_trace(spelling, queue, rng_seed, plans, [])
              for spelling in ("within", "anyof") for queue in ("calendar", "heap")]
    assert all(trace == traces[0] for trace in traces)
    assert len(traces[0]) == sum(map(len, plans))


@given(plans=_PLANS,
       interrupts=st.lists(st.tuples(_TICKS, st.integers(0, 3)), max_size=4))
@settings(max_examples=100, deadline=None)
def test_interrupted_timed_waits_resume_in_the_order_anyof_did(plans, interrupts):
    """Insertion order only: an abandoned AnyOf's ghost event drew a
    shuffle key that the timed wait, rightly, does not."""
    traces = [_timed_wait_trace(spelling, queue, None, plans, interrupts)
              for spelling in ("within", "anyof") for queue in ("calendar", "heap")]
    assert all(trace == traces[0] for trace in traces)
