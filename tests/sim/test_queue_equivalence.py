"""Queue-backend equivalence: heap vs calendar vs a plain-heapq oracle.

The calendar backend is only allowed to exist because it is
unobservable: every push/pop sequence must come out in exactly the
(time, priority, seq) total order the reference heap backend produces —
including the ``tiebreak_rng`` sub-key shape, where each NORMAL enqueue
draws one ``rng.random()`` in enqueue order.  These tests drive random
operation scripts (quantized + arbitrary delays, URGENT/NORMAL mixes,
pops interleaved with pushes, nested pushes from inside callbacks)
through both backends and an independent plain-``heapq`` oracle, then
assert the three pop orders are identical.

The full-system half of the contract — byte-identical ``TraceLog`` for
entire checked cluster runs — is covered by the
``verify_queue_backends`` sweep at the bottom (and by CI's 50-seed
smoke step; see docs/performance.md, "Queue backends").
"""

import heapq
import random

import pytest

from repro.sim.core import NORMAL, URGENT, Event, Simulator, Within

#: The steal-backoff-style quantized delay set: lots of exact-time
#: collisions, which is the whole point of the calendar layout.
QUANTIZED = (0.0, 0.001, 0.002, 0.004, 0.008)


class OracleQueue:
    """Plain-heapq reimplementation of the reference entry construction:
    ``(time, priority, seq, label)``, with the rng sub-key spliced in
    before ``seq`` for NORMAL entries exactly as ``Simulator._enqueue``
    does."""

    def __init__(self, rng=None):
        self.now = 0.0
        self.rng = rng
        self._heap = []
        self._seq = 0

    def push(self, delay, priority, label):
        self._seq += 1
        if self.rng is not None and priority == NORMAL:
            entry = (self.now + delay, priority, self.rng.random(), self._seq, label)
        else:
            entry = (self.now + delay, priority, self._seq, label)
        heapq.heappush(self._heap, entry)

    def pop(self):
        entry = heapq.heappop(self._heap)
        self.now = entry[0]
        return (self.now, entry[-1])

    def __len__(self):
        return len(self._heap)


class SimAdapter:
    """Drives a real :class:`Simulator` through the same script shape.

    Every pushed event carries an integer label; processing appends
    ``(now, label)`` to ``order``.  Nested pushes (from inside the
    event's callback) are triggered by the shared script, keeping the
    rng draw sequence aligned across backends and oracle.
    """

    def __init__(self, queue, rng=None):
        self.sim = Simulator(tiebreak_rng=rng, queue=queue)
        self.order = []
        self._nested = {}

    def push(self, delay, priority, label, nested=()):
        if nested:
            self._nested[label] = nested
        if priority == NORMAL:
            ev = self.sim.timeout(delay)
        else:
            ev = Event(self.sim)
            ev._ok = True
            ev._value = None
            self.sim._enqueue(ev, delay, URGENT)
        ev.subscribe(lambda _ev, label=label: self._fire(label))

    def _fire(self, label):
        self.order.append((self.sim.now, label))
        for delay, priority, sub_label in self._nested.pop(label, ()):
            self.push(delay, priority, sub_label)

    def pop(self):
        self.sim.step()

    def drain(self, use_run):
        if use_run:
            self.sim.run()
        else:
            while self.sim.peek() != float("inf"):
                self.sim.step()


def _make_script(seed, n_ops=120):
    """A reproducible script of (op, args) tuples; roughly 70% NORMAL
    pushes, 15% URGENT pushes, 15% pop bursts, with ~20% of pushed
    events carrying nested same-tick/future pushes."""
    rng = random.Random(seed)
    script = []
    label = [0]

    def delay():
        if rng.random() < 0.7:
            return rng.choice(QUANTIZED)
        return rng.uniform(0.0, 0.01)

    def fresh_push():
        label[0] += 1
        this = label[0]
        priority = NORMAL if rng.random() < 0.8 else URGENT
        nested = []
        if rng.random() < 0.2:
            for _ in range(rng.randint(1, 3)):
                label[0] += 1
                nested.append(
                    (delay(), NORMAL if rng.random() < 0.7 else URGENT, label[0])
                )
        return (delay(), priority, this, tuple(nested))

    live = 0
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.85 or live == 0:
            script.append(("push", fresh_push()))
            live += 1
        else:
            k = rng.randint(1, min(4, live))
            script.append(("pop", k))
            live -= k  # nested pushes may keep the queue fuller; fine
            live = max(live, 0)
    return script


def _run_script(seed, queue, rng_seed, use_run_drain):
    rng = random.Random(rng_seed) if rng_seed is not None else None
    if queue == "oracle":
        oracle = OracleQueue(rng)
        nested_map = {}
        order = []
        for op, arg in _make_script(seed):
            if op == "push":
                d, p, lab, nested = arg
                nested_map[lab] = nested
                oracle.push(d, p, lab)
            else:
                for _ in range(arg):
                    if not len(oracle):
                        break
                    now, lab = oracle.pop()
                    order.append((now, lab))
                    for d, p, sub in nested_map.pop(lab, ()):
                        oracle.push(d, p, sub)
        while len(oracle):
            now, lab = oracle.pop()
            order.append((now, lab))
            for d, p, sub in nested_map.pop(lab, ()):
                oracle.push(d, p, sub)
        return order
    adapter = SimAdapter(queue, rng)
    for op, arg in _make_script(seed):
        if op == "push":
            d, p, lab, nested = arg
            adapter.push(d, p, lab, nested)
        else:
            for _ in range(arg):
                if adapter.sim.peek() == float("inf"):
                    break
                adapter.pop()
    adapter.drain(use_run_drain)
    return adapter.order


@pytest.mark.parametrize("rng_seed", [None, 1, 2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_backends_match_oracle_stepped(seed, rng_seed):
    """step()-driven: heap, calendar, and the oracle pop identically."""
    oracle = _run_script(seed, "oracle", rng_seed, use_run_drain=False)
    heap = _run_script(seed, "heap", rng_seed, use_run_drain=False)
    calendar = _run_script(seed, "calendar", rng_seed, use_run_drain=False)
    assert heap == oracle
    assert calendar == oracle
    assert len(oracle) > 50  # the script actually exercised something


@pytest.mark.parametrize("rng_seed", [None, 7])
@pytest.mark.parametrize("seed", range(4))
def test_backends_match_oracle_run_drain(seed, rng_seed):
    """run()-driven (the batched fast paths) matches the same oracle."""
    oracle = _run_script(seed, "oracle", rng_seed, use_run_drain=False)
    heap = _run_script(seed, "heap", rng_seed, use_run_drain=True)
    calendar = _run_script(seed, "calendar", rng_seed, use_run_drain=True)
    assert heap == oracle
    assert calendar == oracle


def test_urgent_keeps_insertion_order_under_rng():
    """URGENT events never get a shuffle sub-key: even with a
    tiebreak_rng, same-time URGENT events pop in insertion order on
    both backends."""
    for queue in ("heap", "calendar"):
        sim = Simulator(tiebreak_rng=random.Random(0), queue=queue)
        order = []
        for i in range(10):
            ev = Event(sim)
            ev._ok = True
            ev._value = None
            ev.subscribe(lambda _ev, i=i: order.append(i))
            sim._enqueue(ev, 1.0, URGENT)
        sim.run()
        assert order == list(range(10)), queue


def test_calendar_is_the_auto_default():
    assert Simulator().queue_backend == "calendar"
    assert Simulator(queue="auto").queue_backend == "calendar"
    assert Simulator(queue="heap").queue_backend == "heap"
    assert Simulator(queue="calendar").queue_backend == "calendar"
    with pytest.raises(Exception):
        Simulator(queue="wat")


def test_timeout_pool_recycles_unreferenced_timeouts():
    """The calendar backend reuses waited-on Timeout objects, but never
    one the caller still holds a reference to."""
    sim = Simulator(queue="calendar")
    seen = []

    def waiter(sim):
        for _ in range(8):
            yield sim.timeout(1.0)
            seen.append(None)

    sim.process(waiter(sim))
    sim.run()
    assert len(seen) == 8
    assert len(sim._timeout_pool) >= 1  # the churn fed the free list

    # A held timeout must NOT be recycled out from under the holder.
    sim2 = Simulator(queue="calendar")
    held = sim2.timeout(1.0, value="mine")

    def other(sim):
        yield sim.timeout(1.0)

    sim2.process(other(sim2))
    sim2.run()
    assert held.value == "mine"
    assert all(ev is not held for ev in sim2._timeout_pool)


class _CountingSimulator(Simulator):
    """Counts the Timeouts :meth:`timeout` had to allocate (pool empty)."""

    allocated = 0

    def timeout(self, delay, value=None):
        self.allocated += not self._timeout_pool
        return super().timeout(delay, value)


@pytest.mark.parametrize("n_waiters", [1, 2])
def test_settled_deadlines_are_recycled(n_waiters):
    """A timed wait whose event came first leaves its deadline with no
    callback; when the kernel processes it — alone in its time bucket, or
    sharing one with another waiter's — it goes back to the free list like
    a waited-on timeout, so a loop of timed waits allocates a bounded
    number of Timeouts.  A deadline somebody still holds is never recycled."""
    sim = _CountingSimulator(queue="calendar")
    held = []

    def waiter(sim):
        for i in range(100):
            deadline = sim.timeout(1.0)
            if i == 0:
                held.append(deadline)
            assert (yield Within(sim.timeout(0.5), deadline)) is None
            del deadline
            yield sim.timeout(0.6)            # the deadline settles meanwhile

    for _ in range(n_waiters):
        sim.process(waiter(sim))
    sim.run()
    assert sim.allocated <= 6 * n_waiters
    assert all(ev not in held for ev in sim._timeout_pool)


def test_shuffled_runs_draw_timeouts_from_the_pool():
    """Schedule fuzzing enqueues a timeout through ``_enqueue`` (for its
    shuffle key) but takes it off the free list the drain feeds, so a
    shuffled loop of waits allocates a bounded number of Timeouts too —
    and the free list never fills with timeouts nobody draws."""
    sim = _CountingSimulator(tiebreak_rng=random.Random(7), queue="calendar")

    def waiter(sim):
        for _ in range(100):
            yield sim.timeout(1.0)

    for _ in range(2):
        sim.process(waiter(sim))
    sim.run()
    assert sim.now == 100.0 and sim.allocated <= 4
    assert len(sim._timeout_pool) <= 4


@pytest.mark.parametrize("app", ["fib", "shrink"])
def test_fuzz_traces_byte_identical_across_backends(app):
    """Full checked cluster runs: the two backends must produce
    byte-identical TraceLogs seed for seed (a small window here; the
    50-seed sweep runs in CI via ``repro check --verify-queue``)."""
    from repro.check import verify_queue_backends

    result = verify_queue_backends(app, n_seeds=6, n_workers=4)
    assert result.ok, result.summary()
