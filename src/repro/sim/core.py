"""Core of the discrete-event simulation kernel.

The design follows the process-interaction paradigm: simulation *processes*
are Python generators that ``yield`` :class:`Event` objects to wait on
them.  The :class:`Simulator` owns the clock and a priority queue of
triggered events; processing an event runs its callbacks, which resume the
processes waiting on it.

Determinism: events scheduled for the same time are processed in
(priority, insertion-order) order, so runs are exactly reproducible.

Schedule-space exploration: the insertion-order tie-break is only *one*
legal interleaving of same-time events.  Constructing the simulator with
``tiebreak_rng`` (a seeded ``random.Random``) replaces the insertion-order
key of NORMAL-priority events with a random one, yielding a different —
but still reproducible — interleaving per seed.  The schedule fuzzer in
:mod:`repro.check` uses this to search for interleaving bugs; URGENT
events keep strict insertion order because the kernel relies on it for
its own bookkeeping.

The event queue (this module is the hottest code in the repository —
every message, timeout, and task execution passes through it):

:class:`Simulator` is a calendar/bucket queue that exploits the timeout
quantization of the scheduled workload (steal backoffs, heartbeats, and
retry timers recur at a handful of deltas, so many events share exact
trigger times).  Events are bucketed by exact float timestamp in a dict;
a small heap of *distinct* times orders the buckets.  Within a bucket,
URGENT events drain FIFO first, then NORMAL events FIFO — which *is*
(priority, seq) order, so no per-event tuples or comparisons are needed
at all (bucket shapes and the ``tiebreak_rng`` variant: the class
docstring).

``Simulator(queue="heap")`` builds :class:`ReferenceSimulator` instead:
one ``heapq`` of ``(time, priority, [sub,] seq, event)`` tuples popped
one event at a time.  Its job is to be slow, obviously correct, and
never on a production path — it is the written-down definition of the
total order the calendar queue must reproduce.  The property tests in
``tests/sim/test_queue_equivalence.py`` drive both against an
independent plain-heapq oracle, and ``repro check --verify-queue``
asserts byte-identical traces for full cluster runs (see
docs/performance.md, "Queue backends").  ``"auto"`` and ``"calendar"``
both name the production queue.

Other hot-path machinery:

* :class:`Timeout` events start with a shared immutable empty-callbacks
  marker instead of a fresh list; :meth:`Event.subscribe` materialises a
  real list on first use.  ``processed`` remains ``callbacks is None``.
* :class:`Timeout` objects are recycled through a per-simulator free
  list: after a waited-on timeout has fired and its callbacks (none left
  for a settled deadline) have run, ``sys.getrefcount`` proves no
  caller still holds a reference, and the object is reused by a later
  :meth:`Simulator.timeout` call instead of allocating a fresh one.
* A :class:`Process` binds its wake callbacks (``_resume``, ``_settle``)
  once: a wait subscribes the stored bound method, not a fresh one, and
  ``_resume`` inlines the subscription.
* :meth:`Simulator.call_soon` and the already-processed branch of
  :meth:`Event.subscribe` ride pooled slotted one-shot events
  (:class:`_SoonEvent`) — no per-call lambda, list, or garbage event.
* ``run()`` — in all of its forms (to exhaustion, to a horizon, to an
  awaited event) — and ``run_until()`` use one batched drain loop that
  writes the clock and the processed-events counter back only when user
  code can observe them; only :class:`ReferenceSimulator` dispatches
  ``step()`` per event.
"""

from __future__ import annotations

import sys
from heapq import heappop as _heappop, heappush as _heappush
from bisect import insort as _insort
from typing import Any, Callable, Generator, List, Optional

from repro.errors import SimulationError

#: Event priorities. URGENT events at a given time are processed before
#: NORMAL ones; insertion order breaks remaining ties.
URGENT = 0
NORMAL = 1

_PENDING = object()

#: Shared "no callbacks yet" marker for events created on the hot path.
#: Immutable and falsy: the kernel skips the callback loop, and
#: ``subscribe`` swaps in a real list the first time one is needed.
_NO_CALLBACKS: tuple = ()

_INF = float("inf")

#: Recognised queue-backend names for ``Simulator(queue=...)``.
QUEUE_BACKENDS = ("auto", "heap", "calendar")

#: Free-list bounds: per-simulator pools never grow past these, so a
#: burst of events cannot pin memory forever.
_TIMEOUT_POOL_MAX = 1024
_SOON_POOL_MAX = 64

#: ``sys.getrefcount`` where available (CPython); the fallback returns a
#: count that never matches, disabling event recycling rather than
#: risking a live object in the pool.
_refcount = getattr(sys, "getrefcount", lambda _obj: -1)

_DEADLOCK_MSG = (
    "simulation ran out of events before the awaited event triggered "
    "(deadlock?)"
)


class Interrupt(Exception):
    """Delivered into a process by :meth:`Process.interrupt`.

    The macro-level scheduler uses this to model a workstation owner
    reclaiming their machine: the worker process is interrupted at its
    next yield point and must migrate its tasks before dying.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *pending* until someone calls :meth:`succeed` or
    :meth:`fail` (which also enqueues it), *triggered* once it has a
    value, and *processed* after the simulator has run its callbacks.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks to run when processed; ``None`` once processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure has been delivered to a waiter; prevents the
        #: kernel from escalating the failure to the whole run.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True/False after triggering; None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully and schedule its processing."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event with a failure; waiters get the exception thrown."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, delay, priority)
        return self

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Run *callback(event)* when this event is processed.

        If the event was already processed, the callback is delivered on a
        fresh zero-delay event so that it still runs from the event loop
        (never synchronously from the subscriber's stack).
        """
        callbacks = self.callbacks
        if callbacks is None:
            self.sim.call_soon(callback, self)
        elif callbacks is _NO_CALLBACKS:
            self.callbacks = [callback]
        else:
            callbacks.append(callback)

    def unsubscribe(self, callback: Callable[["Event"], None]) -> bool:
        """Remove a previously-subscribed callback; True if it was present."""
        callbacks = self.callbacks
        if callbacks is None or callbacks is _NO_CALLBACKS:
            return False
        try:
            callbacks.remove(callback)
            return True
        except ValueError:
            return False

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        self.sim = sim
        self.callbacks = _NO_CALLBACKS
        self._value = value
        self._ok = True
        self.defused = False
        sim._enqueue(self, delay, NORMAL)


_NO_ARG = object()


def _run_soon(ev: "_SoonEvent") -> None:
    """Shared callback of every :class:`_SoonEvent`: invoke the stored
    function, then return the event to its simulator's pool (a reuse
    mid-callback reinitialises every field before the kernel looks at
    the event again, so recycling here is safe)."""
    fn = ev.fn
    arg = ev.arg
    ev.fn = ev.arg = None
    pool = ev.sim._soon_pool
    if len(pool) < _SOON_POOL_MAX:
        pool.append(ev)
    if arg is _NO_ARG:
        fn()
    else:
        fn(arg)


class _SoonEvent(Event):
    """Pooled one-shot carrier behind :meth:`Simulator.call_soon`.

    Never exposed outside the kernel: its ``callbacks`` is the shared
    :data:`_SOON_CBS` tuple (the kernel only iterates callbacks and
    replaces the attribute with None), so scheduling a callback
    allocates no list and no closure — and usually no event either,
    thanks to the per-simulator free list.
    """

    __slots__ = ("fn", "arg")


_SOON_CBS = (_run_soon,)


class Flag:
    """A stop marker for :meth:`Simulator.run_until`: flip ``fired`` from
    code an event callback runs, or subscribe the flag itself to an
    event (it fires when that event is processed)."""

    __slots__ = ("fired",)

    def __init__(self) -> None:
        self.fired = False

    def __call__(self, _ev: Event) -> None:
        self.fired = True


#: What a process is resumed with when a timed wait's deadline came first.
EXPIRED = object()


class Within:
    """The timed wait, ``value = yield Within(event, deadline)``: a request,
    not an event.  The process resumes with *event*'s value, or with
    :data:`EXPIRED` if *deadline* — the caller's, so one timer can bound
    several waits — is processed first; a failure of either is thrown."""

    __slots__ = ("event", "deadline")

    def __init__(self, event: Event, deadline: Event) -> None:
        self.event = event
        self.deadline = deadline


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it succeeds with the generator's
    return value, or fails with its uncaught exception, when the
    generator finishes.  Other processes can therefore ``yield proc`` to
    join it.
    """

    __slots__ = ("_gen", "_target", "_started", "name", "_resume_cb", "_settle_cb")

    def __init__(self, sim: "Simulator", gen: Generator, name: Optional[str] = None) -> None:
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(f"Process requires a generator, got {gen!r}")
        super().__init__(sim)
        self._gen: Optional[Generator] = gen
        #: False until the generator has been resumed at least once.
        self._started = False
        self.name = name or getattr(gen, "__name__", "process")
        #: The wake callbacks, bound once (every wait subscribes these).
        self._resume_cb = self._resume
        self._settle_cb = self._settle
        sim._live[self] = None
        # Kick the generator off from the event loop, not synchronously.
        # The boot event is tracked as the current wait target so that an
        # interrupt landing before the first resume detaches it cleanly.
        self._target: "Event | Within | None" = self._wake(True, None, URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._gen is not None

    def interrupt(self, cause: Any = None) -> bool:
        """Throw :class:`Interrupt` into the process at its next resume.

        Returns False (and does nothing) if the process already finished —
        a benign race when, e.g., a worker terminates naturally just as
        its owner reclaims the workstation.
        """
        if not self.is_alive:
            return False
        if self.sim._active is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever we were waiting on (both sides of a timed
        # wait, or its deadline fires for nobody) so we are not resumed twice.
        target = self._target
        if type(target) is Within:
            target.event.unsubscribe(self._settle_cb)
            target.deadline.unsubscribe(self._settle_cb)
        elif target is not None:
            target.unsubscribe(self._resume_cb)
        self._target = None
        self._wake(False, Interrupt(cause), URGENT)
        return True

    # -- internal ---------------------------------------------------------

    def _wake(self, ok: bool, value: Any, priority: int) -> Event:
        """Queue a zero-delay event that sends *value* into the process,
        or throws it when not *ok*."""
        sim = self.sim
        ev = Event.__new__(Event)
        ev.sim = sim
        ev.callbacks = [self._resume_cb]
        ev._ok = ok
        ev._value = value
        ev.defused = not ok  # delivered in-band, never escalated
        sim._enqueue(ev, 0.0, priority)
        return ev

    def _resume(self, event: Event) -> None:
        gen = self._gen
        if gen is None:  # finished before a queued interrupt arrived
            event.defused = True
            return
        self._target = None
        sim = self.sim
        sim._active = self
        try:
            if event._ok:
                self._started = True
                target = gen.send(event._value)
            else:
                event.defused = True
                if not self._started:
                    # The generator never started: throwing would raise at
                    # its definition line instead of delivering in-band.
                    # Treat the interrupt as a quiet cancellation.
                    self._gen = None
                    del sim._live[self]
                    sim._active = None
                    self.succeed(None, priority=URGENT)
                    return
                target = gen.throw(event._value)
        except StopIteration as stop:
            self._gen = None
            del sim._live[self]
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            self._gen = None
            del sim._live[self]
            self.fail(exc, priority=URGENT)
            return
        finally:
            sim._active = None

        if not isinstance(target, Event):
            if type(target) is Within:
                # Event first, as AnyOf([event, deadline]) subscribed them.
                self._target = target
                target.event.subscribe(self._settle_cb)
                target.deadline.subscribe(self._settle_cb)
                return
            # Deliver the misuse as an error inside the generator so the
            # offending process gets a useful traceback.
            self._wake(False, SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            ), URGENT)
            return
        if target.sim is not sim:
            raise SimulationError("cannot wait on an event from another Simulator")
        self._target = target
        callbacks = target.callbacks  # Event.subscribe, inlined
        if callbacks is None:
            sim.call_soon(self._resume_cb, target)
        elif callbacks is _NO_CALLBACKS:
            target.callbacks = [self._resume_cb]
        else:
            callbacks.append(self._resume_cb)

    def _settle(self, side: Event) -> None:
        """The first side of the parked timed wait was processed: drop the
        other side's subscription and resume one NORMAL zero-delay hop
        later.  The hop is the queue slot (and ``tiebreak_rng`` draw) of
        the ``AnyOf`` event this replaces, so same-time order is unchanged."""
        wait = self._target
        if type(wait) is not Within:
            # Abandoned by an interrupt, which cannot withdraw the
            # call_soon that subscribing an already-processed side makes.
            return
        expired = side is not wait.event
        (wait.event if expired else wait.deadline).unsubscribe(self._settle_cb)
        side.defused = True  # a failure is delivered through the hop
        self._target = self._wake(
            side._ok, EXPIRED if expired and side._ok else side._value, NORMAL)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The event loop: a clock plus a calendar queue of triggered events.

    Events are bucketed by exact trigger time in ``_buckets``; a heap of
    distinct times (``_times``) orders the buckets.  Bucket shapes:

    * a bare :class:`Event` — a single NORMAL event, no ``tiebreak_rng``
      (the dominant case when trigger times are mostly unique); promoted
      to a full bucket if a second event lands on the same time;
    * a list ``[urgent, normal, u_i, n_i, sorted]`` — ``urgent`` (a list
      or None) drains FIFO first, then ``normal``; ``u_i``/``n_i`` are
      drain cursors so mid-drain arrivals at the same time are picked up
      in exactly (priority, seq) order.  With a ``tiebreak_rng``,
      ``normal`` holds ``(sub, seq, event)`` tuples, is sorted when
      first drained (``sorted`` flag), and mid-drain arrivals are
      bisected into the remaining tail.

    A drained bucket is deleted only once exhausted, so same-time
    arrivals during its callbacks always join the live bucket; the
    one-bucket-at-a-time invariant (``_cur``) holds because the clock
    never moves backwards.

    Args:
        tiebreak_rng: optional seeded RNG perturbing same-time
            NORMAL-event order (schedule fuzzing); install it at
            construction time, before scheduling anything.
        queue: ``"auto"`` or ``"calendar"`` — this class; ``"heap"``
            builds the plain-``heapq`` :class:`ReferenceSimulator`, which
            processes events in exactly the same total order (see the
            module docstring and docs/performance.md).
    """

    #: Which event queue this is: "calendar", or "heap" for the reference.
    queue_backend = "calendar"

    def __new__(cls, tiebreak_rng: Optional[Any] = None, queue: str = "auto") -> "Simulator":
        if queue not in QUEUE_BACKENDS:
            raise SimulationError(
                f"unknown queue backend {queue!r}; expected one of {QUEUE_BACKENDS}"
            )
        if queue == "heap" and cls is Simulator:
            cls = ReferenceSimulator
        return object.__new__(cls)

    def __init__(self, tiebreak_rng: Optional[Any] = None, queue: str = "auto") -> None:
        #: Current simulated time in seconds.
        self.now: float = 0.0
        self._seq = 0
        self._active: Optional[Process] = None
        #: Count of processed events (a cheap progress/perf metric).
        #: During ``run()`` the counter is updated in batches; it is exact
        #: whenever user code runs (callbacks) and after run().
        self.events_processed = 0
        #: Optional seeded RNG perturbing same-time NORMAL-event order
        #: (schedule fuzzing).  None keeps strict insertion order.
        #: Install it at construction time, before scheduling anything.
        self.tiebreak_rng = tiebreak_rng
        #: Free list of :class:`_SoonEvent` carriers (see call_soon).
        self._soon_pool: List[_SoonEvent] = []
        #: Live processes in spawn order (a dict used as an ordered set).
        self._live: dict = {}
        self._init_queue()

    def _init_queue(self) -> None:
        self._buckets: dict = {}
        self._times: List[float] = []
        #: Bucket currently being drained (list shape), or None.
        self._cur: Optional[list] = None
        self._cur_time = 0.0
        #: Free list of recycled Timeout objects (see module docstring).
        self._timeout_pool: List[Timeout] = []

    def close(self) -> None:
        """End the run: close every live process's generator in spawn
        order (its ``finally`` blocks run now, not whenever the cyclic
        collector reaches it) and drop every pending event.  A closed
        simulator references no process, so a finished run is freed by
        reference counting.  A second call is a no-op; calling it from
        inside a running process raises :class:`SimulationError`."""
        if self._active is not None:
            raise SimulationError("close() from inside a running process")
        live = self._live
        while live:  # a finally block may spawn: close that one too
            proc = next(iter(live))
            del live[proc]
            gen, proc._gen, proc._target = proc._gen, None, None
            gen.close()
        self._soon_pool.clear()
        self._init_queue()

    # -- construction helpers ---------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* simulated seconds.

        This is the kernel's single hottest entry point (every poll,
        backoff, and cycle charge is a timeout), so the event
        construction and enqueue are inlined here rather than routed
        through ``Timeout.__init__``/:meth:`_enqueue` (schedule fuzzing
        needs a shuffle key per entry and enqueues through the latter;
        both draw on the drain loop's pool of recycled timeouts).
        """
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        pool = self._timeout_pool
        if pool:
            ev = pool.pop()
        else:
            ev = Timeout.__new__(Timeout)
            ev.sim = self
            ev._ok = True
        ev.callbacks = _NO_CALLBACKS
        ev._value = value
        ev.defused = False
        if self.tiebreak_rng is not None:
            self._enqueue(ev, delay, NORMAL)
            return ev
        t = self.now + delay
        buckets = self._buckets
        b = buckets.get(t)
        if b is None:
            buckets[t] = ev
            _heappush(self._times, t)
        elif type(b) is list:
            b[1].append(ev)
        else:
            buckets[t] = [None, [b, ev], 0, 0, False]
        return ev

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator; returns the Process event."""
        return Process(self, gen, name)

    def call_soon(self, fn: Callable[..., None], arg: Any = _NO_ARG) -> None:
        """Run *fn* (or *fn(arg)*) from the event loop at the current time.

        Rides a pooled slotted one-shot event: no per-call lambda, list,
        or garbage event object (see :class:`_SoonEvent`).
        """
        pool = self._soon_pool
        if pool:
            ev = pool.pop()
        else:
            ev = _SoonEvent.__new__(_SoonEvent)
            ev.sim = self
        ev.callbacks = _SOON_CBS
        ev._value = None
        ev._ok = True
        ev.defused = False
        ev.fn = fn
        ev.arg = arg
        self._enqueue(ev, 0.0, URGENT)

    # -- scheduling --------------------------------------------------------

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        t = self.now + delay
        buckets = self._buckets
        b = buckets.get(t)
        rng = self.tiebreak_rng
        if rng is None:
            if b is None:
                if priority == NORMAL:
                    buckets[t] = event
                else:
                    buckets[t] = [[event], [], 0, 0, False]
                _heappush(self._times, t)
            elif type(b) is list:
                if priority == NORMAL:
                    b[1].append(event)
                else:
                    u = b[0]
                    if u is None:
                        b[0] = [event]
                    else:
                        u.append(event)
            elif priority == NORMAL:
                buckets[t] = [None, [b, event], 0, 0, False]
            else:
                buckets[t] = [[event], [b], 0, 0, False]
            return
        # Schedule fuzzing: NORMAL entries carry a (sub, seq) shuffle key,
        # so same-time NORMAL events are processed in a seed-determined
        # shuffle instead of insertion order (every bucket is a list).
        seq = self._seq = self._seq + 1
        if b is None:
            b = buckets[t] = [None, [], 0, 0, False]
            _heappush(self._times, t)
        if priority == NORMAL:
            sub = rng.random()
            normal = b[1]
            if b[4]:
                # The bucket is mid-drain: keep the remaining tail sorted.
                _insort(normal, (sub, seq, event), b[3])
            else:
                normal.append((sub, seq, event))
        else:
            u = b[0]
            if u is None:
                b[0] = [event]
            else:
                u.append(event)

    def _at_tail(self, event: Event, token: int) -> bool:
        """True iff *event* (which carries its trigger time as ``.t``) is
        still the queue tail among entries sharing its (time, NORMAL)
        key — i.e. a new enqueue at that key would land directly after
        it, so batching the two preserves the exact total order.
        *token*: ``_seq`` right after the event's enqueue (reference only).

        Structural check: the event must still be the last NORMAL entry
        of a live bucket (rng mode stores tuples, so the identity test
        fails there and coalescing is off — as it must be, because a new
        entry would draw its own shuffle key).
        """
        b = self._buckets.get(event.t)
        if b is event:
            return True
        if type(b) is list:
            normal = b[1]
            return bool(normal) and normal[-1] is event
        return False

    # -- queue state -------------------------------------------------------

    def _bucket_live(self, b: list) -> bool:
        """True if the bucket still has undrained events; a dead current
        bucket is retired (deleted) on the spot."""
        u = b[0]
        if (u is not None and b[2] < len(u)) or b[3] < len(b[1]):
            return True
        del self._buckets[self._cur_time]
        self._cur = None
        return False

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        b = self._cur
        if b is not None and self._bucket_live(b):
            return self._cur_time
        times = self._times
        return times[0] if times else _INF

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        b = self._cur
        if b is not None and not self._bucket_live(b):
            b = None
        if b is None:
            times = self._times
            if not times:
                raise SimulationError("step() on an empty schedule")
            t = _heappop(times)
            if t < self.now:
                raise SimulationError("time went backwards (kernel bug)")
            b = self._buckets[t]
            if type(b) is not list:
                # Singleton: retire it before its callbacks run so a
                # same-time arrival opens a fresh bucket behind it.
                del self._buckets[t]
                self.now = t
                self._process_one(b)
                return
            self._cur = b
            self._cur_time = t
        self.now = self._cur_time
        u = b[0]
        if u is not None and b[2] < len(u):
            i = b[2]
            b[2] = i + 1
            ev = u[i]
        else:
            i = b[3]
            b[3] = i + 1
            if self.tiebreak_rng is not None:
                if not b[4]:
                    b[1].sort()
                    b[4] = True
                ev = b[1][i][2]
            else:
                ev = b[1][i]
        self._process_one(ev)

    def _process_one(self, event: Event) -> None:
        callbacks = event.callbacks
        event.callbacks = None
        self.events_processed += 1
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._ok is False and not event.defused:
            # A failure nobody waited on: crash the run loudly rather than
            # silently losing the error.
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Args:
            until: ``None`` runs until no events remain; a number runs
                until the clock would pass that time (the clock is then
                set to it); an :class:`Event` runs until that event has
                been processed and returns its value (re-raising its
                failure, if any).

        All three forms, and :meth:`run_until`, take the one batched
        drain loop: identical event order and semantics to ``step()``
        in a loop, with the per-event clock/counter writes deferred to
        the points where user code can observe them.
        """
        if isinstance(until, Event):
            if not until.processed:
                flag = Flag()
                until.subscribe(flag)
                if not self.run_until(flag):
                    raise SimulationError(_DEADLOCK_MSG)
            if until._ok is False:
                until.defused = True
                raise until._value
            return until._value
        horizon = _INF if until is None else float(until)
        if horizon < self.now:
            raise SimulationError(f"run(until={horizon}) is in the past (now={self.now})")
        self._advance(horizon, None)
        if until is not None:
            self.now = horizon
        return None

    def run_until(self, stop: Any, deadline: float = _INF) -> bool:
        """Run until *stop* fires, the next event lies beyond *deadline*
        or none is left; True means *stop* fired.

        *stop* is anything with a ``fired`` attribute that code run from
        an event callback flips: a :class:`Flag`, or a
        :class:`~repro.sim.resources.Signal`.  The clock stays at the
        last processed event (``run(until=t)`` is what moves it to *t*).
        """
        if not stop.fired:
            self._advance(deadline, stop)
        return stop.fired

    def _advance(self, limit: float, stop: Optional[Any]) -> None:
        """Batched event loop: process events with time <= *limit* until
        the queue empties or *stop* fires (checked after callbacks, the
        only place it can flip).  Identical event order and semantics to
        ``step()`` in a loop; the clock and the processed-events counter
        are written back only when user code can observe them (callbacks,
        exceptions, exit).

        Bucket lengths and cursors live in locals on the no-callback
        fast path; they are written back before callbacks run (the only
        code that can observe or change them) and refreshed after.
        """
        buckets = self._buckets
        times = self._times
        pool = self._timeout_pool
        rng_mode = self.tiebreak_rng is not None
        now = self.now
        n = 0
        try:
            while True:
                b = self._cur
                if b is None:
                    if not times or times[0] > limit:
                        break
                    t = _heappop(times)
                    if t < now:
                        raise SimulationError("time went backwards (kernel bug)")
                    now = t
                    b = buckets[t]
                    if type(b) is not list:
                        # Singleton bucket: one NORMAL event, retired
                        # before its callbacks run (see step()).  `b` is
                        # deliberately the only local referencing it so
                        # the recycle refcount check below stays exact.
                        del buckets[t]
                        n += 1
                        cbs = b.callbacks
                        b.callbacks = None
                        if cbs:
                            self.now = now
                            self.events_processed += n
                            n = 0
                            for cb in cbs:
                                cb(b)
                        if b._ok is False and not b.defused:
                            raise b._value
                        if (cbs is not _NO_CALLBACKS and type(b) is Timeout
                                and _refcount(b) == 2 and len(pool) < _TIMEOUT_POOL_MAX):
                            pool.append(b)
                        if cbs and stop is not None and stop.fired:
                            return
                        continue
                    self._cur = b
                    self._cur_time = t
                elif self._cur_time > limit:
                    # Only on entry: an earlier run_until() stopped
                    # mid-bucket and this one's deadline lies before it.
                    break
                else:
                    now = self._cur_time
                urgent = b[0]
                normal = b[1]
                ui = b[2]
                ni = b[3]
                u_len = 0 if urgent is None else len(urgent)
                n_len = len(normal)
                while True:
                    if ui < u_len:
                        ev = urgent[ui]
                        ui += 1
                    elif ni < n_len:
                        if rng_mode:
                            if not b[4]:
                                normal.sort()
                                b[4] = True
                            ev = normal[ni][2]
                        else:
                            ev = normal[ni]
                        ni += 1
                    else:
                        break
                    n += 1
                    cbs = ev.callbacks
                    ev.callbacks = None
                    if cbs:
                        b[2] = ui
                        b[3] = ni
                        self.now = now
                        self.events_processed += n
                        n = 0
                        for cb in cbs:
                            cb(ev)
                    if ev._ok is False and not ev.defused:
                        b[2] = ui
                        b[3] = ni
                        raise ev._value
                    if (cbs is not _NO_CALLBACKS and type(ev) is Timeout
                            and _refcount(ev) == 3 and len(pool) < _TIMEOUT_POOL_MAX):
                        # Waited on (a settled deadline's list is empty), and
                        # the bucket slot and our local are the only remaining
                        # references: nobody can observe it again, so recycle.
                        pool.append(ev)
                    if cbs:
                        if stop is not None and stop.fired:
                            return
                        urgent = b[0]
                        ui = b[2]
                        ni = b[3]
                        u_len = 0 if urgent is None else len(urgent)
                        n_len = len(normal)
                b[2] = ui
                b[3] = ni
                del buckets[self._cur_time]
                self._cur = None
        finally:
            self.now = now
            self.events_processed += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} now={self.now:.6f} "
                f"processed={self.events_processed}>")


class ReferenceSimulator(Simulator):
    """``Simulator(queue="heap")``: the written-down total order.

    One ``heapq`` of ``(time, priority, seq, event)`` entries —
    ``(time, NORMAL, sub, seq, event)`` for NORMAL events under a
    ``tiebreak_rng`` — popped one event at a time by the inherited
    ``peek()``/``step()`` loop.  Slow, obviously correct, and never on a
    production path: it exists so the calendar queue has something
    readable to be byte-identical to (``repro check --verify-queue``).
    """

    queue_backend = "heap"

    def _init_queue(self) -> None:
        self._heap: List[tuple] = []

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        self._seq += 1
        if self.tiebreak_rng is not None and priority == NORMAL:
            entry = (self.now + delay, priority, self.tiebreak_rng.random(), self._seq, event)
        else:
            entry = (self.now + delay, priority, self._seq, event)
        _heappush(self._heap, entry)

    def _at_tail(self, event: Event, token: int) -> bool:
        # Conservative: nothing of any kind was enqueued since the token.
        return self.tiebreak_rng is None and self._seq == token

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else _INF

    def step(self) -> None:
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        entry = _heappop(self._heap)
        self.now = entry[0]
        self._process_one(entry[-1])

    def _advance(self, limit: float, stop: Optional[Any]) -> None:
        """The plain loop: one ``step()`` at a time."""
        heap = self._heap
        while (stop is None or not stop.fired) and heap and heap[0][0] <= limit:
            self.step()
