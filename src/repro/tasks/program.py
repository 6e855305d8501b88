"""Thread programs and execution frames.

A :class:`ThreadProgram` is a registry of *thread functions* — the
compiled form of a Phish application.  Thread functions are ordinary
Python functions whose first parameter is the execution :class:`Frame`;
they must not block, and they interact with the scheduler only through
the frame (spawn / successor / send / work).

A :class:`JobProgram` pairs a ThreadProgram with root arguments: the
unit submitted to the PhishJobQ.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional, Protocol

from repro.errors import ClosureError, SchedulerError
from repro.tasks.closure import _EMPTY, Closure, ClosureId, Continuation


class ThreadRef:
    """A registered thread function: name + callable + arity."""

    __slots__ = ("name", "fn", "arity")

    def __init__(self, name: str, fn: Callable, arity: int) -> None:
        self.name = name
        self.fn = fn
        self.arity = arity

    def __repr__(self) -> str:
        return f"<thread {self.name}/{self.arity}>"


class ThreadProgram:
    """A named collection of thread functions (one parallel application).

    >>> prog = ThreadProgram("fib")
    >>> @prog.thread
    ... def fib(frame, k, n):
    ...     ...
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.threads: Dict[str, ThreadRef] = {}

    def thread(self, fn: Optional[Callable] = None, *, arity: Optional[int] = None):
        """Decorator registering *fn* as a thread function.

        The wrapped function's first parameter is the frame; the
        remaining positional parameters define the closure's arity.  A
        variadic function (``def join(frame, k, *xs)``) must declare its
        arity explicitly: ``@prog.thread(arity=n)`` — this is how
        applications build n-ary join closures whose fan-in is a job
        parameter (nqueens, pfold).
        """
        if fn is None:
            return lambda f: self.thread(f, arity=arity)
        params = list(inspect.signature(fn).parameters.values())
        if not params:
            raise SchedulerError(f"thread function {fn.__name__} must accept a frame")
        fixed = 0
        variadic = False
        for p in params:
            if p.kind in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            ):
                fixed += 1
            elif p.kind is inspect.Parameter.VAR_POSITIONAL:
                variadic = True
            else:
                raise SchedulerError(
                    f"thread function {fn.__name__} may only use positional parameters"
                )
        if variadic:
            if arity is None:
                raise SchedulerError(
                    f"variadic thread {fn.__name__} needs an explicit arity="
                )
            if arity < fixed - 1:
                raise SchedulerError(
                    f"thread {fn.__name__}: arity {arity} below fixed parameter count"
                )
            effective = arity
        else:
            if arity is not None and arity != fixed - 1:
                raise SchedulerError(
                    f"thread {fn.__name__}: declared arity {arity} != signature arity {fixed - 1}"
                )
            effective = fixed - 1
        if fn.__name__ in self.threads:
            raise SchedulerError(f"thread {fn.__name__!r} already registered in {self.name}")
        ref = ThreadRef(fn.__name__, fn, effective)
        self.threads[fn.__name__] = ref
        return ref

    def resolve(self, thread: "ThreadRef | str") -> ThreadRef:
        """Look up a thread by ref or name (closures carry names)."""
        if isinstance(thread, ThreadRef):
            return thread
        try:
            return self.threads[thread]
        except KeyError:
            raise SchedulerError(
                f"program {self.name!r} has no thread {thread!r}"
            ) from None


class JobProgram:
    """A runnable job: a program plus the root invocation.

    Attributes:
        program: the thread registry.
        root_thread: thread to run first.  Its first declared argument
            must be the result continuation (the job's "return address");
            the scheduler passes the Clearinghouse continuation there.
        root_args: arguments after the continuation.
        name: job name for the macro scheduler's pool.
    """

    def __init__(
        self,
        program: ThreadProgram,
        root_thread: "ThreadRef | str",
        root_args: tuple = (),
        name: Optional[str] = None,
    ) -> None:
        self.program = program
        self.root = program.resolve(root_thread)
        self.root_args = tuple(root_args)
        if len(self.root_args) + 1 != self.root.arity:
            raise SchedulerError(
                f"root thread {self.root.name} takes {self.root.arity} args "
                f"(continuation + {self.root.arity - 1}); got {len(self.root_args)} extra"
            )
        self.name = name or program.name


class SchedulerOps(Protocol):
    """What a Frame needs from the scheduler executing it.

    Implemented by :class:`repro.micro.worker.Worker` and by the serial
    reference executor in :mod:`repro.baselines.serial`.
    """

    def new_cid(self) -> ClosureId: ...

    def enqueue_ready(self, closure: Closure) -> None: ...

    def register_suspended(self, closure: Closure) -> None: ...

    def deliver(self, continuation: Continuation, value: Any) -> None: ...


class SuccessorRef:
    """Handle on a successor closure created by :meth:`Frame.successor`."""

    __slots__ = ("closure",)

    def __init__(self, closure: Closure) -> None:
        self.closure = closure

    def cont(self, slot: int) -> Continuation:
        """A continuation that fills the given (missing) slot."""
        closure = self.closure
        if not (0 <= slot < len(closure.args)):
            raise ClosureError(f"slot {slot} out of range for {closure.thread_name}")
        if closure.args[slot] is not _EMPTY:
            raise ClosureError(
                f"slot {slot} of successor {closure.thread_name} is not missing"
            )
        return Continuation(closure.cid, slot)


class Frame:
    """Execution context of one running closure.

    Accumulates the simulated CPU cycles the task costs (dispatch +
    application work + per-primitive scheduling overheads, per the
    platform profile) and forwards scheduling actions to the worker.
    """

    __slots__ = ("_ops", "profile", "closure", "cycles")

    def __init__(self, ops: SchedulerOps, profile, closure: Closure) -> None:
        self._ops = ops
        self.profile = profile
        self.closure = closure
        # Every task pays dispatch, one network poll, and (under Phish)
        # the dynamic-processor-set bookkeeping.
        self.cycles = (
            profile.schedule_cycles + profile.poll_cycles + profile.dynamic_set_cycles
        )

    # -- the programming model ------------------------------------------------

    def work(self, cycles: float) -> None:
        """Charge *cycles* of application computation to this task."""
        if cycles < 0:
            raise SchedulerError("negative work")
        self.cycles += cycles

    def spawn(self, thread: "ThreadRef | str", *args: Any) -> None:
        """Spawn a fully-applied child closure (ready immediately).

        Children are pushed on the *head* of the worker's ready list, so
        they run next in LIFO order (paper, Figure 1b).
        """
        ref = thread if type(thread) is ThreadRef else self._resolve(thread)
        if len(args) != ref.arity:
            raise SchedulerError(
                f"spawn {ref.name}: expected {ref.arity} args, got {len(args)}"
            )
        child = Closure(self._ops.new_cid(), ref.name, args, None,
                        self.closure.depth + 1)
        self.cycles += self.profile.spawn_cycles
        self._ops.enqueue_ready(child)

    def successor(self, thread: "ThreadRef | str", *given: Any) -> SuccessorRef:
        """Create a successor closure waiting for its remaining arguments.

        The first ``len(given)`` slots are filled now; the rest are
        missing, addressable through :meth:`SuccessorRef.cont`.  The
        successor stays suspended on this worker until the last missing
        argument is sent.
        """
        ref = thread if type(thread) is ThreadRef else self._resolve(thread)
        n_missing = ref.arity - len(given)
        if n_missing < 0:
            raise SchedulerError(
                f"successor {ref.name}: {len(given)} args exceed arity {ref.arity}"
            )
        if not n_missing:
            raise SchedulerError(
                f"successor {ref.name} has no missing slots; use spawn()"
            )
        succ = Closure.born_waiting(
            self._ops.new_cid(), ref.name, given, n_missing,
            self.closure.depth,  # successor continues this task's level
        )
        self.cycles += self.profile.spawn_cycles
        self._ops.register_suspended(succ)
        return SuccessorRef(succ)

    def send(self, continuation: Continuation, value: Any) -> None:
        """Send *value* along *continuation* (a synchronization).

        Local if the target closure lives on this worker, otherwise a
        network message — the distinction behind Table 2's
        "Non-local synchs" row.
        """
        if not isinstance(continuation, Continuation):
            raise SchedulerError(f"send target must be a Continuation, got {continuation!r}")
        self.cycles += self.profile.sync_cycles
        self._ops.deliver(continuation, value)

    # -- internals -------------------------------------------------------------

    def _resolve(self, thread: "ThreadRef | str") -> ThreadRef:
        if isinstance(thread, ThreadRef):
            return thread
        # Resolution through the registry is the worker's job; Frame only
        # sees refs in practice, but accept names for symmetry.
        raise SchedulerError(
            "spawning by name requires the worker context; pass the ThreadRef"
        )
