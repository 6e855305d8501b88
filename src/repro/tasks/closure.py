"""Closures, continuations, and join counters.

A :class:`Closure` is the unit of work the micro scheduler moves around:
self-contained once ready (all argument slots filled), so stealing one is
just shipping it to another worker.  A :class:`Continuation` names one
empty slot of one closure — globally, by (origin worker, sequence
number, slot) — so results can be sent across workers.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import ClosureError

#: Globally-unique closure identity: (name of the worker that created it,
#: that worker's creation sequence number).  Sequence numbers are never
#: reused, which the crash-recovery protocol relies on.
ClosureId = Tuple[str, int]

#: The distinguished continuation target for the whole job's result: a
#: send to this pseudo-closure delivers the result to the Clearinghouse.
CLEARINGHOUSE_TARGET: ClosureId = ("@clearinghouse", 0)

_EMPTY = object()


class Continuation:
    """A handle on one empty argument slot of one closure."""

    __slots__ = ("target", "slot")

    def __init__(self, target: ClosureId, slot: int) -> None:
        self.target = target
        self.slot = slot

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Continuation)
            and other.target == self.target
            and other.slot == self.slot
        )

    def __hash__(self) -> int:
        return hash((self.target, self.slot))

    def __repr__(self) -> str:
        return f"Continuation({self.target[0]}#{self.target[1]}[{self.slot}])"


class Closure:
    """A thread function application with possibly-missing arguments.

    Attributes:
        cid: globally unique identity.
        thread_name: name of the thread function (resolved through the
            job's :class:`~repro.tasks.program.ThreadProgram` registry —
            closures travel between workers as data, so they carry the
            function's *name*, not the function).
        args: the argument list; missing slots hold an internal sentinel.
        depth: spawn-tree depth, for instrumentation.
    """

    __slots__ = ("cid", "thread_name", "args", "_missing", "depth")

    def __init__(
        self,
        cid: ClosureId,
        thread_name: str,
        args: Sequence[Any],
        missing_slots: Optional[List[int]] = None,
        depth: int = 0,
    ) -> None:
        self.cid = cid
        self.thread_name = thread_name
        self.args = list(args)
        self.depth = depth
        if missing_slots:
            for slot in missing_slots:
                if not (0 <= slot < len(self.args)):
                    raise ClosureError(f"missing slot {slot} out of range for {thread_name}")
                self.args[slot] = _EMPTY
            self._missing = sum(1 for a in self.args if a is _EMPTY)
        else:
            # Fast path: with no missing_slots the closure is born ready.
            # (Holes can only be punched via missing_slots or
            # born_waiting — _EMPTY is module-private, so callers cannot
            # place it in args.)
            self._missing = 0

    @classmethod
    def born_waiting(
        cls, cid: ClosureId, thread_name: str, given: Sequence[Any],
        n_missing: int, depth: int,
    ) -> "Closure":
        """A closure whose first ``len(given)`` slots are filled and
        whose last *n_missing* slots await an argument send — the shape
        every successor has, built without the ``missing_slots`` scan."""
        self = cls.__new__(cls)
        self.cid = cid
        self.thread_name = thread_name
        self.args = [*given, *(_EMPTY,) * n_missing]
        self.depth = depth
        self._missing = n_missing
        return self

    @property
    def join_counter(self) -> int:
        """Number of still-missing arguments."""
        return self._missing

    @property
    def is_ready(self) -> bool:
        """True when every slot is filled and the closure can run."""
        return self._missing == 0

    def try_fill(self, slot: int, value: Any) -> int:
        """Deposit *value* into *slot* unless it already holds one.

        Returns the join counter after the fill (0: the closure just
        became ready), or -1 if the slot was already filled — a
        crash-redo or retransmission duplicate, which the scheduler's
        send path drops.
        """
        args = self.args
        if not (0 <= slot < len(args)):
            raise ClosureError(f"slot {slot} out of range for {self.thread_name}")
        if args[slot] is not _EMPTY:
            return -1
        args[slot] = value
        self._missing -= 1
        return self._missing

    def fill(self, slot: int, value: Any) -> bool:
        """Deposit *value* into *slot*; returns True if this made it ready.

        Filling an already-filled slot is a :class:`ClosureError`: for
        callers that have not deduplicated through :meth:`try_fill`, a
        double fill is a programming bug.
        """
        remaining = self.try_fill(slot, value)
        if remaining < 0:
            raise ClosureError(
                f"slot {slot} of {self.thread_name}#{self.cid} filled twice"
            )
        return remaining == 0

    def call_args(self) -> List[Any]:
        """The argument list, for invocation; requires readiness."""
        if not self.is_ready:
            raise ClosureError(
                f"closure {self.thread_name}#{self.cid} invoked with "
                f"{self._missing} missing argument(s)"
            )
        return self.args

    def redo_copy(self, new_cid: ClosureId) -> "Closure":
        """A fresh, identical closure under a new identity (crash redo).

        Only ready closures are ever redone (the steal-outstanding table
        holds ready closures by construction).
        """
        if not self.is_ready:
            raise ClosureError("redo_copy of a non-ready closure")
        return Closure(new_cid, self.thread_name, self.args, None, self.depth)

    def __repr__(self) -> str:
        shown = ", ".join("_" if a is _EMPTY else repr(a) for a in self.args)
        return f"<Closure {self.thread_name}#{self.cid[0]}:{self.cid[1]}({shown})>"
