"""The ready-task list (Figure 1 of the paper).

The paper's discipline — execute from the **head** in LIFO order, steal
from the **tail** in FIFO order — is the default.  Both orders are
configurable so the ablation benches can demonstrate *why* the paper's
combination wins (FIFO execution blows up the working set; LIFO stealing
exports leaf tasks and therefore steals constantly).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, List, Optional

from repro.errors import SchedulerError
from repro.tasks.closure import Closure

_ORDERS = ("lifo", "fifo")

#: Observer callback signature: ``observer(op, closure)`` where *op* is
#: one of "push", "pop_exec", "pop_steal", "drain", "extend".
DequeObserver = Callable[[str, Closure], None]


class ReadyDeque(deque):
    """Double-ended ready list with configurable execute/steal ends.

    ``exec_order="lifo"`` pops work where it is pushed (the head);
    ``steal_order="fifo"`` steals from the opposite end (the tail).

    A :class:`collections.deque` subclass, so ``len()`` and truth tests
    are C calls; items go in and out only through the methods below,
    which are what the :attr:`observer` sees.

    An optional :attr:`observer` sees every insertion and removal — the
    invariant checker uses it to verify online that no closure enters or
    leaves the ready list out of thin air.  It is None (a single
    predicted branch per operation) in normal runs.
    """

    __slots__ = ("exec_order", "steal_order", "_exec_head", "_steal_tail",
                 "observer")

    def __init__(self, exec_order: str = "lifo", steal_order: str = "fifo") -> None:
        if exec_order not in _ORDERS:
            raise SchedulerError(f"exec_order must be one of {_ORDERS}, got {exec_order!r}")
        if steal_order not in _ORDERS:
            raise SchedulerError(f"steal_order must be one of {_ORDERS}, got {steal_order!r}")
        self.exec_order = exec_order
        self.steal_order = steal_order
        # Orders are fixed at construction; cache them as booleans so the
        # per-pop dispatch is a predicted branch, not a string compare.
        self._exec_head = exec_order == "lifo"
        self._steal_tail = steal_order == "fifo"
        self.observer: Optional[DequeObserver] = None

    def push(self, closure: Closure) -> None:
        """Insert a newly-ready task at the head (paper, Figure 1b)."""
        self.appendleft(closure)
        if self.observer is not None:
            self.observer("push", closure)

    def pop_exec(self) -> Optional[Closure]:
        """Take the next task to execute locally, or None if empty."""
        if not self:
            return None
        if self._exec_head:
            closure = self.popleft()  # head: most recently pushed
        else:
            closure = self.pop()  # fifo execution (ablation)
        if self.observer is not None:
            self.observer("pop_exec", closure)
        return closure

    def pop_steal(self) -> Optional[Closure]:
        """Take the task to hand a thief, or None if empty."""
        if not self:
            return None
        if self._steal_tail:
            closure = self.pop()  # tail: oldest task (paper, Figure 1c)
        else:
            closure = self.popleft()  # lifo stealing (ablation)
        if self.observer is not None:
            self.observer("pop_steal", closure)
        return closure

    def drain(self) -> List[Closure]:
        """Remove and return everything (head first) — used by migration."""
        items = list(self)
        self.clear()
        if self.observer is not None:
            for closure in items:
                self.observer("drain", closure)
        return items

    def extend_tail(self, closures: Iterable[Closure]) -> None:
        """Append migrated-in tasks at the tail, preserving their order.

        Migrated tasks are old work (like steals, they come from the far
        end of someone's list), so they belong behind local work.
        """
        closures = list(closures)
        self.extend(closures)
        if self.observer is not None:
            for closure in closures:
                self.observer("extend", closure)

    def peek_all(self) -> List[Closure]:
        """Snapshot (head first) for tests and debugging."""
        return list(self)
