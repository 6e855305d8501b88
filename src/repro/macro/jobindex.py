"""Indexed containers backing the JobQ assignment policies.

The seed JobQ rebuilt ``pool()`` — a linear scan over every job record —
on *every* assignment request, which is fine for the paper's "handful of
jobs" but quadratic once the pool holds thousands of queued jobs under
production traffic.  The structures here keep assignment sublinear:

* :class:`CycleList` — a circular doubly-linked list in submission
  order with an embedded cursor: O(1) append/remove and O(1) cursor
  advance, the natural index for round-robin cycling.
* :class:`LazyMinHeap` — a binary heap of ``(key, item)`` pairs with
  lazy invalidation: re-keying an item is a push (O(log n)); stale
  entries are discarded as they surface at the top.  The index for
  every best-first policy (priority, least-workers, SRP, fair-share).

Both are deterministic: iteration order depends only on the sequence of
operations, never on hashes or insertion addresses, so policy decisions
are reproducible across runs and processes.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError


class _Node:
    __slots__ = ("item", "prev", "next")

    def __init__(self, item: Any) -> None:
        self.item = item
        self.prev: "_Node" = self
        self.next: "_Node" = self


class CycleList:
    """A circular list in insertion order with a round-robin cursor.

    ``append`` inserts at the tail (just "behind" the oldest entry in
    cycle order), ``remove`` unlinks anywhere, and :meth:`from_cursor`
    walks at most one full revolution starting at the cursor.  When the
    cursor's own node is removed the cursor slides to its successor, so
    a completed job never stalls the rotation.
    """

    def __init__(self) -> None:
        self._nodes: Dict[Any, _Node] = {}
        self._tail: Optional[_Node] = None
        self._cursor: Optional[_Node] = None

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, item: Any) -> bool:
        return item in self._nodes

    def append(self, item: Any) -> None:
        if item in self._nodes:
            raise ReproError(f"CycleList already contains {item!r}")
        node = _Node(item)
        self._nodes[item] = node
        if self._tail is None:
            self._tail = node
            self._cursor = node
            return
        head = self._tail.next
        self._tail.next = node
        node.prev = self._tail
        node.next = head
        head.prev = node
        self._tail = node

    def remove(self, item: Any) -> None:
        node = self._nodes.pop(item, None)
        if node is None:
            return
        if not self._nodes:
            self._tail = None
            self._cursor = None
            return
        node.prev.next = node.next
        node.next.prev = node.prev
        if self._tail is node:
            self._tail = node.prev
        if self._cursor is node:
            self._cursor = node.next

    @property
    def cursor(self) -> Optional[Any]:
        return self._cursor.item if self._cursor is not None else None

    def from_cursor(self) -> Iterator[Any]:
        """Yield items starting at the cursor, one full revolution.

        Safe against the *current* item being removed mid-iteration
        (the walk holds the next pointer before yielding).
        """
        node = self._cursor
        if node is None:
            return
        seen = 0
        total = len(self._nodes)
        while seen < total:
            nxt = node.next
            yield node.item
            seen += 1
            node = nxt

    def advance_past(self, item: Any) -> None:
        """Move the cursor to *item*'s successor (after a grant)."""
        node = self._nodes.get(item)
        if node is not None:
            self._cursor = node.next


class LazyMinHeap:
    """Min-heap of ``(key, item)`` with O(log n) re-key by reinsertion.

    Each item has exactly one *current* key (:meth:`push` replaces it);
    superseded heap entries are skipped lazily when popped.  Keys must
    be totally ordered — callers embed a unique tie-breaker (the job
    id) so ordering never falls back to comparing records.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[Any, Any]] = []
        self._key: Dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._key)

    def __contains__(self, item: Any) -> bool:
        return item in self._key

    def push(self, item: Any, key: Any) -> None:
        """Insert *item* with *key*, superseding any previous key."""
        self._key[item] = key
        heapq.heappush(self._heap, (key, item))

    def discard(self, item: Any) -> Any:
        """Remove *item* (its heap entries die lazily); its key, or None."""
        return self._key.pop(item, None)

    def pop_min(self) -> Optional[Tuple[Any, Any]]:
        """Remove and return the smallest live ``(key, item)``, or None."""
        heap = self._heap
        while heap:
            key, item = heapq.heappop(heap)
            if self._key.get(item) == key:
                del self._key[item]
                return key, item
        return None

    def compact(self) -> None:
        """Drop stale entries (call when the heap grows far past live)."""
        if len(self._heap) > 4 * max(8, len(self._key)):
            self._heap = [(k, i) for i, k in self._key.items()]
            heapq.heapify(self._heap)
