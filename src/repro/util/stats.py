"""The pfold energy histogram and the paper's speedup formula."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


@dataclass
class Histogram:
    """An integer-keyed histogram.

    This is the exact data structure the paper's pfold application
    produces (a histogram of fold energy values), so it is part of the
    public API rather than a private helper.
    """

    counts: Dict[int, int] = field(default_factory=dict)

    def add(self, key: int, count: int = 1) -> None:
        """Add *count* occurrences of *key*."""
        self.counts[key] = self.counts.get(key, 0) + count

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (used at sync points)."""
        for key, count in other.counts.items():
            self.add(key, count)

    def total(self) -> int:
        """Total number of occurrences across all keys."""
        return sum(self.counts.values())

    def items(self) -> List[Tuple[int, int]]:
        """(key, count) pairs sorted by key."""
        return sorted(self.counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return {k: v for k, v in self.counts.items() if v} == {
            k: v for k, v in other.counts.items() if v
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({dict(self.items())})"


def speedup_paper(t1: float, per_participant_times: Iterable[float]) -> float:
    """The paper's P-processor speedup formula.

    ``S_P = P * T1 / sum_i T_P(i)`` where ``T_P(i)`` is the wall-clock
    execution time of the i-th participant (Section 4, Figure 5 caption).
    The formula is the ratio of T1 to the *average* participant time.
    """
    times = list(per_participant_times)
    if not times:
        raise ValueError("need at least one participant time")
    total = sum(times)
    if total <= 0:
        raise ValueError("participant times must be positive")
    return len(times) * t1 / total

