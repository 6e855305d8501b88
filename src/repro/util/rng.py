"""Deterministic named random-number streams.

Every stochastic decision in the simulator (steal-victim choice, owner
activity traces, message jitter, crash times...) draws from a *named*
stream obtained from a single :class:`RngRegistry`.  Two runs constructed
with the same root seed therefore make identical random choices in every
subsystem, independently of the order in which subsystems are created or
of how many draws each subsystem makes.  This is what makes whole
simulated executions reproducible and is relied on by the regression and
property tests.

The implementation derives each stream's seed from ``(root_seed, name)``
with a stable hash (``sha256``), so adding a new stream never perturbs
existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from a root seed and a stream name.

    Stable across Python versions and processes (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of independent, deterministically-seeded RNG streams.

    >>> reg = RngRegistry(42)
    >>> a = reg.stream("steal.victim")
    >>> b = reg.stream("owner.trace")
    >>> a is reg.stream("steal.victim")
    True

    Streams are plain :class:`random.Random` instances; they are created
    lazily and cached by name.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (cached) RNG stream called *name*."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng

    def names(self) -> Iterator[str]:
        """Iterate over the names of streams created so far."""
        return iter(sorted(self._streams))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(root_seed={self.root_seed}, streams={len(self._streams)})"
