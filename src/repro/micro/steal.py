"""Victim-selection policies for work stealing.

The paper's thief "chooses uniformly at random a victim participant" —
the policy the Blumofe–Leiserson analysis ([2], FOCS'94) proves gives
linear speedup with tightly bounded communication.  A deterministic
round-robin alternative is provided for the ablation bench, and
:class:`LowLatencyVictim` adds the latency-aware selection suggested by
the Gast et al. / Khatiri et al. analyses of work stealing with
latency: prefer the victims whose steals have historically completed
fastest, with occasional uniform exploration so estimates never go
stale (and so new or recovered peers get probed).

Policies are constructed through a lazy name→factory registry
(:func:`register_victim_policy` / :func:`make_victim_policy`), so new
policies plug in without touching the factory and nothing is
instantiated until asked for.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Sequence

from repro.errors import SchedulerError


class VictimPolicy:
    """Chooses a steal victim from the current peer list.

    Policies may also *learn*: the worker reports every observed steal
    round-trip via :meth:`observe` and every steal that timed out via
    :meth:`observe_timeout`.  The base implementations ignore both, so
    stateless policies need not care.
    """

    name = "abstract"

    def choose(self, victims: Sequence[str]) -> str:
        raise NotImplementedError

    def observe(self, victim: str, rtt_s: float) -> None:
        """A steal round-trip to *victim* completed in ``rtt_s``."""

    def observe_timeout(self, victim: str, timeout_s: float) -> None:
        """A steal request to *victim* got no reply within ``timeout_s``."""

    def profile_snapshot(self) -> Dict[str, float]:
        """Learned per-victim state for profiling reports ({} when the
        policy is stateless)."""
        return {}


class RandomVictim(VictimPolicy):
    """Uniformly random victim (the paper's policy)."""

    name = "random"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def choose(self, victims: Sequence[str]) -> str:
        if not victims:
            raise SchedulerError("no victims to choose from")
        return victims[self.rng.randrange(len(victims))]


class RoundRobinVictim(VictimPolicy):
    """Cycle deterministically through the peer list (ablation baseline).

    Keeps its own cursor; robust to the peer list growing or shrinking
    between steals.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, victims: Sequence[str]) -> str:
        if not victims:
            raise SchedulerError("no victims to choose from")
        victim = victims[self._cursor % len(victims)]
        self._cursor += 1
        return victim


class LowLatencyVictim(VictimPolicy):
    """Prefer the victim with the lowest estimated steal round-trip.

    Keeps an EWMA of observed steal RTTs per victim.  With probability
    ``explore`` (or whenever a listed victim has never been measured) it
    instead picks uniformly at random, so the estimates track link
    changes — congestion spikes, healed partitions, recovered
    stragglers.  Timeouts are charged as a penalized RTT so a
    non-responsive victim is de-prioritized rather than retried forever.

    Deterministic given the rng stream and the observation sequence.
    """

    name = "low-latency"

    #: Timeouts count as this multiple of the timeout budget.
    TIMEOUT_PENALTY = 2.0

    def __init__(self, rng: random.Random, explore: float = 0.1,
                 alpha: float = 0.3) -> None:
        if not 0.0 <= explore <= 1.0:
            raise SchedulerError(f"explore must be in [0, 1], got {explore}")
        if not 0.0 < alpha <= 1.0:
            raise SchedulerError(f"alpha must be in (0, 1], got {alpha}")
        self.rng = rng
        self.explore = explore
        self.alpha = alpha
        self._rtt: Dict[str, float] = {}

    def estimate(self, victim: str) -> float | None:
        """Current EWMA RTT estimate for *victim* (None if unmeasured)."""
        return self._rtt.get(victim)

    def choose(self, victims: Sequence[str]) -> str:
        if not victims:
            raise SchedulerError("no victims to choose from")
        # One rng draw per call regardless of branch keeps the stream
        # alignment independent of what has been learned so far.
        r = self.rng.random()
        unmeasured = [v for v in victims if v not in self._rtt]
        if unmeasured:
            return unmeasured[int(r * len(unmeasured)) % len(unmeasured)]
        if r < self.explore:
            return victims[int(r / self.explore * len(victims)) % len(victims)]
        # Exploit: lowest estimate, name as deterministic tiebreak.
        return min(victims, key=lambda v: (self._rtt[v], v))

    def observe(self, victim: str, rtt_s: float) -> None:
        prev = self._rtt.get(victim)
        self._rtt[victim] = rtt_s if prev is None else (
            (1.0 - self.alpha) * prev + self.alpha * rtt_s)

    def observe_timeout(self, victim: str, timeout_s: float) -> None:
        self.observe(victim, self.TIMEOUT_PENALTY * timeout_s)

    def profile_snapshot(self) -> Dict[str, float]:
        return dict(sorted(self._rtt.items()))


PolicyFactory = Callable[[random.Random], VictimPolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}


def register_victim_policy(name: str, factory: PolicyFactory) -> None:
    """Register *factory* under *name* (later registrations override)."""
    _REGISTRY[name] = factory


def make_victim_policy(name: str, rng: random.Random) -> VictimPolicy:
    """Construct a registered policy by name.

    Lazy: only the requested policy's factory runs, nothing is built
    just to populate an error message.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise SchedulerError(
            f"unknown victim policy {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(rng)


register_victim_policy("random", RandomVictim)
register_victim_policy("round-robin", lambda rng: RoundRobinVictim())
register_victim_policy("low-latency", LowLatencyVictim)
