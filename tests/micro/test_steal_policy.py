"""Tests for victim-selection policies."""

import random
from collections import Counter

import pytest

from repro.errors import SchedulerError
from repro.micro.steal import (
    LowLatencyVictim,
    RandomVictim,
    RoundRobinVictim,
    VictimPolicy,
    make_victim_policy,
    register_victim_policy,
)


def test_random_uniformish():
    policy = RandomVictim(random.Random(0))
    victims = ["a", "b", "c", "d"]
    counts = Counter(policy.choose(victims) for _ in range(4000))
    assert set(counts) == set(victims)
    for v in victims:
        assert 800 < counts[v] < 1200  # within 20% of uniform


def test_random_empty_raises():
    with pytest.raises(SchedulerError):
        RandomVictim(random.Random(0)).choose([])


def test_random_reproducible():
    a = RandomVictim(random.Random(5))
    b = RandomVictim(random.Random(5))
    vs = ["x", "y", "z"]
    assert [a.choose(vs) for _ in range(10)] == [b.choose(vs) for _ in range(10)]


def test_round_robin_cycles():
    policy = RoundRobinVictim()
    vs = ["a", "b", "c"]
    assert [policy.choose(vs) for _ in range(6)] == ["a", "b", "c", "a", "b", "c"]


def test_round_robin_survives_shrinking_list():
    policy = RoundRobinVictim()
    policy.choose(["a", "b", "c"])
    policy.choose(["a", "b", "c"])
    assert policy.choose(["a"]) == "a"  # cursor modulo new length


def test_round_robin_empty_raises():
    with pytest.raises(SchedulerError):
        RoundRobinVictim().choose([])


def test_factory():
    assert make_victim_policy("random", random.Random(0)).name == "random"
    assert make_victim_policy("round-robin", random.Random(0)).name == "round-robin"
    assert make_victim_policy("low-latency", random.Random(0)).name == "low-latency"
    with pytest.raises(SchedulerError):
        make_victim_policy("psychic", random.Random(0))


def test_unknown_policy_error_lists_sorted_names():
    with pytest.raises(SchedulerError) as exc:
        make_victim_policy("psychic", random.Random(0))
    msg = str(exc.value)
    assert "psychic" in msg
    assert "['low-latency', 'random', 'round-robin']" in msg


def test_register_custom_policy_is_lazy():
    """The factory must not run at registration time, only on request."""
    built = []

    class Pinned(VictimPolicy):
        name = "pinned"

        def choose(self, victims):
            return victims[0]

    def factory(rng):
        built.append(rng)
        return Pinned()

    register_victim_policy("test-pinned", factory)
    try:
        assert built == []  # lazy: nothing instantiated yet
        rng = random.Random(0)
        policy = make_victim_policy("test-pinned", rng)
        assert built == [rng]
        assert policy.choose(["a", "b"]) == "a"
    finally:
        from repro.micro import steal

        steal._REGISTRY.pop("test-pinned", None)


# ---------------------------------------------------------------------------
# LowLatencyVictim
# ---------------------------------------------------------------------------


def test_low_latency_ctor_validation():
    with pytest.raises(SchedulerError):
        LowLatencyVictim(random.Random(0), explore=1.5)
    with pytest.raises(SchedulerError):
        LowLatencyVictim(random.Random(0), explore=-0.1)
    with pytest.raises(SchedulerError):
        LowLatencyVictim(random.Random(0), alpha=0.0)
    with pytest.raises(SchedulerError):
        LowLatencyVictim(random.Random(0), alpha=1.1)


def test_low_latency_empty_raises():
    with pytest.raises(SchedulerError):
        LowLatencyVictim(random.Random(0)).choose([])


def test_low_latency_probes_unmeasured_first():
    policy = LowLatencyVictim(random.Random(0))
    policy.observe("a", 0.001)  # "a" is known and fast
    # "b" has never been measured, so it must be probed before any
    # exploit step — even though "a" looks optimal.
    assert policy.choose(["a", "b"]) == "b"


def test_low_latency_exploits_min_rtt():
    policy = LowLatencyVictim(random.Random(1), explore=0.0)
    policy.observe("near", 0.001)
    policy.observe("far", 0.1)
    policy.observe("mid", 0.01)
    choices = {policy.choose(["far", "near", "mid"]) for _ in range(20)}
    assert choices == {"near"}


def test_low_latency_explores_occasionally():
    policy = LowLatencyVictim(random.Random(2), explore=0.5)
    policy.observe("near", 0.001)
    policy.observe("far", 0.1)
    counts = Counter(policy.choose(["near", "far"]) for _ in range(400))
    assert counts["near"] > counts["far"] > 0  # biased, not starved


def test_low_latency_ewma_update():
    policy = LowLatencyVictim(random.Random(0), alpha=0.5)
    assert policy.estimate("v") is None
    policy.observe("v", 0.1)
    assert policy.estimate("v") == pytest.approx(0.1)  # first sample taken whole
    policy.observe("v", 0.2)
    assert policy.estimate("v") == pytest.approx(0.15)


def test_low_latency_timeout_penalty_deprioritizes():
    policy = LowLatencyVictim(random.Random(3), explore=0.0)
    policy.observe("good", 0.05)
    policy.observe("dead", 0.001)  # looked great...
    for _ in range(8):
        policy.observe_timeout("dead", 0.05)  # ...then stopped answering
    assert policy.estimate("dead") > policy.estimate("good")
    assert policy.choose(["dead", "good"]) == "good"


def test_low_latency_deterministic_given_same_rng():
    def run():
        policy = LowLatencyVictim(random.Random(7), explore=0.2)
        out = []
        for i in range(50):
            v = policy.choose(["a", "b", "c"])
            out.append(v)
            policy.observe(v, 0.001 * (i % 5 + 1))
        return out

    assert run() == run()
