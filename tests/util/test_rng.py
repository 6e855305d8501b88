"""Tests for deterministic named RNG streams."""

from repro.util.rng import RngRegistry, derive_seed


def test_same_name_same_stream():
    reg = RngRegistry(1)
    assert reg.stream("a") is reg.stream("a")


def test_different_names_independent():
    reg = RngRegistry(1)
    a = [reg.stream("a").random() for _ in range(5)]
    b = [reg.stream("b").random() for _ in range(5)]
    assert a != b


def test_same_seed_reproducible():
    xs = [RngRegistry(9).stream("s").random() for _ in range(3)]
    ys = [RngRegistry(9).stream("s").random() for _ in range(3)]
    assert xs == ys


def test_different_seeds_differ():
    assert RngRegistry(1).stream("s").random() != RngRegistry(2).stream("s").random()


def test_stream_isolation_from_creation_order():
    r1 = RngRegistry(5)
    r1.stream("x")  # created first
    v1 = r1.stream("y").random()
    r2 = RngRegistry(5)
    v2 = r2.stream("y").random()  # created without x existing
    assert v1 == v2


def test_derive_seed_stable():
    assert derive_seed(42, "net") == derive_seed(42, "net")
    assert derive_seed(42, "net") != derive_seed(42, "net2")
    assert derive_seed(42, "net") != derive_seed(43, "net")


def test_names_listing():
    reg = RngRegistry(0)
    reg.stream("b")
    reg.stream("a")
    assert list(reg.names()) == ["a", "b"]
