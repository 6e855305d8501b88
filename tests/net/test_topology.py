"""Tests for network topologies (static and time-varying)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.network import NetworkParams
from repro.net.topology import (
    CongestionSpike,
    DynamicTopology,
    PartitionWindow,
    SegmentedTopology,
    UniformTopology,
)


def test_uniform_same_params_everywhere():
    p = NetworkParams()
    topo = UniformTopology(p)
    assert topo.params_for("a", "b") is p
    assert topo.params_for("x", "y") is p
    assert topo.segment_of("anything") == "lan0"


def test_segmented_intra_vs_inter():
    intra = NetworkParams(wire_latency_s=0.001)
    inter = NetworkParams(wire_latency_s=0.1)
    topo = SegmentedTopology({"a": "s1", "b": "s1", "c": "s2"}, intra, inter)
    assert topo.params_for("a", "b") is intra
    assert topo.params_for("a", "c") is inter
    assert topo.params_for("c", "b") is inter


def test_segmented_unknown_host_raises():
    topo = SegmentedTopology({}, NetworkParams(), NetworkParams())
    with pytest.raises(NetworkError):
        topo.params_for("ghost", "ghost2")


def test_network_requires_topology(sim):
    from repro.net.network import Network

    with pytest.raises(NetworkError):
        Network(sim, NetworkParams())  # params is not a topology


# ---------------------------------------------------------------------------
# Property tests: the send path's transfer time and SegmentedTopology
# ---------------------------------------------------------------------------

latencies = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
bandwidths = st.floats(min_value=1.0, max_value=1e9, allow_nan=False)
sizes = st.integers(min_value=0, max_value=10_000_000)


def transfer_time(lat, bw, size):
    """When a *size*-byte datagram sent at t=0 arrives on a link with no
    per-message overheads: the in-flight time ``Network.transmit`` charges."""
    from repro.net.network import Network
    from repro.net.socket import Socket
    from repro.sim.core import Simulator

    sim = Simulator()
    net = Network(sim, UniformTopology(NetworkParams(
        send_overhead_s=0.0, recv_overhead_s=0.0,
        wire_latency_s=lat, bandwidth_bytes_per_s=bw)))
    inbox = Socket(net, "b", 2)
    Socket(net, "a", 1).sendto("x", "b", 2, size_bytes=size)

    def receive():
        yield inbox.recv()
        return sim.now

    return sim.run(sim.process(receive()))


@given(lat=latencies, bw=bandwidths, small=sizes, extra=sizes)
@settings(max_examples=60, deadline=None)
def test_transfer_time_monotone_in_size_and_latency_floored(lat, bw, small, extra):
    """More bytes never travel faster, and nothing beats the wire
    latency itself (size 0 pays exactly the latency)."""
    assert transfer_time(lat, bw, small) <= transfer_time(lat, bw, small + extra)
    assert transfer_time(lat, bw, small) >= lat
    assert transfer_time(lat, bw, 0) == pytest.approx(lat)


@given(lat=latencies, bw=bandwidths, size=sizes)
@settings(max_examples=60, deadline=None)
def test_transfer_time_is_latency_plus_serialisation(lat, bw, size):
    assert transfer_time(lat, bw, size) == pytest.approx(lat + size / bw)


@given(bw=st.floats(max_value=0.0, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_params_reject_non_positive_bandwidth(bw):
    with pytest.raises(NetworkError):
        NetworkParams(bandwidth_bytes_per_s=bw)


@given(lat=st.floats(max_value=-1e-12, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_params_reject_negative_latency(lat):
    with pytest.raises(NetworkError):
        NetworkParams(wire_latency_s=lat)


hostnames = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=1, max_size=8, unique=True,
)


@given(hosts=hostnames, segbits=st.lists(st.booleans(), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_segmented_pays_inter_iff_segments_differ(hosts, segbits):
    """For every pair: intra iff both hosts share a segment, and the
    choice is symmetric in (src, dst)."""
    intra, inter = NetworkParams(), NetworkParams(wire_latency_s=0.5)
    seg = {h: ("s1" if bit else "s2") for h, bit in zip(hosts, segbits)}
    topo = SegmentedTopology(seg, intra, inter)
    for a in hosts:
        for b in hosts:
            expected = intra if seg[a] == seg[b] else inter
            assert topo.params_for(a, b) is expected
            assert topo.params_for(b, a) is topo.params_for(a, b)


# ---------------------------------------------------------------------------
# Time-varying dynamics: spikes, partitions, stragglers
# ---------------------------------------------------------------------------


def test_spike_validation():
    with pytest.raises(NetworkError):
        CongestionSpike(start_s=1.0, end_s=1.0, factor=2.0)  # empty window
    with pytest.raises(NetworkError):
        CongestionSpike(start_s=0.0, end_s=1.0, factor=0.5)  # "acceleration"


def test_partition_validation():
    with pytest.raises(NetworkError):
        PartitionWindow(start_s=2.0, end_s=1.0, island=frozenset({"a"}))
    with pytest.raises(NetworkError):
        PartitionWindow(start_s=0.0, end_s=1.0, island=frozenset())


@given(
    island_bits=st.lists(st.booleans(), min_size=2, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_partition_severs_exactly_the_cut(island_bits):
    """A link is severed iff exactly one endpoint is inside the island
    (the XOR property), never for traffic wholly on either side."""
    hosts = [f"h{i}" for i in range(len(island_bits))]
    island = frozenset(h for h, bit in zip(hosts, island_bits) if bit)
    if not island:
        island = frozenset({hosts[0]})
    window = PartitionWindow(start_s=0.0, end_s=1.0, island=island)
    for a in hosts:
        for b in hosts:
            assert window.severs(a, b) == ((a in island) != (b in island))


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_dynamic_spike_scales_latency_only_inside_window():
    clock = _Clock()
    base = UniformTopology(NetworkParams(wire_latency_s=1e-3, jitter_s=1e-4))
    topo = DynamicTopology(
        base, clock, spikes=[CongestionSpike(1.0, 2.0, factor=10.0)]
    )
    before = topo.params_for("a", "b")
    assert before is base.params
    clock.now = 1.5
    during = topo.params_for("a", "b")
    assert during.wire_latency_s == pytest.approx(1e-2)
    assert during.jitter_s == pytest.approx(1e-3)
    assert during.bandwidth_bytes_per_s == base.params.bandwidth_bytes_per_s
    clock.now = 2.0  # window is half-open: [start, end)
    assert topo.params_for("a", "b") is base.params


def test_dynamic_overlapping_spikes_compound_and_cache_hits():
    clock = _Clock()
    base = UniformTopology(NetworkParams(wire_latency_s=1e-3))
    topo = DynamicTopology(base, clock, spikes=[
        CongestionSpike(0.0, 2.0, factor=3.0),
        CongestionSpike(1.0, 3.0, factor=2.0),
    ])
    clock.now = 1.5
    both = topo.params_for("a", "b")
    assert both.wire_latency_s == pytest.approx(6e-3)
    assert topo.params_for("a", "b") is both  # scaled params are cached


def test_dynamic_segment_scoped_spike_hits_links_touching_the_segment():
    clock = _Clock()
    seg = SegmentedTopology(
        {"a": "s1", "b": "s1", "c": "s2"},
        intra=NetworkParams(wire_latency_s=1e-3),
        inter=NetworkParams(wire_latency_s=5e-3),
    )
    topo = DynamicTopology(
        seg, clock, spikes=[CongestionSpike(0.0, 1.0, factor=4.0, segment="s2")]
    )
    assert topo.params_for("a", "b").wire_latency_s == pytest.approx(1e-3)
    assert topo.params_for("a", "c").wire_latency_s == pytest.approx(2e-2)
    assert topo.params_for("c", "a").wire_latency_s == pytest.approx(2e-2)


def test_dynamic_stragglers_compound_across_both_endpoints():
    clock = _Clock()
    base = UniformTopology(NetworkParams(wire_latency_s=1e-3))
    topo = DynamicTopology(base, clock, stragglers={"slow": 3.0, "worse": 5.0})
    assert topo.params_for("fast1", "fast2") is base.params
    assert topo.params_for("slow", "fast1").wire_latency_s == pytest.approx(3e-3)
    assert topo.params_for("slow", "worse").wire_latency_s == pytest.approx(15e-3)
    with pytest.raises(NetworkError):
        DynamicTopology(base, clock, stragglers={"x": 0.5})


def test_dynamic_partition_reachability_window():
    clock = _Clock()
    base = UniformTopology(NetworkParams())
    topo = DynamicTopology(base, clock, partitions=[
        PartitionWindow(1.0, 2.0, island=frozenset({"a"}))
    ])
    assert topo.is_reachable("a", "b")
    clock.now = 1.5
    assert not topo.is_reachable("a", "b")
    assert not topo.is_reachable("b", "a")
    assert topo.is_reachable("b", "c")  # both outside the island
    clock.now = 2.0  # healed
    assert topo.is_reachable("a", "b")


def test_static_topologies_do_not_override_is_reachable():
    """The network's hot path skips the reachability call for static
    topologies; that optimisation relies on this class invariant."""
    from repro.net.topology import Topology

    for cls in (UniformTopology, SegmentedTopology):
        assert cls.is_reachable is Topology.is_reachable
    assert DynamicTopology.is_reachable is not Topology.is_reachable
