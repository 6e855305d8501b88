"""Network topologies: who pays which link costs to reach whom.

The 1994 evaluation ran on a single Ethernet segment, which
:class:`UniformTopology` models.  The paper's *future work* section
proposes scheduling that is aware of heterogeneous network capability
("preserve locality with respect to those network cuts that have the
least bandwidth"); :class:`SegmentedTopology` provides exactly that
substrate — several LAN segments joined by a slower backbone — and is
used by the heterogeneity ablation bench.

:class:`DynamicTopology` layers *time-varying* behaviour on any base
topology: per-host straggler multipliers, :class:`CongestionSpike`
windows that inflate link latency, and :class:`PartitionWindow`\\ s
during which an island of hosts is unreachable from the rest of the
cluster (and heals afterwards).  It is the substrate for the
latency-aware stealing experiments and the partition/spike fuzzer
scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.net.network import NetworkParams


class Topology:
    """Maps an (src_host, dst_host) pair to the link parameters it pays."""

    def params_for(self, src: str, dst: str) -> NetworkParams:
        raise NotImplementedError

    def segment_of(self, host: str) -> str:
        """Name of the segment a host lives on (single segment by default)."""
        return "lan0"

    def is_reachable(self, src: str, dst: str) -> bool:
        """Whether a datagram sent now from *src* can reach *dst*.

        Static topologies are always fully connected; only dynamic
        topologies (partitions) override this.  The network layer skips
        the call entirely unless it is overridden, keeping the static
        hot path free of it.
        """
        return True


class UniformTopology(Topology):
    """Every pair of hosts communicates with the same link parameters."""

    def __init__(self, params: NetworkParams) -> None:
        self.params = params

    def params_for(self, src: str, dst: str) -> NetworkParams:
        return self.params


class SegmentedTopology(Topology):
    """Hosts grouped into LAN segments joined by a slower backbone.

    Intra-segment traffic pays ``intra``; traffic crossing segments pays
    ``inter`` (typically higher latency / lower bandwidth — the "least
    bandwidth cut" of the paper's future-work discussion).
    """

    def __init__(
        self,
        segment_of: Mapping[str, str],
        intra: NetworkParams,
        inter: NetworkParams,
    ) -> None:
        self._segment_of: Dict[str, str] = dict(segment_of)
        self.intra = intra
        self.inter = inter

    def segment_of(self, host: str) -> str:
        try:
            return self._segment_of[host]
        except KeyError:
            raise NetworkError(f"host {host!r} is not placed on any segment") from None

    def params_for(self, src: str, dst: str) -> NetworkParams:
        return self.intra if self.segment_of(src) == self.segment_of(dst) else self.inter


@dataclass(frozen=True)
class CongestionSpike:
    """Latency on (some or all) links is multiplied during a window.

    ``segment=None`` congests every link; otherwise only links with an
    endpoint on that segment pay the factor.  Overlapping spikes
    compound multiplicatively.
    """

    start_s: float
    end_s: float
    factor: float
    segment: Optional[str] = None

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise NetworkError(
                f"spike window must have end > start, got "
                f"[{self.start_s}, {self.end_s}]")
        if self.factor < 1.0:
            raise NetworkError(
                f"spike factor must be >= 1 (it models congestion, not "
                f"acceleration), got {self.factor}")

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class PartitionWindow:
    """An island of hosts is cut off from the rest, then heals.

    While active, any datagram with exactly one endpoint inside
    ``island`` is dropped by the network (both directions).  Traffic
    wholly inside or wholly outside the island is unaffected.
    """

    start_s: float
    end_s: float
    island: FrozenSet[str]

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise NetworkError(
                f"partition window must have end > start, got "
                f"[{self.start_s}, {self.end_s}]")
        if not self.island:
            raise NetworkError("partition island must name at least one host")
        object.__setattr__(self, "island", frozenset(self.island))

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def severs(self, src: str, dst: str) -> bool:
        return (src in self.island) != (dst in self.island)


class DynamicTopology(Topology):
    """Time-varying behaviour layered over a static base topology.

    * ``stragglers`` — per-host latency multipliers; a link pays the
      product of both endpoints' factors (a straggler is slow to talk
      *and* to be talked to).
    * ``spikes`` — :class:`CongestionSpike` windows scaling latency.
    * ``partitions`` — :class:`PartitionWindow`\\ s during which
      cross-island traffic is unreachable.

    ``clock`` supplies the current simulation time (wire it to
    ``sim.now``).  Scaled :class:`NetworkParams` are cached per
    (base params, factor), so steady factors cost one dict hit per
    send rather than an allocation.
    """

    def __init__(
        self,
        base: Topology,
        clock: Callable[[], float],
        spikes: Sequence[CongestionSpike] = (),
        partitions: Sequence[PartitionWindow] = (),
        stragglers: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.base = base
        self.clock = clock
        self.spikes = tuple(spikes)
        self.partitions = tuple(partitions)
        self.stragglers: Dict[str, float] = dict(stragglers or {})
        for host, factor in self.stragglers.items():
            if factor < 1.0:
                raise NetworkError(
                    f"straggler factor for {host!r} must be >= 1, got {factor}")
        self._scaled: Dict[Tuple[NetworkParams, float], NetworkParams] = {}

    def segment_of(self, host: str) -> str:
        return self.base.segment_of(host)

    def _latency_factor(self, src: str, dst: str, now: float) -> float:
        factor = (self.stragglers.get(src, 1.0)
                  * self.stragglers.get(dst, 1.0))
        for spike in self.spikes:
            if spike.active_at(now) and (
                    spike.segment is None
                    or spike.segment in (self.base.segment_of(src),
                                         self.base.segment_of(dst))):
                factor *= spike.factor
        return factor

    def params_for(self, src: str, dst: str) -> NetworkParams:
        params = self.base.params_for(src, dst)
        factor = self._latency_factor(src, dst, self.clock())
        if factor == 1.0:
            return params
        key = (params, factor)
        scaled = self._scaled.get(key)
        if scaled is None:
            scaled = replace(
                params,
                wire_latency_s=params.wire_latency_s * factor,
                jitter_s=params.jitter_s * factor,
            )
            self._scaled[key] = scaled
        return scaled

    def is_reachable(self, src: str, dst: str) -> bool:
        now = self.clock()
        for window in self.partitions:
            if window.active_at(now) and window.severs(src, dst):
                return False
        return True
