"""Platform profiles: CPU speed, network costs, scheduling overheads.

A :class:`PlatformProfile` bundles everything that distinguishes "a
SparcStation 10 running Phish over Ethernet" from "a CM-5 node running
Strata over the fat-tree": how fast instructions retire, what a message
costs, and what the per-task scheduling machinery costs.

Calibration notes (these are *model constants*, chosen to sit in the
historically plausible range and documented in EXPERIMENTS.md):

* SparcStation 1: ~12.5 MIPS (20 MHz SPARC).  SparcStation 10: ~100
  MIPS.  CM-5 node: 32 MHz SPARC, ~25 MIPS.
* Workstation UDP/IP messaging: ~1 ms software overhead per end, 10 Mbit/s
  shared Ethernet.  CM-5 data network: ~3 µs per active message end,
  ~10 MB/s per node — the "two orders of magnitude" gap the paper cites
  for both overhead and bisection bandwidth.
* Per-task scheduling overheads are what Table 1's serial-slowdown
  experiment measures.  Strata schedules a *static* processor set; Phish
  "must work harder in its scheduling because it operates with a dynamic
  processor set", which the ``dynamic_set_cycles`` term models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ReproError
from repro.net.network import NetworkParams


@dataclass(frozen=True)
class PlatformProfile:
    """Constants describing one machine type + runtime-system combination.

    Attributes:
        name: profile name (registry key).
        mips: CPU speed in millions of simulated instructions ("cycles")
            per second; all work and overheads are expressed in cycles.
        net: link parameters this machine pays for messaging.
        spawn_cycles: packaging one task so it can run in parallel
            (closure allocation + argument copy + deque push) — the cost
            a plain procedure call avoids in the serial code.
        schedule_cycles: dispatching one ready task (deque pop, joins).
        sync_cycles: one local ``send_argument`` (decrement a join
            counter, write a slot).
        poll_cycles: one poll of the network between task executions.
        dynamic_set_cycles: extra per-task bookkeeping a *dynamic*
            processor set costs (participant table checks, migration
            readiness); zero for Strata's static set.
        scheduler: human-readable runtime-system name.
    """

    name: str
    mips: float
    net: NetworkParams
    spawn_cycles: float
    schedule_cycles: float
    sync_cycles: float
    poll_cycles: float
    dynamic_set_cycles: float
    scheduler: str

    def __post_init__(self) -> None:
        if self.mips <= 0:
            raise ReproError(f"profile {self.name!r}: mips must be positive")
        for fieldname in (
            "spawn_cycles",
            "schedule_cycles",
            "sync_cycles",
            "poll_cycles",
            "dynamic_set_cycles",
        ):
            if getattr(self, fieldname) < 0:
                raise ReproError(f"profile {self.name!r}: {fieldname} must be >= 0")

    @property
    def cycles_per_second(self) -> float:
        return self.mips * 1e6

    def seconds(self, cycles: float) -> float:
        """Convert simulated instruction cycles to simulated seconds."""
        return cycles / self.cycles_per_second

    def task_overhead_cycles(self) -> float:
        """Total per-task scheduling overhead the parallel code pays."""
        return (
            self.spawn_cycles
            + self.schedule_cycles
            + self.sync_cycles
            + self.poll_cycles
            + self.dynamic_set_cycles
        )


#: Mid-90s Ethernet + UDP/IP as seen by a workstation.
ETHERNET_UDP = NetworkParams(
    send_overhead_s=1.0e-3,
    recv_overhead_s=1.0e-3,
    wire_latency_s=0.5e-3,
    bandwidth_bytes_per_s=1.25e6,  # 10 Mbit/s shared
)

#: CM-5 data network with active messages (per-node view).
CM5_INTERCONNECT = NetworkParams(
    send_overhead_s=3.0e-6,
    recv_overhead_s=3.0e-6,
    wire_latency_s=1.0e-6,
    bandwidth_bytes_per_s=1.0e7,  # ~10 MB/s per node
)

SPARCSTATION_1 = PlatformProfile(
    name="sparcstation-1",
    mips=12.5,
    net=ETHERNET_UDP,
    spawn_cycles=30.0,
    schedule_cycles=19.0,
    sync_cycles=9.0,
    poll_cycles=6.0,
    dynamic_set_cycles=19.0,
    scheduler="phish",
)

SPARCSTATION_10 = PlatformProfile(
    name="sparcstation-10",
    mips=100.0,
    net=ETHERNET_UDP,
    spawn_cycles=30.0,
    schedule_cycles=19.0,
    sync_cycles=9.0,
    poll_cycles=6.0,
    dynamic_set_cycles=19.0,
    scheduler="phish",
)

CM5_NODE = PlatformProfile(
    name="cm5-node",
    mips=25.0,
    net=CM5_INTERCONNECT,
    spawn_cycles=30.0,
    schedule_cycles=17.0,
    sync_cycles=8.5,
    poll_cycles=5.0,
    dynamic_set_cycles=0.0,  # Strata: static processor set
    scheduler="strata",
)

PLATFORMS: Dict[str, PlatformProfile] = {
    profile.name: profile for profile in (SPARCSTATION_1, SPARCSTATION_10, CM5_NODE)
}
