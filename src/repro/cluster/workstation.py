"""The simulated workstation: CPU time, owner state, crash faults."""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.platform import PlatformProfile
from repro.errors import ReproError
from repro.net.network import Network
from repro.sim.core import Event, Process, Simulator


class Workstation:
    """One machine on the simulated network.

    Provides:

    * a clock-speed-aware ``execute(cycles)`` primitive for simulated
      computation, with `rusage`-style busy-time accounting (message
      software overheads are charged here too, via the network's CPU
      hook);
    * owner state (``user_logged_in``, ``load``) driven by an
      :class:`~repro.cluster.owner.Owner` process and read by idleness
      policies;
    * crash faults: :meth:`crash` partitions the host off the network
      and interrupts every registered process, which is how the
      fault-tolerance experiments kill machines.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: PlatformProfile,
        network: Optional[Network] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.profile = profile
        #: ``profile.cycles_per_second``, cached: the per-task conversion
        #: is one division by it (the same float expression).
        self._cycles_per_second = profile.cycles_per_second
        self.network = network
        #: Accumulated CPU-busy seconds ("rusage"): compute + messaging.
        self.cpu_busy_s = 0.0
        self.user_logged_in = False
        self.load = 0.0
        self.crashed = False
        #: Processes to interrupt if this machine crashes.
        self._registered: List[Process] = []
        if network is not None:
            network.attach_cpu(name, self.charge)

    # -- computation ---------------------------------------------------------

    def seconds_for(self, cycles: float) -> float:
        """Wall-clock seconds this machine needs for *cycles* of work."""
        return cycles / self._cycles_per_second

    def charge(self, seconds: float) -> None:
        """Add busy time without blocking (used for messaging overhead).

        *seconds* must be non-negative: callers check it where they
        build it (``NetworkParams``, ``TrafficConfig.quantum_s``)."""
        self.cpu_busy_s += seconds

    def execute(self, cycles: float) -> Event:
        """Perform *cycles* of computation: an event after the right delay.

        Yields control to the kernel so concurrent activity (arriving
        steal requests, owner logins) interleaves at task boundaries,
        matching the paper's poll-between-tasks discipline.
        """
        if self.crashed:
            raise ReproError(f"execute() on crashed workstation {self.name!r}")
        seconds = cycles / self._cycles_per_second
        self.cpu_busy_s += seconds
        return self.sim.timeout(seconds)

    # -- process registration / faults ---------------------------------------

    def register_process(self, proc: Process) -> None:
        """Track a process so a crash can take it down with the machine."""
        self._registered.append(proc)

    def crash(self, cause: str = "machine-crash") -> None:
        """Fail-stop the machine: network silence + all processes killed."""
        if self.crashed:
            return
        self.crashed = True
        if self.network is not None:
            self.network.set_host_down(self.name, True)
        procs, self._registered = self._registered, []
        for proc in procs:
            proc.interrupt(cause)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else ("busy" if self.user_logged_in else "idle")
        return f"<Workstation {self.name} ({self.profile.name}) {state}>"
