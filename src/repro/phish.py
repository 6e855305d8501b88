"""High-level facade: assemble a cluster and run a Phish job on it.

:func:`run_job` is the measurement harness of Section 4 of the paper:
a fixed set of dedicated (owner-idle) workstations, one worker per
machine, all started "at as close to the same time as possible", with
the Clearinghouse co-located with the first worker.  It returns the
job's result plus the :class:`~repro.micro.stats.JobStats` that the
tables and figures are built from.

For the full system — PhishJobQ, PhishJobManagers, owners logging in
and out — see :mod:`repro.macro`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Generator, List, NamedTuple, Optional, Sequence,
)

from repro.clearinghouse.clearinghouse import Clearinghouse, ClearinghouseConfig
from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.cluster.workstation import Workstation
from repro.errors import ReproError
from repro.micro.stats import JobStats
from repro.micro.worker import Worker, WorkerConfig
from repro.net.network import Network
from repro.net.topology import Topology, UniformTopology
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.sim.core import Simulator
from repro.tasks.program import JobProgram
from repro.util.rng import RngRegistry
from repro.util.trace import TraceLog

#: Simulated seconds a finished job keeps running after its result so the
#: termination broadcast reaches every worker.
DRAIN_S = 2.0


@dataclass
class JobResult:
    """Everything a finished :func:`run_job` produced."""

    result: Any
    stats: JobStats
    #: Simulated seconds from first registration to result delivery.
    makespan: float
    #: The simulator (for post-run inspection in tests).
    sim: Simulator = field(repr=False)
    workers: List[Worker] = field(repr=False, default_factory=list)
    clearinghouse: Optional[Clearinghouse] = field(repr=False, default=None)
    network: Optional[Network] = field(repr=False, default=None)
    trace: Optional[TraceLog] = field(repr=False, default=None)
    metrics: Optional[MetricsRegistry] = field(repr=False, default=None)
    #: Finalized :meth:`SpanProfiler.summary` when a profiler was wired.
    profile: Optional[dict] = field(repr=False, default=None)


def build_cluster(
    sim: Simulator,
    n_hosts: int,
    profile: PlatformProfile,
    rng_registry: RngRegistry,
    topology: Optional[Topology] = None,
    probe: Optional[Probe] = None,
    profiles: Optional[List[PlatformProfile]] = None,
    names: Optional[Sequence[str]] = None,
) -> tuple[Network, List[Workstation]]:
    """Create a network plus *n_hosts* workstations.

    Homogeneous by default; pass *profiles* (one per host) for a
    heterogeneous cluster — the case the paper's measurements
    deliberately avoided ("we did our measurements using only
    SparcStation 1's") and its future work targets.  Hosts are called
    ``ws00``, ``ws01``, ... unless *names* says otherwise.
    """
    if n_hosts < 1:
        raise ReproError("need at least one workstation")
    if profiles is not None and len(profiles) != n_hosts:
        raise ReproError(
            f"got {len(profiles)} profiles for {n_hosts} workstations"
        )
    network = Network(
        sim,
        topology or UniformTopology(profile.net),
        rng=rng_registry.stream("net"),
        probe=probe,
    )
    hosts = [
        Workstation(
            sim, names[i] if names else f"ws{i:02d}",
            profiles[i] if profiles else profile, network
        )
        for i in range(n_hosts)
    ]
    return network, hosts


class Cluster(NamedTuple):
    """One job stood up on its own dedicated cluster (see :func:`start_job`)."""

    sim: Simulator
    network: Network
    hosts: List[Workstation]
    clearinghouse: Clearinghouse
    workers: List[Worker]

    def at(self, time_s: float, fn: Callable[[], None], name: str) -> None:
        """Run *fn* at simulated time *time_s* (fault injection)."""

        def proc() -> Generator:
            yield self.sim.timeout(time_s)
            fn()

        self.sim.process(proc(), name=name)

    def result(self, **observed: Any) -> JobResult:
        """The finished job's :class:`JobResult` (*observed*: the run's
        ``trace`` / ``metrics`` / ``profile``)."""
        ch = self.clearinghouse
        stats = JobStats(
            workers=[w.stats for w in self.workers],
            messages_sent=self.network.counters.sent,
            makespan=(ch.finished_at or self.sim.now) - (ch.started_at or 0.0),
            result=ch.result,
        )
        return JobResult(
            result=ch.result, stats=stats, makespan=stats.makespan, sim=self.sim,
            workers=self.workers, clearinghouse=ch, network=self.network,
            **observed,
        )


def start_job(
    sim: Simulator,
    job: JobProgram,
    n_workers: int,
    seed: int,
    worker_config: WorkerConfig,
    ch_config: Optional[ClearinghouseConfig] = None,
    profile: PlatformProfile = SPARCSTATION_1,
    start_jitter_s: float = 0.0,
    topology: Optional[Topology] = None,
    probe: Optional[Probe] = None,
    profiles: Optional[List[PlatformProfile]] = None,
    restore: Optional[Dict[str, tuple]] = None,
) -> Cluster:
    """Stand one job up on *sim*: the cluster, the Clearinghouse on the
    first workstation, and one worker per machine — the bring-up every
    harness (:func:`run_job`, the crash and checkpoint harnesses,
    :func:`repro.check.run_checked`) shares.  Nothing has run yet.

    Workers after the first start up to *start_jitter_s* late (stream
    ``start.jitter``); worker *i* draws from stream ``worker.{i}``.
    *restore* restarts a checkpoint instead: it maps each checkpointed
    worker's name to its ``(ready, suspended, seq)`` state; the fresh
    workstations take those names (so saved continuations still address
    the right hosts), the workers preload that state and draw from
    ``restore.{i}``, and nobody is handed the root — it lives inside the
    checkpointed state.
    """
    reg = RngRegistry(seed)
    names = sorted(restore) if restore is not None else None
    network, hosts = build_cluster(
        sim, n_workers, profile, reg, topology, probe, profiles, names
    )
    ch = Clearinghouse(sim, network, hosts[0].name, job.name, ch_config,
                       assign_root=restore is None, probe=probe)
    jitter_rng = reg.stream("start.jitter")
    stream = "worker" if restore is None else "restore"
    workers: List[Worker] = []
    for i, ws in enumerate(hosts):
        jitter = jitter_rng.random() * start_jitter_s if i > 0 else 0.0
        cfg = dataclasses.replace(
            worker_config, startup_cost_s=worker_config.startup_cost_s + jitter
        )
        workers.append(
            Worker(
                sim, ws, network, job,
                clearinghouse_host=hosts[0].name,
                config=cfg,
                rng=reg.stream(f"{stream}.{i}"),
                initial_state=None if restore is None else restore[ws.name],
                probe=probe,
            )
        )
    return Cluster(sim, network, hosts, ch, workers)


def run_job(
    job: JobProgram,
    n_workers: int = 1,
    profile: PlatformProfile = SPARCSTATION_1,
    seed: int = 0,
    worker_config: Optional[WorkerConfig] = None,
    ch_config: Optional[ClearinghouseConfig] = None,
    start_jitter_s: float = 0.1,
    topology: Optional[Topology] = None,
    trace: bool = False,
    profiles: Optional[List[PlatformProfile]] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional[Any] = None,
) -> JobResult:
    """Run *job* on *n_workers* dedicated workstations and collect stats.

    Args:
        job: the application and its root arguments.
        n_workers: participants (the paper's P).
        profile: machine type (default: SparcStation 1, the Figure 4/5
            testbed).
        seed: root seed for all random streams (steal victims, jitter).
        worker_config: micro-scheduler tunables; default paper settings.
        ch_config: Clearinghouse tunables.
        start_jitter_s: uniform extra startup delay per worker, modelling
            the paper's imperfect simultaneous starts.
        topology: network topology (default: uniform LAN from profile).
        trace: record a :class:`TraceLog` of scheduler/network events.
        profiles: optional per-workstation profiles (heterogeneous
            cluster); overrides *profile* machine-by-machine.
        metrics: optional :class:`MetricsRegistry` fed from the network,
            Clearinghouse, and every worker (``repro.cli obs``).
        profiler: optional :class:`~repro.obs.prof.SpanProfiler` fed the
            same way (``repro profile``); finalized after the drain,
            with its summary on ``JobResult.profile``.  All three
            observers subscribe to the run's one
            :class:`~repro.obs.probe.Probe`.
    """
    sim = Simulator()
    tracelog = TraceLog(enabled=True, capacity=200_000) if trace else None
    probe = Probe.for_run(tracelog, metrics, profiler)
    cluster = start_job(
        sim, job, n_workers, seed, worker_config or WorkerConfig(), ch_config,
        profile, start_jitter_s, topology, probe, profiles,
    )
    sim.run(cluster.clearinghouse.done.wait())
    sim.run(until=sim.now + DRAIN_S)  # let the done broadcast land everywhere
    if profiler is not None:
        profiler.finalize(sim.now)
    return cluster.result(
        trace=tracelog, metrics=metrics,
        profile=profiler.summary() if profiler is not None else None,
    )
