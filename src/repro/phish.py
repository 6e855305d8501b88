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
from typing import Any, List, Optional

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
) -> tuple[Network, List[Workstation]]:
    """Create a network plus *n_hosts* workstations.

    Homogeneous by default; pass *profiles* (one per host) for a
    heterogeneous cluster — the case the paper's measurements
    deliberately avoided ("we did our measurements using only
    SparcStation 1's") and its future work targets.
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
            sim, f"ws{i:02d}", profiles[i] if profiles else profile, network
        )
        for i in range(n_hosts)
    ]
    return network, hosts


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
    drain_s: float = 2.0,
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
        drain_s: simulated seconds to keep running after the result so
            the termination broadcast reaches every worker.
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
    reg = RngRegistry(seed)
    tracelog = TraceLog(enabled=True, capacity=200_000) if trace else None
    probe = Probe.for_run(tracelog, metrics, profiler)
    network, hosts = build_cluster(
        sim, n_workers, profile, reg, topology, probe, profiles=profiles
    )
    if profiler is not None:
        profiler.attach_sim(sim)

    ch = Clearinghouse(sim, network, hosts[0].name, job.name, ch_config,
                       probe=probe)

    base_cfg = worker_config or WorkerConfig()
    jitter_rng = reg.stream("start.jitter")
    workers: List[Worker] = []
    for i, ws in enumerate(hosts):
        jitter = jitter_rng.random() * start_jitter_s if i > 0 else 0.0
        cfg = dataclasses.replace(base_cfg, startup_cost_s=base_cfg.startup_cost_s + jitter)
        workers.append(
            Worker(
                sim,
                ws,
                network,
                job,
                clearinghouse_host=hosts[0].name,
                config=cfg,
                rng=reg.stream(f"worker.{i}"),
                probe=probe,
            )
        )

    sim.run(ch.done.wait())
    sim.run(until=sim.now + drain_s)  # let the done broadcast land everywhere
    if profiler is not None:
        profiler.finalize(sim.now)

    stats = JobStats(
        workers=[w.stats for w in workers],
        messages_sent=network.counters.sent,
        makespan=(ch.finished_at or sim.now) - (ch.started_at or 0.0),
        result=ch.result,
    )
    return JobResult(
        result=ch.result,
        stats=stats,
        makespan=stats.makespan,
        sim=sim,
        workers=workers,
        clearinghouse=ch,
        network=network,
        trace=tracelog,
        metrics=metrics,
        profile=profiler.summary() if profiler is not None else None,
    )
