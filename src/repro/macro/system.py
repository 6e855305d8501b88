"""PhishSystem: the whole network of workstations, assembled.

Builds the environment of the paper's Figure 2 — a network of
workstations, each with an owner (activity trace) and a PhishJobManager
daemon, plus the PhishJobQ — and provides the user-facing ``submit``
that models typing ``ray my-scene`` on a workstation: it starts the
job's Clearinghouse and first worker locally and registers the job with
the PhishJobQ so that idle machines pick it up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from repro.clearinghouse.clearinghouse import Clearinghouse, ClearinghouseConfig
from repro.cluster.owner import AlwaysIdleTrace, Owner, OwnerTrace
from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.cluster.workstation import Workstation
from repro.errors import JobError
from repro.macro.job import JobHandle, JobRecord
from repro.macro.jobmanager import JobManagerConfig, PhishJobManager
from repro.macro.jobq import PhishJobQ
from repro.macro.policies import AssignmentPolicy
from repro.micro.worker import Worker
from repro.net.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import Probe
from repro.phish import build_cluster
from repro.sim.core import Flag, Simulator
from repro.sim.events import AllOf
from repro.tasks.program import JobProgram
from repro.util.rng import RngRegistry
from repro.util.trace import TraceLog

#: Signature of an owner-trace factory: (rng, host_name) -> OwnerTrace.
TraceFactory = Callable[[random.Random, str], OwnerTrace]

#: Simulated seconds the system keeps running after its last job finished.
DRAIN_S = 5.0


@dataclass
class PhishSystemConfig:
    """Shape of the simulated workstation network."""

    n_workstations: int = 8
    profile: PlatformProfile = SPARCSTATION_1
    seed: int = 0
    jobmanager: JobManagerConfig = field(default_factory=JobManagerConfig)
    clearinghouse: ClearinghouseConfig = field(default_factory=ClearinghouseConfig)
    #: Factory building each workstation's owner activity trace
    #: (default: machines are always idle, the paper's measurement mode).
    owner_trace: TraceFactory = field(
        default=lambda rng, host: AlwaysIdleTrace()
    )
    #: Assignment policy for the JobQ (None: paper's round-robin).
    policy: Optional[AssignmentPolicy] = None
    topology: Optional[Topology] = None
    trace: bool = False
    #: Feed a MetricsRegistry from every layer (network, JobQ,
    #: Clearinghouses, workers).  Off by default: the macro experiments
    #: only need the NetCounters/JobStats numbers.
    metrics: bool = False


class PhishSystem:
    """A running Phish network: JobQ + JobManagers + owners."""

    def __init__(self, config: Optional[PhishSystemConfig] = None) -> None:
        self.config = config or PhishSystemConfig()
        cfg = self.config
        if cfg.n_workstations < 1:
            raise JobError("need at least one workstation")
        self.sim = Simulator()
        self.rng = RngRegistry(cfg.seed)
        self.trace = TraceLog(enabled=True, capacity=200_000) if cfg.trace else None
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if cfg.metrics else None
        )
        #: The one probe every component of this system reports through.
        self.probe = Probe.for_run(self.trace, self.metrics)
        self.network, self.workstations = build_cluster(
            self.sim, cfg.n_workstations, cfg.profile, self.rng, cfg.topology,
            self.probe,
        )
        self.owners: List[Owner] = [
            Owner(ws, cfg.owner_trace(self.rng.stream(f"owner.{i}"), ws.name))
            for i, ws in enumerate(self.workstations)
        ]
        #: The JobQ lives on the first workstation (paper: "one computer").
        self.jobq = PhishJobQ(
            self.sim, self.network, self.workstations[0].name, cfg.policy,
            probe=self.probe,
        )
        self.jobmanagers: Dict[str, PhishJobManager] = {
            ws.name: PhishJobManager(
                self.sim, ws, self.network, self.jobq.host, cfg.jobmanager,
                rng=self.rng.stream(f"jm.{i}"), probe=self.probe,
            )
            for i, ws in enumerate(self.workstations)
        }
        self.handles: List[JobHandle] = []

    def workstation(self, name: str) -> Workstation:
        for ws in self.workstations:
            if ws.name == name:
                return ws
        raise JobError(f"no workstation named {name!r}")

    # ------------------------------------------------------------------

    def submit(
        self,
        program: JobProgram,
        from_host: Optional[str] = None,
        priority: int = 0,
        start_first_worker: bool = True,
    ) -> JobHandle:
        """Submit a job the way a user invokes a Phish program.

        Starts the Clearinghouse (and, by default, the first worker) on
        *from_host* and pools the job at the PhishJobQ.  Idle machines
        then join via their JobManagers.
        """
        host = from_host or self.workstations[0].name
        self.workstation(host)  # validates
        record = self.jobq.submit_record(
            program, host, priority, register_first_worker=start_first_worker,
        )
        worker_port, ch_rpc, ch_data = record.ports()
        ch = Clearinghouse(
            self.sim,
            self.network,
            host,
            job_name=record.name,
            config=self.config.clearinghouse,
            worker_port=worker_port,
            rpc_port=ch_rpc,
            data_port=ch_data,
            probe=self.probe,
        )
        first_worker: Optional[Worker] = None
        if start_first_worker:
            first_worker = self.jobmanagers[host].start_worker(
                record.descriptor(), self.rng.stream(f"job{record.job_id}.first"))
        self.sim.process(
            self._job_watcher(record, ch, first_worker),
            name=f"job-watcher:{record.job_id}",
        )
        handle = JobHandle(record=record, clearinghouse=ch, first_worker=first_worker)
        self.handles.append(handle)
        return handle

    def _job_watcher(self, record: JobRecord, ch: Clearinghouse, first_worker) -> Generator:
        """Submitter-side bookkeeping: release the first worker's slot and
        mark the job done at the JobQ — through the submit host's daemon,
        whose calls retry until heard (a lost one would leave a finished
        job in the pool, granted to idle machines for good)."""
        daemon = self.jobmanagers[record.ch_host]
        if first_worker is not None:
            yield first_worker.finished.wait()
            yield from daemon._tell_jobq(*daemon._release(record.job_id))
        yield ch.done.wait()
        yield from daemon._tell_jobq("job_done", record.job_id)

    # ------------------------------------------------------------------

    def run_until_done(self, timeout_s: float = 1e7) -> None:
        """Run until every submitted job completed (or raise on timeout)."""
        if not self.handles:
            raise JobError("no jobs submitted")
        all_done = Flag()
        AllOf(self.sim, [h.done.wait() for h in self.handles]).subscribe(all_done)
        if not self.sim.run_until(all_done, self.sim.now + timeout_s):
            raise JobError(
                f"jobs did not finish within {timeout_s} simulated seconds"
            )
        self.sim.run(until=self.sim.now + DRAIN_S)

    def stop(self) -> None:
        """Tear all daemons down (end of an experiment)."""
        for jm in self.jobmanagers.values():
            jm.stop()
        self.jobq.stop()
        for handle in self.handles:
            handle.clearinghouse.stop()
