"""The PhishJobManager: the per-workstation idle-cycle harvesting daemon.

"The PhishJobManager, a background daemon, resides on every workstation
that is part of the Phish network and tries to obtain a job from the
PhishJobQ when the workstation becomes idle. ... While users are logged
in, the PhishJobManager checks every five minutes to see if they have
logged out.  As soon as the PhishJobManager discovers that its
workstation is idle, it requests a job from the PhishJobQ.  If the
PhishJobQ responds negatively ... the PhishJobManager continues to
request a job every thirty seconds ...  If the PhishJobQ responds
positively by assigning a job, the PhishJobManager starts a worker
process to participate in the job and waits for the worker to
terminate.  In the meantime, the PhishJobManager checks every two
seconds to see if anyone has logged in.  If the PhishJobManager
discovers that the workstation is no longer idle, it terminates the
worker process."
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.cluster.owner import NobodyLoggedInPolicy
from repro.cluster.workstation import Workstation
from repro.errors import AddressError, RpcError
from repro.micro import protocol as P
from repro.micro.worker import Worker, WorkerConfig
from repro.net.network import Network
from repro.net.rpc import RpcClient
from repro.obs.probe import Probe
from repro.sim.core import Event, Interrupt, Simulator, Within


@dataclass
class JobManagerConfig:
    """Poll intervals (paper defaults) and worker parameters."""

    #: While the owner is logged in, re-check this often (paper: 5 min).
    busy_poll_s: float = 300.0
    #: While the job pool is empty, re-request this often (paper: 30 s).
    no_job_retry_s: float = 30.0
    #: While a worker runs, check for owner login this often (paper: 2 s).
    reclaim_poll_s: float = 2.0
    #: Idleness policy (paper default: nobody logged in).
    idleness_policy: object = field(default_factory=NobodyLoggedInPolicy)
    #: Preempt the running worker when a strictly-higher-priority job
    #: waits in the pool ("the only case in which the macro-level
    #: scheduler performs time-sharing").  Checked on the reclaim poll.
    enable_preemption: bool = False
    #: Template for workers this manager starts.  Macro-managed workers
    #: retire after this many consecutive failed steals so the machine
    #: goes back into the pool when a job's parallelism shrinks.
    worker_config: WorkerConfig = field(
        default_factory=lambda: WorkerConfig(retire_after_failed_steals=25)
    )


class PhishJobManager:
    """Idle-cycle harvesting daemon for one workstation.

    The machine side of the macro protocol is written once, in
    :meth:`_run`; its two steps that vary are methods a subclass may
    replace: how to wait when the JobQ has no work (:meth:`_no_job_wait`)
    and what participating in a granted job means (:meth:`_participate`)
    — the traffic engine (:mod:`repro.macro.traffic`) swaps in a wait on
    the JobQ's bell and a synthetic service drain.
    """

    def __init__(
        self,
        sim: Simulator,
        workstation: Workstation,
        network: Network,
        jobq_host: str,
        config: Optional[JobManagerConfig] = None,
        rng: Optional[random.Random] = None,
        probe: Optional[Probe] = None,
    ) -> None:
        self.sim = sim
        self.workstation = workstation
        self.network = network
        #: Every call this daemon makes to the PhishJobQ goes through here.
        self.jobq = RpcClient(network, workstation.name, jobq_host, P.JOBQ_PORT)
        self.config = config or JobManagerConfig()
        self.rng = rng or random.Random(0)
        #: The run's probe seam (repro.obs.probe), or None; shared with
        #: every worker this daemon starts.
        self._probe = probe
        self.current_worker: Optional[Worker] = None
        self.current_job_id: Optional[int] = None
        #: Counters for the macro experiments.
        self.jobs_started = 0
        self.workers_reclaimed = 0
        self.workers_preempted = 0
        self.process = sim.process(self._run(), name=f"jobmanager@{workstation.name}")
        workstation.register_process(self.process)

    # ------------------------------------------------------------------

    def _run(self) -> Generator:
        cfg = self.config
        ws = self.workstation
        #: What the last participation owes the JobQ — a ``(method, args)``
        #: notice, ``release`` or ``job_done`` — until a call that carried
        #: it returned: the next ``request_job`` takes it along.
        owed = None
        try:
            while True:
                # Phase 1: wait for the machine to become idle.
                if not cfg.idleness_policy.is_idle(ws):
                    if owed is not None:  # no request to ride on: say it now
                        yield from self._tell_jobq(*owed)
                        self._heard(owed)
                        owed = None
                    yield self.sim.timeout(cfg.busy_poll_s)
                    continue
                # Phase 2: get a job (retrying while the pool is empty).
                try:
                    descriptor = yield from self.jobq.call(
                        "request_job", ws.name, notices=(owed,) if owed else ())
                    if owed is not None:
                        self._heard(owed)
                        owed = None
                except RpcError:
                    descriptor = None  # JobQ unreachable; retry later
                if descriptor is None:
                    yield self._no_job_wait()
                    continue
                # Phase 3: participate until done, drained or reclaimed.
                owed = yield from self._participate(descriptor)
        except Interrupt:
            if self.current_worker is not None:
                self.current_worker.stop()
            return

    def _heard(self, notice: tuple) -> None:
        """The JobQ has run *notice* (the call that took it returned)."""

    def _no_job_wait(self) -> "Event | Within":
        """What to yield after the JobQ answered "no job" (paper: 30 s)."""
        return self.sim.timeout(self.config.no_job_retry_s)

    def _tell_jobq(self, method: str, args: object) -> Generator:
        """Make a JobQ call that must land, retrying until it is heard."""
        while True:
            try:
                return (yield from self.jobq.call(method, args))
            except RpcError:  # JobQ unreachable; retry later
                yield self.sim.timeout(self.config.no_job_retry_s)

    def _release(self, job_id: int) -> tuple:
        """The notice that this machine no longer participates in *job_id*
        (owed until the JobQ hears it: a slot left taken by a machine that
        is gone counts against the job's ``max_workers`` for good)."""
        return "release", {"job_id": job_id, "workstation": self.workstation.name}

    def start_worker(self, descriptor: dict, rng: random.Random) -> Worker:
        """A worker for the described job on this workstation (also how
        ``PhishSystem.submit`` starts a job's first worker)."""
        return Worker(
            self.sim, self.workstation, self.network, descriptor["program"],
            clearinghouse_host=descriptor["ch_host"],
            config=dataclasses.replace(
                self.config.worker_config,
                port=descriptor["worker_port"],
                ch_rpc_port=descriptor["ch_rpc_port"],
                ch_data_port=descriptor["ch_data_port"],
            ),
            rng=rng, probe=self._probe,
        )

    def _participate(self, descriptor: dict) -> Generator:
        """Run a worker for the granted job and watch for the owner's
        return; the value is the notice now owed to the JobQ, if any."""
        cfg = self.config
        ws = self.workstation
        try:
            worker = self.start_worker(
                descriptor, random.Random(self.rng.getrandbits(64)))
        except AddressError:
            # A previous worker for this job still forwards on the port;
            # release the slot and come back later.
            yield from self._tell_jobq(*self._release(descriptor["job_id"]))
            yield self.sim.timeout(self.config.no_job_retry_s)
            return None
        self.current_worker = worker
        self.current_job_id = descriptor["job_id"]
        self.jobs_started += 1
        if self._probe is not None and (on := self._probe.get("jm.start_worker")):
            on(self.sim.now, "jm.start_worker", ws.name, {"job": descriptor["job_id"]})
        finished = worker.finished.wait()
        while not worker.finished.is_set:
            yield Within(finished, self.sim.timeout(cfg.reclaim_poll_s))
            if worker.finished.is_set:
                break
            if not cfg.idleness_policy.is_idle(ws):
                # Owner is back: kill the worker (it migrates its tasks).
                self.workers_reclaimed += 1
                if self._probe is not None and (on := self._probe.get("jm.reclaim")):
                    on(self.sim.now, "jm.reclaim", ws.name, {})
                worker.evict("owner-reclaimed")
                yield worker.finished.wait()
                break
            if cfg.enable_preemption:
                try:
                    should = yield from self.jobq.call(
                        "check_preempt",
                        {"workstation": ws.name, "job_id": descriptor["job_id"]},
                    )
                except RpcError:
                    should = False
                if should and not worker.finished.is_set:
                    self.workers_preempted += 1
                    if (self._probe is not None
                            and (on := self._probe.get("jm.preempt"))):
                        on(self.sim.now, "jm.preempt", ws.name, {})
                    worker.evict("preempted")
                    yield worker.finished.wait()
                    break
        self.current_worker = None
        self.current_job_id = None
        return self._release(descriptor["job_id"])

    def stop(self) -> None:
        """Shut the daemon down (and any worker it is running)."""
        self.process.interrupt("jobmanager-stop")
