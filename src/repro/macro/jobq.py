"""The PhishJobQ: the central pool of parallel jobs.

"The PhishJobQ, an RPC server, resides on one computer and manages the
pool of parallel jobs.  When a Phish application begins execution, it
is submitted to the PhishJobQ.  When an idle workstation requests a
job, the PhishJobQ assigns one of its parallel jobs to the idle
workstation."

Scale discipline (the production-traffic upgrade): the active pool is
an insertion-ordered index and every assignment decision goes through
the policy's own index (:mod:`repro.macro.policies`), so a request
costs O(log n) — the seed's per-request linear ``pool()`` rebuild is
gone.  ``list_jobs`` is paginated so one RPC reply stays bounded no
matter how many thousand jobs the queue has seen.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import JobError
from repro.macro.job import JobRecord
from repro.macro.policies import AssignmentPolicy, RoundRobinAssignment
from repro.micro import protocol as P
from repro.net.network import Network
from repro.net.rpc import RpcServer
from repro.obs.probe import Probe
from repro.sim.core import Simulator
from repro.tasks.program import JobProgram

#: Most job summaries one ``list_jobs`` reply will carry; pass
#: ``{"after": last_job_id}`` to page through a bigger queue.
DEFAULT_LIST_LIMIT = 256


class PhishJobQ:
    """RPC server managing the pool of parallel jobs."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: str,
        policy: Optional[AssignmentPolicy] = None,
        probe: Optional[Probe] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host = host
        self.policy = policy or RoundRobinAssignment()
        #: Every record ever submitted (completion keeps the record for
        #: latency accounting; assignment never touches this dict).
        self.jobs: Dict[int, JobRecord] = {}
        #: The live pool: insertion-ordered, completed jobs removed.
        self._active: Dict[int, JobRecord] = {}
        #: priority -> {job_id: record} over active jobs, the index
        #: behind ``check_preempt`` (distinct priority levels are few).
        self._levels: Dict[int, Dict[int, JobRecord]] = {}
        self._next_job_id = 0
        #: Callbacks fired when the pool gains assignable work (a submit
        #: or a release) — the interrupt-driven sharing hook.
        self._pool_listeners: List[Callable[[], None]] = []
        #: Counters for the macro-level experiments.
        self.requests = 0
        self.grants = 0
        #: The run's probe seam (repro.obs.probe), or None.
        self._probe = probe
        if probe is not None:
            probe.bind(sim.now, "jobq.bind", host, {})

        self.rpc = RpcServer(network, host, P.JOBQ_PORT, name="jobq")
        self.rpc.register("submit", self._rpc_submit)
        self.rpc.register("request_job", self._rpc_request_job)
        self.rpc.register("job_done", self._rpc_job_done)
        self.rpc.register("release", self._rpc_release)
        self.rpc.register("list_jobs", self._rpc_list_jobs)
        self.rpc.register("check_preempt", self._rpc_check_preempt)

    # -- direct (same-process) API, used by PhishSystem -----------------------

    def submit_record(
        self,
        program: JobProgram,
        ch_host: str,
        priority: int = 0,
        owner: Optional[str] = None,
        size_hint_s: Optional[float] = None,
        max_workers: Optional[int] = None,
        register_first_worker: bool = True,
    ) -> JobRecord:
        """Create and pool a job record (the submitter starts the CH).

        ``register_first_worker=False`` pools the job without counting
        the submit host as a participant (no first worker starts there
        — the traffic engine's mode).
        """
        record = JobRecord(
            job_id=self._next_job_id,
            program=program,
            ch_host=ch_host,
            priority=priority,
            submitted_at=self.sim.now,
            owner=owner,
            size_hint_s=size_hint_s,
            remaining_s=size_hint_s,
            max_workers=max_workers,
        )
        self._next_job_id += 1
        if register_first_worker:
            record.participants.add(ch_host)  # the submitter's first worker
        self.jobs[record.job_id] = record
        self._active[record.job_id] = record
        self._levels.setdefault(record.priority, {})[record.job_id] = record
        self.policy.on_submit(record)
        if self._probe is not None and (on := self._probe.get("jobq.submit")):
            on(self.sim.now, "jobq.submit", self.host,
               {"job": record.name, "id": record.job_id, "depth": len(self._active)})
        self._notify_pool_change()
        return record

    @property
    def pool(self) -> List[JobRecord]:
        """Jobs currently available for assignment (submission order)."""
        return list(self._active.values())

    def add_pool_listener(self, callback: Callable[[], None]) -> None:
        """Call *callback* whenever a submit or release adds assignable
        work — interrupt-driven schedulers wake parked machines here."""
        self._pool_listeners.append(callback)

    def _notify_pool_change(self) -> None:
        for callback in self._pool_listeners:
            callback()

    # -- RPC handlers -----------------------------------------------------------

    def _rpc_submit(self, args: dict, _msg) -> int:
        record = self.submit_record(
            args["program"], args["ch_host"], args.get("priority", 0),
            owner=args.get("owner"),
            size_hint_s=args.get("size_hint_s"),
            max_workers=args.get("max_workers"),
        )
        return record.job_id

    def _rpc_request_job(self, workstation: str, _msg) -> Optional[dict]:
        self.requests += 1
        record = self.policy.choose(workstation)
        if record is None:
            return None
        record.participants.add(workstation)
        self.policy.on_grant(record, workstation)
        self.grants += 1
        first = record.first_granted_at is None
        if first:
            record.first_granted_at = self.sim.now
        if self._probe is not None and (on := self._probe.get("jobq.grant")):
            # wait_s: queue wait, submission to *first* grant only.
            on(self.sim.now, "jobq.grant", self.host,
               {"job": record.name, "to": workstation,
                "wait_s": self.sim.now - record.submitted_at if first else None})
        return record.descriptor()

    def _rpc_job_done(self, job_id: int, _msg) -> bool:
        record = self.jobs.get(job_id)
        if record is None:
            raise JobError(f"job_done for unknown job {job_id}")
        if record.done:
            return True  # a repeat of one that landed and whose reply was lost
        record.done = True
        record.finished_at = self.sim.now
        self._active.pop(job_id, None)
        level = self._levels.get(record.priority)
        if level is not None:
            level.pop(job_id, None)
            if not level:
                del self._levels[record.priority]
        self.policy.on_done(record)
        if self._probe is not None and (on := self._probe.get("jobq.done")):
            on(self.sim.now, "jobq.done", self.host,
               {"id": job_id, "depth": len(self._active)})
        return True

    def _rpc_release(self, args: dict, _msg) -> bool:
        record = self.jobs.get(args["job_id"])
        if record is not None:
            workstation = args["workstation"]
            if workstation in record.participants:
                record.participants.discard(workstation)
                self.policy.on_release(record, workstation)
                if not record.done:
                    self._notify_pool_change()
        return True

    def _rpc_check_preempt(self, args: dict, _msg) -> bool:
        """Should *workstation* abandon *job_id* for a higher-priority job?

        The paper: "the macro-level scheduler may preempt the process due
        to scheduling priority.  This preemption is the only case in
        which the macro-level scheduler performs time-sharing."

        Indexed per priority level: only jobs at levels strictly above
        the current one are examined (distinct levels are few, so this
        stays far from a full pool scan).
        """
        current = self.jobs.get(args["job_id"])
        if current is None or current.done:
            return False
        workstation = args["workstation"]
        for priority in sorted(self._levels, reverse=True):
            if priority <= current.priority:
                break
            for rec in self._levels[priority].values():
                if workstation not in rec.participants:
                    return True
        return False

    def _rpc_list_jobs(self, args, _msg) -> List[dict]:
        """A bounded page of job summaries, ordered by job id.

        ``args`` may carry ``{"after": job_id, "limit": n}``; the reply
        holds at most ``limit`` (default :data:`DEFAULT_LIST_LIMIT`)
        entries, so a thousand-job queue pages instead of shipping one
        unbounded datagram.  An empty reply means the walk is complete.
        """
        after = -1
        limit = DEFAULT_LIST_LIMIT
        if isinstance(args, dict):
            after = args.get("after", -1)
            limit = min(int(args.get("limit", DEFAULT_LIST_LIMIT)),
                        DEFAULT_LIST_LIMIT)
        page: List[dict] = []
        # Job ids are dense (0..next-1), so the walk costs O(page), not
        # O(all jobs ever).
        for job_id in range(after + 1, self._next_job_id):
            rec = self.jobs.get(job_id)
            if rec is None:
                continue
            page.append({
                "job_id": rec.job_id,
                "name": rec.name,
                "done": rec.done,
                "participants": sorted(rec.participants),
                "priority": rec.priority,
            })
            if len(page) >= limit:
                break
        return page

    def stop(self) -> None:
        self.rpc.stop()
