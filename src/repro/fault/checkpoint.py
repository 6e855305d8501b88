"""Checkpoint and restart of a running job (the paper's planned extension).

Section 6 lists "support for checkpointing" among Phish's planned
extensions; this module builds it on the worker protocol:

1. **Pause** — the coordinator datagrams ``pause`` to every participant;
   workers hold still between tasks and refuse steal requests.
2. **Quiesce** — the coordinator waits long enough for every in-flight
   argument/steal message to land (the simulated network has bounded
   delay), so the global task state stops changing.
3. **Snapshot** — each worker replies to ``snapshot_req`` with its ready
   list, suspended closures, and closure-id counter.
4. **Resume** — workers continue as if nothing happened.

The resulting :class:`JobCheckpoint` is a *consistent global state*: a
fresh cluster restored from it (same worker names, so continuations
still resolve; counters restarted above every issued id) finishes the
job with the exact same result.  :func:`restore_job` does that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.clearinghouse.clearinghouse import ClearinghouseConfig
from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.errors import ReproError
from repro.micro import protocol as P
from repro.micro.worker import Worker, WorkerConfig
from repro.net.socket import Socket
from repro.phish import JobResult, start_job
from repro.sim.core import Simulator
from repro.tasks.closure import Closure
from repro.tasks.program import JobProgram


@dataclass
class WorkerState:
    """One participant's frozen task state."""

    name: str
    ready: List[Closure]
    suspended: List[Closure]
    seq: int

    @property
    def live_closures(self) -> int:
        return len(self.ready) + len(self.suspended)


@dataclass
class JobCheckpoint:
    """A consistent global snapshot of one job."""

    job_name: str
    taken_at: float
    workers: Dict[str, WorkerState] = field(default_factory=dict)

    @property
    def live_closures(self) -> int:
        return sum(ws.live_closures for ws in self.workers.values())


def take_checkpoint(
    result_harness_workers: List[Worker],
    quiesce_s: float = 0.25,
) -> Generator:
    """Coordinator process body: checkpoint the given (live) workers.

    Drive with ``checkpoint = yield from take_checkpoint(workers)`` from
    a simulation process running alongside the job.  Returns a
    :class:`JobCheckpoint`.
    """
    workers = [w for w in result_harness_workers if not w.done and not w.departed]
    if not workers:
        raise ReproError("no live workers to checkpoint")
    sim = workers[0].sim
    network = workers[0].network
    port = workers[0].config.port
    coordinator_host = workers[0].host
    sock = Socket(network, coordinator_host)  # ephemeral

    try:
        # 1. Pause everyone.
        for w in workers:
            yield sock.sendto((P.PAUSE,), w.host, port)
        # 2. Quiesce: let in-flight sends land.
        yield sim.timeout(quiesce_s)
        # 3. Snapshot.
        for w in workers:
            yield sock.sendto((P.SNAPSHOT_REQ,), w.host, port)
        checkpoint = JobCheckpoint(job_name=workers[0].job.name, taken_at=sim.now)
        while len(checkpoint.workers) < len(workers):
            msg = yield sock.recv()
            payload = msg.payload
            if not (isinstance(payload, tuple) and payload[0] == P.SNAPSHOT_REPLY):
                continue
            _tag, name, ready, suspended, seq = payload
            checkpoint.workers[name] = WorkerState(
                name=name, ready=list(ready), suspended=list(suspended), seq=seq
            )
        # 4. Resume.
        for w in workers:
            yield sock.sendto((P.RESUME,), w.host, port)
        return checkpoint
    finally:
        sock.close()


def restore_job(
    checkpoint: JobCheckpoint,
    job: JobProgram,
    profile: PlatformProfile = SPARCSTATION_1,
    seed: int = 1,
    worker_config: Optional[WorkerConfig] = None,
    ch_config: Optional[ClearinghouseConfig] = None,
    drain_s: float = 2.0,
) -> JobResult:
    """Restart a checkpointed job on a fresh cluster and run to completion.

    The fresh workstations take the checkpointed workers' *names* so that
    saved continuations still address the right hosts; the root is not
    re-run (it lives inside the checkpointed state).
    """
    if not checkpoint.workers:
        raise ReproError("empty checkpoint")
    if checkpoint.live_closures == 0:
        raise ReproError(
            "checkpoint holds no closures — the job had effectively finished"
        )
    sim = Simulator()
    cluster = start_job(
        sim, job, len(checkpoint.workers), seed, worker_config or WorkerConfig(),
        ch_config, profile,
        restore={name: (state.ready, state.suspended, state.seq)
                 for name, state in checkpoint.workers.items()},
    )
    sim.run(cluster.clearinghouse.done.wait())
    sim.run(until=sim.now + drain_s)
    return cluster.result()


def checkpoint_and_kill_run(
    job: JobProgram,
    n_workers: int,
    checkpoint_at_s: float,
    profile: PlatformProfile = SPARCSTATION_1,
    seed: int = 0,
    worker_config: Optional[WorkerConfig] = None,
) -> Tuple[JobCheckpoint, JobResult]:
    """The full demo: run, checkpoint mid-flight, abandon, restart.

    Returns (checkpoint, result-of-restored-run).  Models a whole-site
    outage that no redo protocol survives — exactly what checkpointing
    is for.
    """
    sim = Simulator()
    cluster = start_job(sim, job, n_workers, seed, worker_config or WorkerConfig(),
                        profile=profile)
    ch, workers = cluster.clearinghouse, cluster.workers

    box: List[JobCheckpoint] = []

    def coordinator(sim) -> Generator:
        yield sim.timeout(checkpoint_at_s)
        if ch.done.is_set:
            raise ReproError(
                f"job finished before the checkpoint at t={checkpoint_at_s}"
            )
        snap = yield from take_checkpoint(workers)
        box.append(snap)

    proc = sim.process(coordinator(sim), name="checkpoint-coordinator")
    sim.run(proc)  # run exactly until the checkpoint is taken
    checkpoint = box[0]
    # Site outage: abandon this simulation entirely and restart elsewhere.
    restored = restore_job(checkpoint, job, profile=profile, seed=seed + 1,
                           worker_config=worker_config)
    return checkpoint, restored
