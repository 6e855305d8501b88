"""Crash injection: fail-stop workstations at chosen times.

"Phish is fault tolerant.  Enough redundant state is maintained so that
lost work can be redone in the event of a machine crash."  This module
drives that machinery: it builds the same dedicated cluster as
:func:`repro.phish.run_job`, crashes the scheduled machines, and lets
the victims' outstanding-steal tables and the Clearinghouse's death
detector regenerate the lost work.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.clearinghouse.clearinghouse import Clearinghouse, ClearinghouseConfig
from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.errors import ReproError
from repro.micro.stats import JobStats
from repro.micro.worker import Worker, WorkerConfig
from repro.phish import JobResult, build_cluster
from repro.sim.core import Flag, Simulator
from repro.tasks.program import JobProgram
from repro.util.rng import RngRegistry


@dataclass(frozen=True)
class CrashPlan:
    """Which machines to crash, when.

    ``crashes`` is (time_s, worker_index) pairs.  Crashing worker 0 is
    allowed (the Clearinghouse reassigns the root) but crashing the
    Clearinghouse host kills the job's coordinator, which the paper's
    prototype did not survive either — the plan refuses it.
    """

    crashes: Tuple[Tuple[float, int], ...]

    def __init__(self, crashes: Sequence[Tuple[float, int]]) -> None:
        object.__setattr__(self, "crashes", tuple(crashes))
        for t, idx in self.crashes:
            if t < 0:
                raise ReproError("crash time must be non-negative")
            if idx == 0:
                raise ReproError(
                    "worker 0 hosts the Clearinghouse in this harness; "
                    "crashing it would kill the job coordinator"
                )


#: Fast failure detection for experiments (the paper's 2-minute update
#: period detects deaths in minutes; tests should not wait that long).
FAST_FAULT_WORKER = WorkerConfig(update_interval_s=2.0, track_completed=True)
FAST_FAULT_CH = ClearinghouseConfig(
    update_interval_s=2.0, death_timeout_s=5.0, check_interval_s=1.0
)


def run_job_with_crashes(
    job: JobProgram,
    n_workers: int,
    plan: CrashPlan,
    profile: PlatformProfile = SPARCSTATION_1,
    seed: int = 0,
    worker_config: Optional[WorkerConfig] = None,
    ch_config: Optional[ClearinghouseConfig] = None,
    start_jitter_s: float = 0.1,
    timeout_s: float = 1e6,
) -> JobResult:
    """Like :func:`repro.phish.run_job`, plus scheduled machine crashes."""
    for _t, idx in plan.crashes:
        if not (0 < idx < n_workers):
            raise ReproError(f"crash index {idx} out of range for {n_workers} workers")
    sim = Simulator()
    reg = RngRegistry(seed)
    network, hosts = build_cluster(sim, n_workers, profile, reg)
    ch = Clearinghouse(
        sim, network, hosts[0].name, job.name, ch_config or FAST_FAULT_CH
    )
    base_cfg = worker_config or FAST_FAULT_WORKER
    jitter_rng = reg.stream("start.jitter")
    workers: List[Worker] = []
    for i, ws in enumerate(hosts):
        jitter = jitter_rng.random() * start_jitter_s if i > 0 else 0.0
        cfg = dataclasses.replace(
            base_cfg, startup_cost_s=base_cfg.startup_cost_s + jitter
        )
        workers.append(
            Worker(sim, ws, network, job, hosts[0].name, config=cfg,
                   rng=reg.stream(f"worker.{i}"))
        )

    def crasher(delay: float, index: int) -> Generator:
        yield sim.timeout(delay)
        hosts[index].crash()

    for t, idx in plan.crashes:
        sim.process(crasher(t, idx), name=f"crash@{t}:{idx}")

    done = Flag()
    ch.done.wait().subscribe(done)
    if not sim.run_until(done, timeout_s):
        raise ReproError(f"job did not survive the crashes within {timeout_s}s")
    sim.run(until=sim.now + 2.0)

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
    )
