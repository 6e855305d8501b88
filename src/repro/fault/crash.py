"""Crash injection: fail-stop workstations at chosen times.

"Phish is fault tolerant.  Enough redundant state is maintained so that
lost work can be redone in the event of a machine crash."  This module
drives that machinery: it builds the same dedicated cluster as
:func:`repro.phish.run_job`, crashes the scheduled machines, and lets
the victims' outstanding-steal tables and the Clearinghouse's death
detector regenerate the lost work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.clearinghouse.clearinghouse import ClearinghouseConfig
from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.errors import ReproError
from repro.micro.worker import WorkerConfig
from repro.phish import JobResult, start_job
from repro.sim.core import Flag, Simulator
from repro.tasks.program import JobProgram


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
    cluster = start_job(
        sim, job, n_workers, seed, worker_config or FAST_FAULT_WORKER,
        ch_config or FAST_FAULT_CH, profile, start_jitter_s,
    )

    for t, idx in plan.crashes:
        cluster.at(t, cluster.hosts[idx].crash, name=f"crash@{t}:{idx}")

    done = Flag()
    cluster.clearinghouse.done.wait().subscribe(done)
    if not sim.run_until(done, timeout_s):
        raise ReproError(f"job did not survive the crashes within {timeout_s}s")
    sim.run(until=sim.now + 2.0)
    return cluster.result()
