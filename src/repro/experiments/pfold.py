"""The pfold workload the exhibits share: one polymer, one shard task.

The paper's whole evaluation runs pfold on P SparcStation 1s; so do the
figure sweeps, Table 2 and the worker-variant ablations here.  A run is
described by a picklable :class:`PfoldRun` and executed by
:func:`run_pfold`, which returns the run's (picklable)
:class:`~repro.micro.stats.JobStats` — result included — so a sweep fans
its runs out over a process pool (``--jobs``) and derives whatever its
exhibit reports in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.pfold import pfold_job
from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.micro.stats import JobStats
from repro.micro.worker import WorkerConfig
from repro.net.topology import Topology
from repro.phish import run_job

#: The exhibits' polymer: a 12-mer (64,832 tasks).
PFOLD_SEQUENCE = "HPHPPHHPHPPH"

#: Per-task work scaled so the 1-participant run takes on the order of
#: the paper's ~600 s on a SparcStation 1.
DEFAULT_WORK_SCALE = 535.0


@dataclass(frozen=True)
class PfoldRun:
    """One seeded pfold run at one participant count."""

    participants: int
    seed: int
    sequence: str = PFOLD_SEQUENCE
    work_scale: float = DEFAULT_WORK_SCALE
    profile: PlatformProfile = SPARCSTATION_1
    worker_config: Optional[WorkerConfig] = None
    topology: Optional[Topology] = None


def run_pfold(spec: PfoldRun) -> JobStats:
    """Shard task: run *spec* to completion."""
    return run_job(
        pfold_job(spec.sequence, work_scale=spec.work_scale),
        n_workers=spec.participants,
        profile=spec.profile,
        seed=spec.seed,
        worker_config=spec.worker_config,
        topology=spec.topology,
    ).stats


def run_pfold_sweep(specs: Sequence[PfoldRun], jobs: int, label: str) -> List[JobStats]:
    """Run *specs*, possibly in parallel; stats come back in input order.

    Every run is an independently seeded simulation, so the results are
    identical at any ``jobs``.
    """
    from repro.parallel import ShardedRunner

    stats, _pool = ShardedRunner(jobs=jobs).map(
        run_pfold, specs, label=label, describe=lambda s: f"P={s.participants}")
    return stats
