"""Idle-cycle harvesting: the paper's motivating scenario, measured.

"Since much of a typical workstation's computing capacity goes unused
[Condor], a workstation network presents a large source of compute
power."  This experiment quantifies how much of that unused capacity the
idle-initiated macro scheduler actually harvests: a building of
workstations whose owners come and go (renewal traces), a stream of
submitted jobs, and accounting of idle capacity versus cycles delivered
to parallel work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Sequence

from repro.apps.pfold import pfold_job, pfold_serial
from repro.cluster.owner import AlwaysIdleTrace, RenewalOwnerTrace
from repro.experiments.pfold import PFOLD_SEQUENCE
from repro.experiments.report import render_table
from repro.macro.jobmanager import JobManagerConfig
from repro.macro.system import PhishSystem, PhishSystemConfig


@dataclass
class HarvestReport:
    """What a harvesting run produced."""

    n_machines: int
    n_jobs: int
    horizon_s: float
    #: Machine-seconds whose owner was away (the harvestable capacity).
    idle_capacity_s: float
    #: Machine-seconds actually spent computing parallel work.
    harvested_s: float
    jobs_completed: int
    all_results_exact: bool
    workers_started: int
    workers_reclaimed: int

    @property
    def harvest_fraction(self) -> float:
        """Share of owner-idle capacity converted into parallel work."""
        return self.harvested_s / self.idle_capacity_s if self.idle_capacity_s else 0.0


def run_harvest(
    n_machines: int = 10,
    n_jobs: int = 3,
    seed: int = 0,
    busy_mean_s: float = 30.0,
    idle_mean_s: float = 60.0,
    job_spacing_s: float = 5.0,
    sequence: str = PFOLD_SEQUENCE,
    work_scale: float = 60.0,
) -> HarvestReport:
    """Run the harvesting scenario and account for the idle cycles.

    Machine 0 (the submit host, also running the JobQ) is kept
    owner-idle so submissions always have a first worker; every other
    owner follows a compressed busy/idle renewal process.
    """

    def traces(rng, host):
        if host == "ws00":
            return AlwaysIdleTrace()
        return RenewalOwnerTrace(rng, busy_mean_s=busy_mean_s,
                                 idle_mean_s=idle_mean_s, start_busy_prob=0.5)

    system = PhishSystem(
        PhishSystemConfig(
            n_workstations=n_machines,
            seed=seed,
            owner_trace=traces,
            jobmanager=JobManagerConfig(busy_poll_s=5.0, no_job_retry_s=5.0),
        )
    )
    expected = pfold_serial(sequence, work_scale=work_scale).result
    handles = []

    def submitter(sim) -> Generator:
        for i in range(n_jobs):
            handles.append(
                system.submit(
                    pfold_job(sequence, work_scale=work_scale, name=f"pfold#{i}"),
                    from_host="ws00",
                )
            )
            yield sim.timeout(job_spacing_s)

    # Idle-capacity accounting: integrate owner-idle time per machine by
    # sampling state transitions coarsely (1 s steps are exact enough for
    # renewal means >= 30 s and keep the sampler cheap).
    samples = {"idle_s": 0.0}

    def sampler(sim) -> Generator:
        while True:
            samples["idle_s"] += sum(
                1.0 for ws in system.workstations if not ws.user_logged_in
            )
            yield sim.timeout(1.0)

    system.sim.process(submitter(system.sim), name="harvest-submitter")
    system.sim.process(sampler(system.sim), name="harvest-sampler")
    # Jobs are submitted over time, so wait in rounds: finish everything
    # submitted so far, then let the submitter catch up.
    system.sim.run(until=0.001)  # first submission lands
    while True:
        system.run_until_done(timeout_s=36_000)
        if len(handles) == n_jobs and all(h.done.is_set for h in handles):
            break
        system.sim.run(until=system.sim.now + job_spacing_s)
    horizon = system.sim.now

    harvested = sum(ws.cpu_busy_s for ws in system.workstations)
    report = HarvestReport(
        n_machines=n_machines,
        n_jobs=n_jobs,
        horizon_s=horizon,
        idle_capacity_s=samples["idle_s"],
        harvested_s=harvested,
        jobs_completed=sum(1 for h in handles if h.done.is_set),
        all_results_exact=all(h.result == expected for h in handles),
        workers_started=sum(jm.jobs_started for jm in system.jobmanagers.values()),
        workers_reclaimed=sum(
            jm.workers_reclaimed for jm in system.jobmanagers.values()
        ),
    )
    system.stop()
    return report


def _run_harvest_rep(params: dict) -> HarvestReport:
    """Shard task: one full harvesting scenario (:func:`run_harvest`'s
    keyword arguments travel as a plain dict — picklable for the pool)."""
    return run_harvest(**params)


def run_harvest_sweep(
    seeds: Sequence[int],
    jobs: int = 1,
    **params,
) -> List[HarvestReport]:
    """Repeat the harvesting scenario at several seeds (owner churn is
    stochastic, so the harvest fraction is a distribution — one rep is
    an anecdote).  ``jobs > 1`` fans repetitions out over a process
    pool; reports come back in seed order either way.
    """
    from repro.parallel import ShardedRunner

    reports, _stats = ShardedRunner(jobs=jobs).map(
        _run_harvest_rep, [dict(params, seed=s) for s in seeds],
        label="harvest", describe=lambda p: f"seed={p['seed']}",
    )
    return reports


def format_harvest_sweep(seeds: Sequence[int],
                         reports: List[HarvestReport]) -> str:
    """Per-seed harvest rows plus the sweep means."""
    rows = []
    for seed, r in zip(seeds, reports):
        rows.append((
            seed, f"{r.jobs_completed}/{r.n_jobs}", r.all_results_exact,
            f"{r.horizon_s:.0f}s", f"{r.idle_capacity_s:.0f}",
            f"{r.harvested_s:.0f}", f"{100 * r.harvest_fraction:.1f}%",
            r.workers_reclaimed,
        ))
    n = max(1, len(reports))
    rows.append((
        "mean", "-", all(r.all_results_exact for r in reports),
        f"{sum(r.horizon_s for r in reports) / n:.0f}s",
        f"{sum(r.idle_capacity_s for r in reports) / n:.0f}",
        f"{sum(r.harvested_s for r in reports) / n:.0f}",
        f"{100 * sum(r.harvest_fraction for r in reports) / n:.1f}%",
        sum(r.workers_reclaimed for r in reports) // n,
    ))
    return render_table(
        f"Idle-cycle harvesting — {len(reports)} repetitions",
        ["seed", "jobs done", "exact", "horizon", "idle machine-s",
         "harvested machine-s", "fraction", "reclaims"],
        rows,
    )


def format_harvest(report: HarvestReport) -> str:
    rows = [
        ("Machines", report.n_machines),
        ("Jobs submitted / completed", f"{report.n_jobs} / {report.jobs_completed}"),
        ("Results exact", report.all_results_exact),
        ("Run horizon", f"{report.horizon_s:.1f}s"),
        ("Owner-idle capacity", f"{report.idle_capacity_s:.0f} machine-seconds"),
        ("Harvested compute", f"{report.harvested_s:.0f} machine-seconds"),
        ("Harvest fraction", f"{100 * report.harvest_fraction:.1f}%"),
        ("Workers started", report.workers_started),
        ("Workers reclaimed by owners", report.workers_reclaimed),
    ]
    return render_table(
        "Idle-cycle harvesting under owner churn", ["quantity", "value"], rows
    )
