"""Policy competition under production traffic: the macro-level sweep.

The paper's JobQ ran a handful of jobs under one policy (round-robin).
This sweep runs the policy × arrival matrix under thousand-job traffic
(:mod:`repro.macro.traffic`) and reports, per cell, the numbers that
separate assignment policies in practice: makespan, job throughput,
and the p50/p95/p99 of job sojourn and queue wait.

Every cell is an independently-seeded simulation, so the matrix shards
over a process pool (``--jobs``) with byte-identical output at any
fan-out — the same discipline as the figure sweeps.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments.report import render_table
from repro.macro.policies import POLICY_FACTORIES
from repro.macro.traffic import (
    ARRIVAL_FACTORIES,
    TrafficConfig,
    TrafficReport,
    run_traffic,
)

#: Default competition: the paper's policy against the three upgrades
#: (SRPT-style, fair-share, interrupt-driven sharing).
TRAFFIC_POLICIES: Tuple[str, ...] = ("rr", "srp", "fair", "interrupt")

#: Default arrival mix: steady Poisson plus the diurnal profile.
TRAFFIC_ARRIVALS: Tuple[str, ...] = ("poisson", "diurnal")


def _describe_cell(config: TrafficConfig) -> str:
    return f"{config.policy} x {config.arrival} seed={config.seed}"


@dataclass(frozen=True)
class TrafficMatrix:
    """The full sweep in matrix order (policy-major, arrival-minor)."""

    reports: Tuple[TrafficReport, ...]
    n_workstations: int
    n_jobs: int
    seed: int


def run_traffic_matrix(
    policies: Sequence[str] = TRAFFIC_POLICIES,
    arrivals: Sequence[str] = TRAFFIC_ARRIVALS,
    n_jobs: int = 1000,
    n_workstations: int = 16,
    seed: int = 0,
    jobs: int = 1,
    base: Optional[TrafficConfig] = None,
) -> TrafficMatrix:
    """Run every (policy, arrival) cell and collect the reports.

    ``jobs > 1`` fans the cells out over worker processes; each cell is
    a fully-seeded deterministic simulation, so the matrix is
    byte-identical at any ``jobs``.  *base* overrides the remaining
    traffic knobs (rates, sizes, owner model) for every cell.
    """
    from repro.parallel import ShardedRunner

    for policy in policies:
        if policy not in POLICY_FACTORIES:
            raise ReproError(
                f"unknown traffic policy {policy!r}; "
                f"known: {sorted(POLICY_FACTORIES)}")
    for arrival in arrivals:
        if arrival not in ARRIVAL_FACTORIES:
            raise ReproError(
                f"unknown arrival process {arrival!r}; "
                f"known: {sorted(ARRIVAL_FACTORIES)}")
    template = base or TrafficConfig()
    specs = [
        dataclasses.replace(
            template, policy=policy, arrival=arrival,
            n_jobs=n_jobs, n_workstations=n_workstations, seed=seed,
        )
        for policy in policies
        for arrival in arrivals
    ]
    reports, _stats = ShardedRunner(jobs=jobs).map(
        run_traffic, specs, label="traffic-matrix",
        describe=_describe_cell,
    )
    return TrafficMatrix(
        reports=tuple(reports),
        n_workstations=n_workstations,
        n_jobs=n_jobs,
        seed=seed,
    )


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}"


def format_traffic(matrix: TrafficMatrix) -> str:
    """Render the policy × arrival matrix as one comparison table."""
    rows = []
    for rep in matrix.reports:
        rows.append((
            rep.policy,
            rep.arrival,
            f"{rep.n_completed}/{rep.n_submitted}",
            f"{rep.makespan_s:.1f}",
            f"{rep.throughput_jobs_per_s:.3f}",
            _fmt(rep.latency_p50_s),
            _fmt(rep.latency_p95_s),
            _fmt(rep.latency_p99_s),
            _fmt(rep.wait_p50_s),
            _fmt(rep.wait_p99_s),
            rep.grants,
            rep.scanned,
            _fmt(rep.messages_sent / rep.n_completed if rep.n_completed else None),
        ))
    return render_table(
        f"Macro policy competition — {matrix.n_jobs} jobs on "
        f"{matrix.n_workstations} workstations, seed={matrix.seed} "
        f"(latency = submit-to-completion sojourn, wait = submit to "
        f"first machine grant; seconds)",
        ["policy", "arrival", "done", "makespan (s)", "jobs/s",
         "lat p50", "lat p95", "lat p99", "wait p50", "wait p99",
         "grants", "scanned", "msgs/job"],
        rows,
    )
