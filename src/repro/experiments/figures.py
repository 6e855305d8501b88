"""Figures 4 and 5: pfold execution time and speedup vs participants.

The paper runs pfold on a network of SparcStation 1s with P in
{1, 2, 4, 8, 16, 32}, reporting the average per-participant wall-clock
time (Figure 4, ~600 s at P=1) and the speedup
``S_P = P * T1 / sum_i T_P(i)`` (Figure 5, near-perfect linear with a
visible droop at 32 from fixed registration overheads).

The default workload is a scaled pfold (fewer tasks than the paper's
10.39 M) with ``work_scale`` chosen so T1 lands at the paper's
magnitude; the fixed overheads (worker startup, registration RPC) are
the same as everywhere else, which is what produces the droop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.experiments.pfold import (
    DEFAULT_WORK_SCALE,
    PFOLD_SEQUENCE,
    PfoldRun,
    run_pfold_sweep,
)
from repro.experiments.report import render_ascii_plot, render_table
from repro.micro.worker import WorkerConfig

#: Participant counts of the paper's Figures 4 and 5.
PAPER_PARTICIPANTS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class FigurePoint:
    """One measured point of the speedup/time curves."""

    participants: int
    average_time_s: float
    speedup: float
    tasks_stolen: int
    messages_sent: int
    max_tasks_in_use: int


def run_speedup_curve(
    sequence: str = PFOLD_SEQUENCE,
    work_scale: float = DEFAULT_WORK_SCALE,
    participants: Sequence[int] = PAPER_PARTICIPANTS,
    profile: PlatformProfile = SPARCSTATION_1,
    seed: int = 0,
    worker_config: Optional[WorkerConfig] = None,
    jobs: int = 1,
) -> List[FigurePoint]:
    """Run pfold at each participant count; returns the curve points.

    The P=1 run (required for the speedup denominator) is added
    automatically if absent from *participants*.  ``jobs > 1`` runs the
    points as parallel shard tasks; every run is an independently
    seeded simulation, so the curve is identical either way.
    """
    counts = sorted(set(participants) | {1})
    runs = run_pfold_sweep(
        [PfoldRun(p, seed, sequence, work_scale, profile, worker_config)
         for p in counts],
        jobs, label="speedup-curve",
    )
    t1 = runs[0].execution_times[0]  # counts[0] == 1
    return [
        FigurePoint(
            participants=p,
            average_time_s=stats.average_execution_time,
            speedup=stats.speedup_vs(t1),
            tasks_stolen=stats.tasks_stolen,
            messages_sent=stats.messages_sent,
            max_tasks_in_use=stats.max_tasks_in_use,
        )
        for p, stats in zip(counts, runs)
    ]


def format_figure4(points: List[FigurePoint]) -> str:
    """Figure 4: average execution time vs number of processors."""
    plot = render_ascii_plot(
        "Figure 4 — pfold average execution time vs participants",
        [(pt.participants, pt.average_time_s) for pt in points],
        xlabel="participants",
        ylabel="avg execution time (s)",
    )
    table = render_table(
        "Figure 4 data",
        ["P", "avg time (s)"],
        [(pt.participants, f"{pt.average_time_s:.1f}") for pt in points],
    )
    return plot + "\n\n" + table


def format_figure5(points: List[FigurePoint]) -> str:
    """Figure 5: speedup vs number of processors (with the ideal line)."""
    plot = render_ascii_plot(
        "Figure 5 — pfold speedup vs participants (dashed: perfect linear)",
        [(pt.participants, pt.speedup) for pt in points],
        xlabel="participants",
        ylabel="speedup S_P",
        reference=[(pt.participants, float(pt.participants)) for pt in points],
    )
    table = render_table(
        "Figure 5 data",
        ["P", "S_P", "ideal", "efficiency"],
        [
            (
                pt.participants,
                f"{pt.speedup:.2f}",
                pt.participants,
                f"{100 * pt.speedup / pt.participants:.1f}%",
            )
            for pt in points
        ],
    )
    return plot + "\n\n" + table
