"""Table 2: pfold message and scheduling statistics at P=4 and P=8.

The published numbers (10.39 M tasks):

======================  ==============  ==============
row                     4 participants  8 participants
======================  ==============  ==============
Tasks executed          10,390,216      10,390,216
Max tasks in use        59              59
Tasks stolen            70              133
Synchronizations        10,390,214      10,390,214
Non-local synchs        55              122
Messages sent           1,598           1,998
Execution time          182 sec.        94 sec.
======================  ==============  ==============

The scaled default workload executes ~65 k tasks, so the absolute row
values differ; what reproduces is the *structure* the paper argues
from: steals and non-local synchs are a vanishing fraction of tasks and
synchronizations, the working set ("max tasks in use") is tiny and does
not grow with P, few messages are sent, and time halves from P=4 to
P=8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.experiments.pfold import (
    DEFAULT_WORK_SCALE,
    PFOLD_SEQUENCE,
    PfoldRun,
    run_pfold_sweep,
)
from repro.experiments.report import fmt, render_table
from repro.micro.worker import WorkerConfig

#: The published Table 2, keyed by participant count.
PAPER_TABLE2: Dict[int, Dict[str, float]] = {
    4: {
        "Tasks executed": 10_390_216,
        "Max tasks in use": 59,
        "Tasks stolen": 70,
        "Synchronizations": 10_390_214,
        "Non-local synchs": 55,
        "Messages sent": 1_598,
        "Execution time": 182.0,
    },
    8: {
        "Tasks executed": 10_390_216,
        "Max tasks in use": 59,
        "Tasks stolen": 133,
        "Synchronizations": 10_390_214,
        "Non-local synchs": 122,
        "Messages sent": 1_998,
        "Execution time": 94.0,
    },
}

#: Rows in the published table's order.
ROW_ORDER = list(PAPER_TABLE2[4])


@dataclass(frozen=True)
class Table2Column:
    """One measured column (one participant count)."""

    participants: int
    rows: Dict[str, float]

    def locality_ratios(self) -> Dict[str, float]:
        """The ratios the paper's locality argument rests on."""
        return {
            "steals_per_task": self.rows["Tasks stolen"] / self.rows["Tasks executed"],
            "nonlocal_synch_fraction": (
                self.rows["Non-local synchs"] / self.rows["Synchronizations"]
            ),
            "working_set_fraction": (
                self.rows["Max tasks in use"] / self.rows["Tasks executed"]
            ),
        }


def run_table2(
    sequence: str = PFOLD_SEQUENCE,
    work_scale: float = DEFAULT_WORK_SCALE,
    participants: Sequence[int] = (4, 8),
    profile: PlatformProfile = SPARCSTATION_1,
    seed: int = 0,
    worker_config: Optional[WorkerConfig] = None,
    jobs: int = 1,
) -> List[Table2Column]:
    """Regenerate the Table 2 statistics at each participant count.

    Each repetition is an independent seeded simulation; ``jobs > 1``
    runs them as parallel shard tasks with identical results, columns
    reassembled in input order.
    """
    runs = run_pfold_sweep(
        [PfoldRun(p, seed, sequence, work_scale, profile, worker_config)
         for p in participants],
        jobs, label="table2",
    )
    return [Table2Column(participants=p, rows=stats.table2_rows())
            for p, stats in zip(participants, runs)]


def format_table2(columns: List[Table2Column]) -> str:
    """Render measured columns next to the paper's (where published)."""
    headers = ["statistic"]
    for col in columns:
        headers.append(f"{col.participants}P measured")
        if col.participants in PAPER_TABLE2:
            headers.append(f"{col.participants}P paper")
    body: List[List[str]] = []
    for row_name in ROW_ORDER:
        line = [row_name]
        for col in columns:
            line.append(fmt(col.rows[row_name]))
            if col.participants in PAPER_TABLE2:
                line.append(fmt(PAPER_TABLE2[col.participants][row_name]))
        body.append(line)
    out = render_table(
        "Table 2 — pfold message and scheduling statistics", headers, body
    )
    ratio_rows = []
    for col in columns:
        ratios = col.locality_ratios()
        ratio_rows.append(
            (
                col.participants,
                f"{ratios['steals_per_task']:.2e}",
                f"{ratios['nonlocal_synch_fraction']:.2e}",
                f"{ratios['working_set_fraction']:.2e}",
            )
        )
    out += "\n\n" + render_table(
        "Locality ratios (the paper's argument: all tiny)",
        ["P", "steals/task", "non-local synch frac", "working-set frac"],
        ratio_rows,
    )
    return out
