"""Per-worker and per-job scheduling statistics.

These counters are the raw material of the paper's Table 2: tasks
executed, maximum tasks in use, tasks stolen, synchronizations (local
versus non-local), messages sent, and execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.stats import speedup_paper


@dataclass
class WorkerStats:
    """Counters accumulated by one participating worker."""

    name: str
    tasks_executed: int = 0
    #: Steals in which this worker was the thief and got a task.
    tasks_stolen: int = 0
    #: Steals in which this worker was the victim and gave a task up.
    tasks_stolen_from: int = 0
    steal_requests_sent: int = 0
    steal_requests_received: int = 0
    failed_steal_attempts: int = 0
    #: All send_argument operations performed by tasks on this worker.
    synchronizations: int = 0
    #: The subset that crossed workers (needed a network message).
    non_local_synchs: int = 0
    #: Arguments dropped because the slot was already filled (crash redo).
    duplicate_sends: int = 0
    #: Closures re-enqueued because their thief crashed.
    tasks_redone: int = 0
    #: Subset of tasks_redone regenerated because a steal grant went
    #: unacknowledged (presumed lost in flight; grant-ack mode only).
    grants_reclaimed: int = 0
    #: Steal requests fired proactively (before going idle).
    proactive_steals_sent: int = 0
    #: Tasks received via migration (reclaim/retirement evacuations).
    tasks_migrated_in: int = 0
    tasks_migrated_out: int = 0
    #: Peak of (ready + suspended + executing) closures on this worker —
    #: the "Max tasks in use" working-set measure of Table 2.
    max_tasks_in_use: int = 0
    #: Wall-clock span of participation (simulated seconds).
    start_time: float = 0.0
    end_time: float = 0.0
    #: CPU-busy simulated seconds (compute + messaging overhead).
    busy_s: float = 0.0
    #: Total request→grant latency over this thief's successful steals
    #: (simulated seconds) and the number of steals it covers — the
    #: per-worker average the latency-aware analyses argue from.
    steal_latency_sum_s: float = 0.0
    steal_latency_count: int = 0

    @property
    def execution_time(self) -> float:
        """Per-participant wall-clock time, the T_P(i) of the paper."""
        return max(0.0, self.end_time - self.start_time)

    @property
    def local_synchs(self) -> int:
        return self.synchronizations - self.non_local_synchs

    @property
    def avg_steal_latency_s(self) -> float:
        """Mean request→grant latency of this worker's successful steals."""
        if self.steal_latency_count == 0:
            return 0.0
        return self.steal_latency_sum_s / self.steal_latency_count


@dataclass
class JobStats:
    """Aggregate statistics of one job execution (the Table 2 columns)."""

    workers: List[WorkerStats] = field(default_factory=list)
    #: Network datagrams sent between distinct hosts during the job.
    messages_sent: int = 0
    #: Simulated time from job start to result delivery.
    makespan: float = 0.0
    result: object = None

    @property
    def participants(self) -> int:
        return len(self.workers)

    @property
    def tasks_executed(self) -> int:
        return sum(w.tasks_executed for w in self.workers)

    @property
    def tasks_stolen(self) -> int:
        return sum(w.tasks_stolen for w in self.workers)

    @property
    def synchronizations(self) -> int:
        return sum(w.synchronizations for w in self.workers)

    @property
    def non_local_synchs(self) -> int:
        return sum(w.non_local_synchs for w in self.workers)

    @property
    def max_tasks_in_use(self) -> int:
        """Largest working set of any participant (Table 2 row 2)."""
        return max((w.max_tasks_in_use for w in self.workers), default=0)

    @property
    def execution_times(self) -> List[float]:
        return [w.execution_time for w in self.workers]

    @property
    def average_execution_time(self) -> float:
        """The quantity plotted by the paper's Figure 4."""
        times = self.execution_times
        return sum(times) / len(times) if times else 0.0

    def speedup_vs(self, t1: float) -> float:
        """The paper's S_P formula against a 1-participant time (Figure 5)."""
        return speedup_paper(t1, self.execution_times)

    @property
    def average_participants(self) -> float:
        """The paper's P-bar: the time average of the number of
        participants over the run (participants join/leave at different
        times, so P-bar <= P)."""
        if self.makespan <= 0:
            return float(self.participants)
        return sum(self.execution_times) / self.makespan

    def effective_speedup(self, t1: float) -> float:
        """T1 over the job's wall-clock makespan — the throughput view,
        robust to participants with unequal spans or speeds."""
        if self.makespan <= 0:
            raise ValueError("makespan not recorded")
        return t1 / self.makespan

    def effective_efficiency(self, t1: float) -> float:
        """Effective speedup normalised by the paper's P-bar."""
        pbar = self.average_participants
        if pbar <= 0:
            raise ValueError("no participation recorded")
        return self.effective_speedup(t1) / pbar

    @property
    def avg_steal_latency_s(self) -> float:
        """Mean request→grant latency over every successful steal."""
        total = sum(w.steal_latency_sum_s for w in self.workers)
        count = sum(w.steal_latency_count for w in self.workers)
        return total / count if count else 0.0

    def table2_rows(self, include_steal_latency: bool = False) -> Dict[str, float]:
        """The seven rows of the paper's Table 2, as a dict.

        ``include_steal_latency`` adds an eighth, non-paper row (average
        steal request→grant latency); off by default so the pinned
        Table 2 goldens are unchanged.
        """
        rows = {
            "Tasks executed": self.tasks_executed,
            "Max tasks in use": self.max_tasks_in_use,
            "Tasks stolen": self.tasks_stolen,
            "Synchronizations": self.synchronizations,
            "Non-local synchs": self.non_local_synchs,
            "Messages sent": self.messages_sent,
            "Execution time": self.average_execution_time,
        }
        if include_steal_latency:
            rows["Avg steal latency"] = self.avg_steal_latency_s
        return rows
