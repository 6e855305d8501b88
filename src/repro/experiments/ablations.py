"""Ablations: the design choices the paper argues for, measured.

Each section of :data:`SECTIONS` is a controlled comparison: a runner
returning rows and a formatter rendering them.  The studies that vary
only the worker's configuration or the network under one workload are
rows of a table (:func:`_variant_section`).  These back the claims:

* LIFO execution + FIFO stealing preserves memory and communication
  locality (Section 2, "supported by intuition, analytic results, and
  empirical data").
* Random victim selection suffices (the Blumofe–Leiserson bound).
* Idle-initiated scheduling moves less than sender-initiated balancing
  ("the idle-initiated scheduler does not move a task unless an idle
  machine requests work") and enormously less than a central queue.
* Space-sharing beats time-sharing (Tucker & Gupta).
* Workers retire when parallelism shrinks, freeing machines.
* Crashed machines cost redone work, not wrong answers.
* A heterogeneous (segmented) network slows naive stealing — the
  paper's future-work motivation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.pfold import pfold_job, pfold_serial
from repro.baselines.sharing import SharingComparison, compare_sharing
from repro.cluster.platform import ETHERNET_UDP
from repro.experiments.pfold import PFOLD_SEQUENCE, PfoldRun, run_pfold
from repro.experiments.report import render_table
from repro.fault.crash import CrashPlan, run_job_with_crashes
from repro.micro.worker import WorkerConfig
from repro.net.topology import SegmentedTopology, Topology
from repro.phish import run_job

#: Standard ablation workload: big enough for steals to matter, small
#: enough for quick runs.
ABLATION_SEQUENCE = PFOLD_SEQUENCE
ABLATION_SCALE = 60.0
ABLATION_P = 8


# ---------------------------------------------------------------------------
# Worker-variant studies: one workload, one row per scheduler variant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationRow:
    variant: str
    avg_time_s: float
    tasks_stolen: int
    messages_sent: int
    max_tasks_in_use: int
    migrated: int
    correct: bool


def _slow_backbone() -> Topology:
    """Two equal segments joined by a congested bridge: 100x the wire
    latency, a tenth of the bandwidth."""
    inter = dataclasses.replace(
        ETHERNET_UDP,
        wire_latency_s=ETHERNET_UDP.wire_latency_s * 100,
        bandwidth_bytes_per_s=ETHERNET_UDP.bandwidth_bytes_per_s / 10,
    )
    return SegmentedTopology(
        {f"ws{i:02d}": ("segA" if i < ABLATION_P // 2 else "segB")
         for i in range(ABLATION_P)},
        intra=ETHERNET_UDP,
        inter=inter,
    )


#: One variant: (label, WorkerConfig overrides, topology factory or None
#: for the uniform LAN).
Variant = Tuple[str, Dict[str, Any], Optional[Callable[[], Topology]]]


def _run_variants(variants: Sequence[Variant], seed: int = 0) -> List[AblationRow]:
    """Run the ablation workload once per variant."""
    expected = pfold_serial(ABLATION_SEQUENCE, work_scale=ABLATION_SCALE).result
    rows = []
    for label, overrides, topology in variants:
        stats = run_pfold(PfoldRun(
            ABLATION_P, seed, work_scale=ABLATION_SCALE,
            worker_config=WorkerConfig(**overrides),
            topology=topology() if topology else None,
        ))
        rows.append(AblationRow(
            variant=label,
            avg_time_s=stats.average_execution_time,
            tasks_stolen=stats.tasks_stolen,
            messages_sent=stats.messages_sent,
            max_tasks_in_use=stats.max_tasks_in_use,
            migrated=sum(w.tasks_migrated_in for w in stats.workers),
            correct=stats.result == expected,
        ))
    return rows


def _render(title: str, rows: List[AblationRow]) -> str:
    return render_table(
        title,
        ["variant", "avg time (s)", "steals", "messages", "max in use",
         "migrated", "correct"],
        [
            (r.variant, f"{r.avg_time_s:.2f}", r.tasks_stolen, r.messages_sent,
             r.max_tasks_in_use, r.migrated, r.correct)
            for r in rows
        ],
    )


def _variant_section(title: str, *variants: Variant):
    """The ``(runner, formatter)`` pair of a worker-variant study."""
    return partial(_run_variants, variants), partial(_render, title)


# ---------------------------------------------------------------------------
# Space-sharing vs time-sharing
# ---------------------------------------------------------------------------

def run_sharing_ablation(
    n_jobs: int = 4, n_workstations: int = 8, seed: int = 0
) -> SharingComparison:
    """K identical pfold jobs on N machines, both macro disciplines."""
    jobs = [
        pfold_job(ABLATION_SEQUENCE, work_scale=ABLATION_SCALE, name=f"pfold#{i}")
        for i in range(n_jobs)
    ]
    return compare_sharing(jobs, n_workstations, seed=seed)


def format_sharing_ablation(cmp: SharingComparison) -> str:
    rows = [
        ("space-sharing", f"{cmp.space_mean:.2f}", f"{cmp.space_makespan:.2f}"),
        ("time-sharing (gang)", f"{cmp.time_mean:.2f}", f"{cmp.time_makespan:.2f}"),
    ]
    table = render_table(
        f"Ablation — macro discipline for {len(cmp.space_completion_s)} jobs on "
        f"{cmp.n_workstations} workstations",
        ["discipline", "mean completion (s)", "makespan (s)"],
        rows,
    )
    return table + (
        f"\ntime-sharing mean completion is {cmp.mean_advantage:.2f}x "
        f"space-sharing's (quantum {cmp.quantum_s}s, switch {cmp.switch_cost_s}s)"
    )


# ---------------------------------------------------------------------------
# Retirement threshold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetirementRow:
    retire_after: Optional[int]
    retired_workers: int
    makespan_s: float
    mean_busy_fraction: float
    correct: bool


def run_retirement_ablation(
    thresholds: Sequence[Optional[int]] = (None, 5, 15, 40), seed: int = 0
) -> List[RetirementRow]:
    """How eagerly workers conclude "parallelism has shrunk" and retire.

    Uses the :mod:`repro.apps.shrink` workload — a wide phase followed
    by a long sequential chain.  With a finite threshold, the starved
    workers retire during the chain and hand their machines back to the
    macro scheduler; with None they sit failing steals until the end.
    """
    from repro.apps.shrink import shrink_expected, shrink_job

    width, chain = ABLATION_P * 6, 1500
    expected = shrink_expected(width, chain)
    rows = []
    for threshold in thresholds:
        cfg = WorkerConfig(retire_after_failed_steals=threshold)
        result = run_job(
            shrink_job(width, chain), n_workers=ABLATION_P, seed=seed,
            worker_config=cfg,
        )
        retired = sum(1 for w in result.workers if w.exit_reason == "retired")
        busy_fracs = [
            w.busy_s / w.execution_time
            for w in result.stats.workers
            if w.execution_time > 0
        ]
        rows.append(
            RetirementRow(
                retire_after=threshold,
                retired_workers=retired,
                makespan_s=result.makespan,
                mean_busy_fraction=sum(busy_fracs) / len(busy_fracs),
                correct=result.result == expected,
            )
        )
    return rows


def format_retirement_ablation(rows: List[RetirementRow]) -> str:
    return render_table(
        "Ablation — retirement after consecutive failed steals (shrink workload)",
        ["retire after", "retired workers", "makespan (s)", "mean busy frac", "correct"],
        [
            (
                "never" if r.retire_after is None else r.retire_after,
                r.retired_workers,
                f"{r.makespan_s:.2f}",
                f"{r.mean_busy_fraction:.2f}",
                r.correct,
            )
            for r in rows
        ],
    )


# ---------------------------------------------------------------------------
# Fault overhead
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultRow:
    crashes: int
    makespan_s: float
    tasks_redone: int
    duplicate_sends: int
    correct: bool


def run_fault_ablation(
    crash_counts: Sequence[int] = (0, 1, 2), seed: int = 0
) -> List[FaultRow]:
    """Crash k machines mid-job; measure the redo overhead."""
    expected = pfold_serial(ABLATION_SEQUENCE, work_scale=ABLATION_SCALE).result
    rows = []
    for k in crash_counts:
        # Stagger crashes through the run; never crash the CH host (0).
        plan = CrashPlan([(4.0 + 3.0 * i, 1 + i) for i in range(k)])
        result = run_job_with_crashes(
            pfold_job(ABLATION_SEQUENCE, work_scale=ABLATION_SCALE),
            ABLATION_P, plan, seed=seed)
        rows.append(
            FaultRow(
                crashes=k,
                makespan_s=result.makespan,
                tasks_redone=sum(w.tasks_redone for w in result.stats.workers),
                duplicate_sends=sum(w.duplicate_sends for w in result.stats.workers),
                correct=result.result == expected,
            )
        )
    return rows


def format_fault_ablation(rows: List[FaultRow]) -> str:
    return render_table(
        "Ablation — crash recovery (fail-stop machines mid-job)",
        ["crashes", "makespan (s)", "tasks redone", "dup sends", "correct"],
        [
            (r.crashes, f"{r.makespan_s:.2f}", r.tasks_redone,
             r.duplicate_sends, r.correct)
            for r in rows
        ],
    )


# ---------------------------------------------------------------------------
# Section registry and parallel fan-out (see repro.parallel)
# ---------------------------------------------------------------------------

#: Display-order registry of every ablation: name -> (runner, formatter).
#: All runners take only ``seed``, so one picklable spec covers them.
SECTIONS = {
    # The paper's LIFO-exec/FIFO-steal versus the other three combos:
    # FIFO execution explodes the working set ("max in use"); LIFO
    # stealing exports leaf tasks, multiplying steal traffic.
    "order": _variant_section(
        "Ablation — ready-list execution and steal order",
        ("exec=lifo steal=fifo (paper)",
         dict(exec_order="lifo", steal_order="fifo"), None),
        ("exec=lifo steal=lifo", dict(exec_order="lifo", steal_order="lifo"), None),
        ("exec=fifo steal=fifo", dict(exec_order="fifo", steal_order="fifo"), None),
        ("exec=fifo steal=lifo", dict(exec_order="fifo", steal_order="lifo"), None),
    ),
    # Uniformly-random victim vs deterministic round-robin.
    "victim": _variant_section(
        "Ablation — steal victim selection",
        ("random (paper)", dict(victim_policy="random"), None),
        ("round-robin", dict(victim_policy="round-robin"), None),
    ),
    # The central queue turns every spawn into messages; the push
    # balancer moves tasks nobody asked for; idle-initiated stealing
    # moves almost nothing.
    "initiation": _variant_section(
        "Ablation — idle-initiated vs alternatives",
        ("idle-initiated steal (paper)", dict(mode="steal"), None),
        ("central queue", dict(mode="central"), None),
        ("sender-initiated push",
         dict(mode="push", push_threshold=4, load_broadcast_s=0.1), None),
    ),
    "sharing": (run_sharing_ablation, format_sharing_ablation),
    "retirement": (run_retirement_ablation, format_retirement_ablation),
    "faults": (run_fault_ablation, format_fault_ablation),
    # The paper's future work: "Our new scheduling techniques attempt to
    # preserve locality with respect to those network cuts that have the
    # least bandwidth."  How much the cut-oblivious thief loses on a
    # segmented network: FIFO stealing moves so few tasks the slow cut
    # barely shows; the leaf-stealing (LIFO) variant crosses it thousands
    # of times and exposes the gap such techniques would close.
    "heterogeneity": _variant_section(
        "Ablation — network heterogeneity (future-work motivation)",
        ("FIFO steal, uniform LAN", {}, None),
        ("FIFO steal, slow backbone", {}, _slow_backbone),
        ("LIFO steal, uniform LAN", dict(steal_order="lifo"), None),
        ("LIFO steal, slow backbone", dict(steal_order="lifo"), _slow_backbone),
    ),
}


def _run_section(name_and_seed: Tuple[str, int]) -> str:
    """Shard task: run one ablation section and render its table."""
    name, seed = name_and_seed
    run, fmt = SECTIONS[name]
    return fmt(run(seed=seed))


def run_sections(names: Sequence[str], seed: int = 0, jobs: int = 1) -> List[str]:
    """Run the named ablation sections, possibly in parallel.

    Each section is an independent set of seeded simulations, so the
    rendered tables are identical at any ``jobs``; they come back in
    the order *names* lists them.
    """
    from repro.parallel import ShardedRunner

    for name in names:
        if name not in SECTIONS:
            raise ValueError(f"unknown ablation {name!r}; known: {list(SECTIONS)}")
    sections, _stats = ShardedRunner(jobs=jobs).map(
        _run_section, [(name, seed) for name in names],
        label="ablations", describe=lambda item: item[0],
    )
    return sections
