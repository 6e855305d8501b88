"""Latency-aware stealing sweep: makespan vs steal latency vs theory.

The paper ran on one Ethernet segment where every steal pays the same
half-millisecond.  Its future-work section asks what happens when the
network is *not* uniform; the later analyses of Gast, Khatiri and
Trystram answer for the random-stealing case: with steal latency
``lambda`` the expected makespan is bounded by

    E[C_max]  <=  W/p  +  c * lambda * log2(W),     c ~= 16.12

(*"A tighter analysis of work stealing with latency"*).  This sweep
measures that curve on a two-segment cluster whose backbone latency is
scaled through several decades, once per victim/steal policy:

* ``random``       — the paper's protocol (uniform random victim, one
  task per grant), the policy the bound is proved for.
* ``steal-half``   — random victim, up to half the victim's ready list
  per grant (amortises the round-trip).
* ``low-latency``  — EWMA-RTT victim selection (prefer near victims).
* ``ll-half-early``— low-latency victims + steal-half + proactive
  requests fired one task before the deque runs dry.

Every point is an independently seeded simulation, so the sweep shards
over a process pool (``--jobs``) with byte-identical output at any
fan-out, like the other exhibits.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.apps.pfold import pfold_job
from repro.cluster.platform import ETHERNET_UDP, SPARCSTATION_1
from repro.errors import ReproError
from repro.experiments.report import render_ascii_plot, render_table
from repro.micro.worker import WorkerConfig
from repro.net.topology import SegmentedTopology
from repro.phish import run_job

#: Backbone latency multipliers swept (x the 0.5 ms Ethernet base):
#: 0.5 ms .. 32 ms one-way, the WAN-ish range the analyses consider.
LAMBDA_MULTIPLIERS: Tuple[float, ...] = (1.0, 4.0, 16.0, 64.0)

#: The constant of the Gast et al. bound E[Cmax] <= W/p + c*lambda*log2(W).
GAST_CONSTANT = 16.12

#: WorkerConfig overrides per swept policy (plain kwargs so shard specs
#: stay picklable; the config object is built inside the shard).
POLICY_CONFIGS: Dict[str, Dict[str, Any]] = {
    "random": dict(victim_policy="random"),
    "steal-half": dict(victim_policy="random", steal_amount="half"),
    "low-latency": dict(victim_policy="low-latency"),
    "ll-half-early": dict(victim_policy="low-latency", steal_amount="half",
                          proactive_threshold=1),
}

#: Sweep order (stable, so output is reproducible).
POLICIES: Tuple[str, ...] = tuple(POLICY_CONFIGS)

#: Sweep workload: a 9-mer pfold (3,172 tasks) scaled so per-task work
#: (~1.4 ms) is commensurate with the swept latencies — fine enough
#: grain for stealing to matter, coarse enough that latency does too.
DEFAULT_SEQUENCE = "HPHPPHHPH"
DEFAULT_WORK_SCALE = 100.0
DEFAULT_WORKERS = 8


def two_segment_topology(n_workers: int, lam_multiplier: float) -> SegmentedTopology:
    """The sweep's cluster: two equal LAN segments, slow backbone.

    Hosts ``ws00..`` split half-and-half; intra-segment links are the
    paper's Ethernet, the backbone pays ``lam_multiplier`` x its wire
    latency (bandwidth unchanged — the sweep isolates latency).
    """
    inter = dataclasses.replace(
        ETHERNET_UDP,
        wire_latency_s=ETHERNET_UDP.wire_latency_s * lam_multiplier,
    )
    segment_of = {
        f"ws{i:02d}": ("lan0" if i < (n_workers + 1) // 2 else "lan1")
        for i in range(n_workers)
    }
    return SegmentedTopology(segment_of, intra=ETHERNET_UDP, inter=inter)


@dataclass(frozen=True)
class _SweepSpec:
    """One (policy, lambda) cell — picklable primitives only, so the
    sweep fans out over a process pool exactly like the figure curves."""

    policy: str
    lam_multiplier: float
    n_workers: int
    sequence: str
    work_scale: float
    seed: int

    def describe(self) -> str:
        return f"{self.policy} @ {self.lam_multiplier:g}x"


@dataclass(frozen=True)
class LatencyPoint:
    """One cell of the sweep with its analytical companion."""

    policy: str
    lam_s: float
    makespan_s: float
    #: The Gast et al. bound; the shard leaves 0.0 and the parent fills
    #: it in (it needs the 1-worker run's time and task count).
    bound_s: float
    tasks_executed: int
    tasks_stolen: int
    avg_steal_latency_s: float
    proactive_steals: int
    #: Profiler-derived overhead attribution (repro.obs.prof): the
    #: critical-path span and the summed per-worker bucket fractions —
    #: where each policy's wall-clock actually went.
    t_inf_s: float
    work_frac: float
    steal_frac: float
    idle_frac: float


def _run_sweep_point(spec: _SweepSpec) -> LatencyPoint:
    """Shard task: one pfold run at one (policy, backbone latency) cell."""
    from repro.obs.prof import SpanProfiler

    overrides = POLICY_CONFIGS[spec.policy]
    config = dataclasses.replace(WorkerConfig(), **overrides)
    profiler = SpanProfiler()  # sink-less: aggregates only, O(live) memory
    result = run_job(
        pfold_job(spec.sequence, work_scale=spec.work_scale),
        n_workers=spec.n_workers,
        profile=SPARCSTATION_1,
        seed=spec.seed,
        worker_config=config,
        topology=two_segment_topology(spec.n_workers, spec.lam_multiplier),
        profiler=profiler,
    )
    stats = result.stats
    workers = (result.profile or {}).get("workers", {})
    wall = sum(w["wall_s"] for w in workers.values())
    frac = (lambda key: sum(w[key] for w in workers.values()) / wall
            if wall > 0 else 0.0)
    return LatencyPoint(
        policy=spec.policy,
        lam_s=ETHERNET_UDP.wire_latency_s * spec.lam_multiplier,
        makespan_s=result.makespan,
        bound_s=0.0,
        tasks_executed=stats.tasks_executed,
        tasks_stolen=stats.tasks_stolen,
        avg_steal_latency_s=stats.avg_steal_latency_s,
        proactive_steals=sum(w.proactive_steals_sent for w in stats.workers),
        t_inf_s=profiler.t_inf_s,
        work_frac=frac("working_s"),
        steal_frac=frac("stealing_s"),
        idle_frac=frac("idle_s"),
    )


@dataclass(frozen=True)
class LatencySweep:
    """The full sweep plus the quantities the bound is computed from."""

    points: Tuple[LatencyPoint, ...]
    t1_s: float
    n_tasks: int
    n_workers: int


def gast_bound_s(
    t1_s: float,
    n_workers: int,
    lam_s: float,
    n_tasks: int,
    startup_s: float = 0.0,
) -> float:
    """The Gast/Khatiri/Trystram bound ``W/p + c*lambda*log2(W)``.

    ``W`` enters the additive term through the task count (each unit of
    work is one task in their model), so we use ``log2(n_tasks)``; the
    ``W/p`` term uses measured serial time.  ``startup_s`` adds the
    fixed per-run cluster-assembly cost (process startup, registration)
    our simulation charges but their model has no notion of — without
    it the smallest-latency cells would sit above the bound for a
    reason that has nothing to do with stealing.
    """
    if n_workers < 1 or n_tasks < 1 or t1_s < 0 or lam_s < 0:
        raise ReproError("bound needs positive work, workers and latency")
    return (t1_s / n_workers + GAST_CONSTANT * lam_s * math.log2(max(2, n_tasks))
            + startup_s)


def run_latency_sweep(
    lam_multipliers: Sequence[float] = LAMBDA_MULTIPLIERS,
    policies: Sequence[str] = POLICIES,
    n_workers: int = DEFAULT_WORKERS,
    sequence: str = DEFAULT_SEQUENCE,
    work_scale: float = DEFAULT_WORK_SCALE,
    seed: int = 0,
    jobs: int = 1,
) -> LatencySweep:
    """Measure makespan at every (policy, backbone latency) cell.

    A 1-worker run (latency-independent) supplies the ``W/p`` term of
    the bound.  ``jobs > 1`` fans the cells out over worker processes;
    every cell is an independently seeded simulation, so the sweep is
    byte-identical at any ``jobs``.
    """
    from repro.parallel import ShardedRunner

    for policy in policies:
        if policy not in POLICY_CONFIGS:
            raise ReproError(
                f"unknown sweep policy {policy!r}; known: {sorted(POLICY_CONFIGS)}")
    specs = [_SweepSpec(policy="random", lam_multiplier=1.0, n_workers=1,
                        sequence=sequence, work_scale=work_scale, seed=seed)]
    specs += [
        _SweepSpec(policy=policy, lam_multiplier=mult, n_workers=n_workers,
                   sequence=sequence, work_scale=work_scale, seed=seed)
        for mult in lam_multipliers
        for policy in policies
    ]
    (baseline, *cells), _stats = ShardedRunner(jobs=jobs).map(
        _run_sweep_point, specs, label="latency-sweep",
        describe=_SweepSpec.describe,
    )
    t1 = baseline.makespan_s
    n_tasks = baseline.tasks_executed
    startup_s = WorkerConfig().startup_cost_s
    points = tuple(
        dataclasses.replace(cell, bound_s=gast_bound_s(
            t1, n_workers, cell.lam_s, n_tasks, startup_s=startup_s))
        for cell in cells
    )
    return LatencySweep(points=points, t1_s=t1, n_tasks=n_tasks,
                        n_workers=n_workers)


def format_latency(sweep: LatencySweep) -> str:
    """Render the sweep: plot of makespan vs lambda, bound as reference."""
    measured = [(pt.lam_s * 1e3, pt.makespan_s) for pt in sweep.points]
    bound = sorted({(pt.lam_s * 1e3, pt.bound_s) for pt in sweep.points})
    plot = render_ascii_plot(
        "Makespan vs steal latency — measured policies vs Gast et al. bound",
        measured,
        xlabel="backbone one-way latency (ms)",
        ylabel="makespan (s)",
        reference=bound,
    )
    rows = [
        (
            f"{pt.lam_s * 1e3:g}",
            pt.policy,
            f"{pt.makespan_s:.3f}",
            f"{pt.bound_s:.3f}",
            "yes" if pt.makespan_s <= pt.bound_s else "NO",
            pt.tasks_stolen,
            f"{pt.avg_steal_latency_s * 1e3:.2f}",
            pt.proactive_steals,
            f"{pt.t_inf_s * 1e3:.1f}",
            f"{pt.work_frac * 100:.1f}",
            f"{pt.steal_frac * 100:.1f}",
            f"{pt.idle_frac * 100:.1f}",
        )
        for pt in sweep.points
    ]
    table = render_table(
        f"Latency sweep data — pfold workload, P={sweep.n_workers}, "
        f"T1={sweep.t1_s:.2f}s, {sweep.n_tasks} tasks "
        f"(bound = T1/P + {GAST_CONSTANT} * lambda * log2(tasks) + startup; "
        f"work/steal/idle from the span profiler's wall attribution)",
        ["lambda (ms)", "policy", "makespan (s)", "bound (s)", "<= bound",
         "stolen", "avg steal RTT (ms)", "proactive", "T-inf (ms)",
         "work %", "steal %", "idle %"],
        rows,
    )
    return plot + "\n\n" + table
