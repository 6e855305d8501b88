"""Drive health-diagnosed runs: the engine behind ``repro diagnose``.

A diagnosed run is an ordinary checked run (or traffic run) with a
:class:`~repro.obs.health.HealthMonitor` attached through the standard
metrics seams — the workload, trace, and RNG draws are untouched, so a
diagnosed schedule is byte-identical to the plain one.  The sweep maps
seeds over :class:`~repro.parallel.ShardedRunner` (one registry per
seed: detector state must never bleed across runs whose sim clocks each
start at zero) and merges the per-seed snapshots with
:func:`~repro.obs.metrics.merge_snapshots`, which is what makes the
merged incident stream byte-identical between ``--jobs 1`` and
``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry, merge_snapshots

#: Scenario names ``repro diagnose`` accepts: "clean" (no perturbation,
#: the false-positive gate) plus every fuzzer scenario.
SCENARIOS = ("clean", "mixed", "partition", "spike", "faults-only")


@dataclass(frozen=True)
class DiagnoseSpec:
    """One diagnosed run — primitives only (spawn-safe shard item)."""

    app: str = "fib"
    seed: int = 0
    n_workers: int = 4
    scenario: str = "clean"
    horizon_s: float = 60.0
    #: Traffic-app knobs (ignored for checked apps).
    traffic_jobs: int = 200
    slo_s: Optional[float] = None

    def describe(self) -> str:
        return f"{self.app} seed={self.seed} scenario={self.scenario}"


def _monitored_registry() -> MetricsRegistry:
    """A fresh registry with a :class:`HealthMonitor` attached."""
    registry = MetricsRegistry()
    HealthMonitor(registry)
    return registry


def diagnosed_run(spec: DiagnoseSpec):
    """One checked-app seed under the detectors: ``(CheckedRun, registry)``
    (``repro diagnose --perfetto`` exports the pair)."""
    from repro.check import app_spec

    registry = _monitored_registry()
    run = app_spec(spec.app).check(
        spec.seed, spec.n_workers,
        scenario=None if spec.scenario == "clean" else spec.scenario,
        horizon_s=spec.horizon_s, metrics=registry,
    )
    return run, registry


def diagnose_seed(spec: DiagnoseSpec) -> Dict[str, Any]:
    """Run one diagnosed seed; returns a picklable payload:
    ``{"seed", "completed", "ok", "makespan_s", "snapshot"}`` where
    ``snapshot`` is the seed's full registry snapshot (the incident
    ring rides in it under ``health.incidents``)."""
    if spec.scenario not in SCENARIOS:
        raise ReproError(
            f"unknown scenario {spec.scenario!r}; known: {sorted(SCENARIOS)}")
    if spec.app == "traffic":
        from repro.macro.traffic import TrafficConfig, TrafficSystem

        registry = _monitored_registry()
        system = TrafficSystem(
            TrafficConfig(
                n_workstations=spec.n_workers, n_jobs=spec.traffic_jobs,
                seed=spec.seed, slo_s=spec.slo_s,
            ),
            metrics=registry,
        )
        try:
            report = system.run()
        finally:
            system.stop()
        return {
            "seed": spec.seed,
            "completed": report.n_completed == report.n_jobs,
            "ok": True,
            "makespan_s": report.makespan_s,
            "snapshot": registry.snapshot(),
        }
    run, registry = diagnosed_run(spec)
    return {
        "seed": spec.seed,
        "completed": run.completed,
        "ok": run.ok,
        "makespan_s": run.makespan,
        "snapshot": registry.snapshot(),
    }


@dataclass
class DiagnoseSweep:
    """Outcome of :func:`diagnose_sweep`."""

    app: str
    scenario: str
    seeds: Tuple[int, ...]
    #: ``(seed, incident-row)`` pairs, seed-major then ring order (the
    #: ring is already in :func:`~repro.obs.health.incident_sort_key`
    #: order) — the timeline table's data.
    incidents: List[Tuple[int, Dict[str, Any]]]
    #: Per-seed ``{"seed", "completed", "ok", "makespan_s"}`` summaries.
    runs: List[Dict[str, Any]]
    #: The :func:`~repro.obs.metrics.merge_snapshots` of every seed's
    #: registry — identical whatever ``jobs`` was.
    metrics: Dict[str, Any]
    stats: Any  # repro.parallel.PoolStats

    @property
    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _seed, row in self.incidents:
            counts[row["kind"]] = counts.get(row["kind"], 0) + 1
        return counts


def diagnose_sweep(
    app: str = "fib",
    n_seeds: int = 1,
    start_seed: int = 0,
    n_workers: int = 4,
    scenario: str = "clean",
    jobs: Optional[int] = 1,
    horizon_s: float = 60.0,
    traffic_jobs: int = 200,
    slo_s: Optional[float] = None,
) -> DiagnoseSweep:
    """Diagnose a window of seeds, possibly sharded over processes.

    Results are assembled in seed order regardless of ``jobs`` (the
    runner preserves input order), so the incident list, the per-seed
    summaries, and the merged metric snapshot are all byte-identical
    between a serial and a sharded sweep.
    """
    from repro.parallel import ShardedRunner

    specs = [
        DiagnoseSpec(app=app, seed=seed, n_workers=n_workers,
                     scenario=scenario, horizon_s=horizon_s,
                     traffic_jobs=traffic_jobs, slo_s=slo_s)
        for seed in range(start_seed, start_seed + n_seeds)
    ]
    runner = ShardedRunner(jobs=jobs)
    payloads, stats = runner.map(
        diagnose_seed, specs, label=f"diagnose({app})",
        describe=DiagnoseSpec.describe,
    )
    incidents: List[Tuple[int, Dict[str, Any]]] = []
    runs: List[Dict[str, Any]] = []
    for payload in payloads:
        ring = payload["snapshot"].get("health.incidents", {})
        incidents.extend((payload["seed"], row) for row in ring.get("rows", ()))
        runs.append({k: payload[k]
                     for k in ("seed", "completed", "ok", "makespan_s")})
    return DiagnoseSweep(
        app=app,
        scenario=scenario,
        seeds=tuple(s.seed for s in specs),
        incidents=incidents,
        runs=runs,
        metrics=merge_snapshots([p["snapshot"] for p in payloads]),
        stats=stats,
    )
