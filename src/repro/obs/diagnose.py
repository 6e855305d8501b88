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


def _monitored_registry() -> MetricsRegistry:
    """A fresh registry with a :class:`HealthMonitor` attached."""
    registry = MetricsRegistry()
    HealthMonitor(registry)
    return registry


def diagnosed_run(app: str, seed: int, n_workers: int = 4,
                  scenario: str = "clean", **check_kwargs: Any):
    """One checked-app seed under the detectors: ``(CheckedRun, registry)``
    (``repro diagnose --perfetto`` exports the pair).  *check_kwargs* go
    to :meth:`~repro.check.AppSpec.check` (``horizon_s``)."""
    from repro.check import app_spec

    registry = _monitored_registry()
    run = app_spec(app).check(
        seed, n_workers,
        scenario=None if scenario == "clean" else scenario,
        metrics=registry, **check_kwargs,
    )
    return run, registry


def diagnose_seed(app: str = "fib", seed: int = 0, n_workers: int = 4,
                  scenario: str = "clean", traffic_jobs: int = 200,
                  slo_s: Optional[float] = None,
                  **check_kwargs: Any) -> Dict[str, Any]:
    """Run one diagnosed seed; returns a picklable payload:
    ``{"seed", "completed", "ok", "makespan_s", "snapshot"}`` where
    ``snapshot`` is the seed's full registry snapshot (the incident
    ring rides in it under ``health.incidents``).  *traffic_jobs* and
    *slo_s* are the ``traffic`` app's knobs, *check_kwargs*
    :func:`diagnosed_run`'s; each is ignored by the other kind of app."""
    if scenario not in SCENARIOS:
        raise ReproError(
            f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}")
    if app == "traffic":
        from repro.macro.traffic import TrafficConfig, TrafficSystem

        registry = _monitored_registry()
        system = TrafficSystem(
            TrafficConfig(n_workstations=n_workers, n_jobs=traffic_jobs,
                          seed=seed, slo_s=slo_s),
            metrics=registry,
        )
        try:
            report = system.run()
        finally:
            system.stop()
        completed, ok = report.n_completed == report.n_jobs, True
        makespan_s = report.makespan_s
    else:
        run, registry = diagnosed_run(app, seed, n_workers, scenario,
                                      **check_kwargs)
        completed, ok, makespan_s = run.completed, run.ok, run.makespan
    return {"seed": seed, "completed": completed, "ok": ok,
            "makespan_s": makespan_s, "snapshot": registry.snapshot()}


def _diagnose_shard(params: Dict[str, Any]) -> Dict[str, Any]:
    """Shard task: :func:`diagnose_seed`'s keyword arguments travel as a
    plain dict — picklable for the pool."""
    return diagnose_seed(**params)


@dataclass
class DiagnoseSweep:
    """Outcome of :func:`diagnose_sweep`."""

    #: ``(seed, incident-row)`` pairs, seed-major then ring order (the
    #: ring is already in :func:`~repro.obs.health.incident_sort_key`
    #: order) — the timeline table's data.
    incidents: List[Tuple[int, Dict[str, Any]]]
    #: Per-seed ``{"seed", "completed", "ok", "makespan_s"}`` summaries.
    runs: List[Dict[str, Any]]
    #: The :func:`~repro.obs.metrics.merge_snapshots` of every seed's
    #: registry — identical whatever ``jobs`` was.
    metrics: Dict[str, Any]

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
    scenario: str = "clean",
    jobs: Optional[int] = 1,
    **params: Any,
) -> DiagnoseSweep:
    """Diagnose a window of seeds, possibly sharded over processes;
    *params* are :func:`diagnose_seed`'s remaining keyword arguments.

    Results are assembled in seed order regardless of ``jobs`` (the
    runner preserves input order), so the incident list, the per-seed
    summaries, and the merged metric snapshot are all byte-identical
    between a serial and a sharded sweep.
    """
    from repro.parallel import ShardedRunner

    payloads, _stats = ShardedRunner(jobs=jobs).map(
        _diagnose_shard,
        [dict(params, app=app, scenario=scenario, seed=seed)
         for seed in range(start_seed, start_seed + n_seeds)],
        label=f"diagnose({app})",
        describe=lambda p: f"{app} seed={p['seed']} scenario={scenario}",
    )
    incidents: List[Tuple[int, Dict[str, Any]]] = []
    runs: List[Dict[str, Any]] = []
    for payload in payloads:
        ring = payload["snapshot"].get("health.incidents", {})
        incidents.extend((payload["seed"], row) for row in ring.get("rows", ()))
        runs.append({k: payload[k]
                     for k in ("seed", "completed", "ok", "makespan_s")})
    return DiagnoseSweep(
        incidents=incidents,
        runs=runs,
        metrics=merge_snapshots([p["snapshot"] for p in payloads]),
    )
