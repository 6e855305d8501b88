"""Scenario-oracle, false-positive-budget, and merge-identity tests.

The fuzzer's ``--scenario`` seeds double as detector ground truth (see
docs/checking.md): a scenario that forces a network dynamic into the
schedule must trip its matching detector on known seeds, and clean
seeds must stay silent — both directions pin the thresholds in
:class:`~repro.obs.health.HealthConfig`.
"""

import json

import pytest

from repro.check.fuzzer import APPS
from repro.check.harness import Perturbation, run_checked
from repro.obs import HealthMonitor, MetricsRegistry
from repro.obs.diagnose import diagnose_seed, diagnose_sweep


def _diagnose(app, seed, scenario=None, **kwargs):
    spec = APPS[app]
    pert = None
    if scenario is not None:
        pert = Perturbation.generate(seed, 4, scenario=scenario)
    registry = MetricsRegistry()
    monitor = HealthMonitor(registry)
    run = run_checked(
        spec.make(), n_workers=4, seed=seed, perturbation=pert,
        expected=spec.expected, worker_config=spec.worker_config,
        metrics=registry, **kwargs,
    )
    return run, monitor


# ------------------------------------------------------ scenario oracle


@pytest.mark.parametrize("seed", [2, 13])
def test_spike_seeds_trip_steal_storm(seed):
    run, monitor = _diagnose("fib", seed, scenario="spike")
    assert run.completed and run.report.ok
    assert "steal-storm" in {i.kind for i in monitor.incidents}


@pytest.mark.parametrize("seed", [0, 12])
def test_partition_seeds_trip_partition_stall(seed):
    run, monitor = _diagnose("fib", seed, scenario="partition")
    assert run.completed and run.report.ok
    assert "partition-stall" in {i.kind for i in monitor.incidents}


@pytest.mark.parametrize("seed", [15, 27])
def test_crash_seeds_trip_heartbeat_gap(seed):
    run, monitor = _diagnose("fib", seed, scenario="faults-only")
    assert run.completed and run.report.ok
    kinds = {i.kind for i in monitor.incidents}
    assert "heartbeat-gap" in kinds
    # The crashed worker is eventually declared dead: warn then crit.
    severities = {i.severity for i in monitor.incidents
                  if i.kind == "heartbeat-gap"}
    assert {"warn", "crit"} <= severities


def test_watchdog_flags_lost_redo_stall_detection_only():
    """The bug-12 stall class: a deliberately broken scheduler (skip-redo)
    loses a crashed worker's obligations and hangs.  The watchdog must
    *flag* the stall; it must not (and cannot) unstick the run."""
    run, monitor = _diagnose("fib", 15, scenario="faults-only",
                             bug="skip-redo", horizon_s=6.0)
    assert not run.completed  # detection-only: still stuck
    stalls = [i for i in monitor.incidents if i.kind == "stall"]
    assert stalls and stalls[0].severity == "crit"
    assert stalls[0].subject == "job"


def test_fixed_bug12_seed_completes_with_stall_window_flagged():
    """Shrink seed 36291 (the crash-racing-a-reclaim regression, now
    fixed) completes, and the monitor documents the ~1.5 s
    death-detection window it sat through."""
    run, monitor = _diagnose("shrink", 36291, scenario="mixed")
    assert run.completed and run.report.ok
    kinds = {i.kind for i in monitor.incidents}
    assert "heartbeat-gap" in kinds and "stall" in kinds


# ------------------------------------------------- false-positive budget


def test_fifty_clean_seeds_yield_zero_incidents():
    """Satellite: the false-positive budget.  50 unperturbed seeds
    across fib, shrink, and traffic produce not a single incident."""
    fired = []
    for app in ("fib", "shrink"):
        for seed in range(20):
            run, monitor = _diagnose(app, seed)
            assert run.completed and run.report.ok
            if monitor.incidents:
                fired.append((app, seed, [i.kind for i in monitor.incidents]))
    for seed in range(10):
        payload = diagnose_seed(
            app="traffic", seed=seed, n_workers=8, traffic_jobs=60,
            slo_s=3600.0)
        rows = payload["snapshot"]["health.incidents"]["rows"]
        if rows:
            fired.append(("traffic", seed, [r["kind"] for r in rows]))
    assert fired == []


def test_diagnosed_run_keeps_trace_byte_identical():
    """Attaching the monitor is pure observation: the schedule and the
    TraceLog are untouched."""
    spec = APPS["fib"]
    pert = Perturbation.generate(2, 4, scenario="spike")
    plain = run_checked(spec.make(), n_workers=4, seed=2, perturbation=pert,
                        expected=spec.expected,
                        worker_config=spec.worker_config)
    run, monitor = _diagnose("fib", 2, scenario="spike")
    assert monitor.incidents  # the monitor did observe something
    a = [(e.time, e.kind, e.source, e.detail) for e in plain.trace.events()]
    b = [(e.time, e.kind, e.source, e.detail) for e in run.trace.events()]
    assert a == b


# ------------------------------------------------------ sharded identity


def test_sweep_serial_vs_jobs2_byte_identical():
    """Satellite: the merged incident stream (and the whole merged
    metric snapshot) is byte-identical between --jobs 1 and --jobs 2."""
    serial = diagnose_sweep(app="fib", n_seeds=4, start_seed=2,
                            scenario="spike", jobs=1)
    sharded = diagnose_sweep(app="fib", n_seeds=4, start_seed=2,
                             scenario="spike", jobs=2)
    assert serial.incidents  # a vacuous comparison proves nothing
    assert (json.dumps(serial.metrics, sort_keys=True)
            == json.dumps(sharded.metrics, sort_keys=True))
    assert serial.incidents == sharded.incidents
    assert serial.runs == sharded.runs


# ------------------------------------------------------------- slo oracle


def test_traffic_tight_slo_breaches():
    payload = diagnose_seed(
        app="traffic", seed=3, n_workers=4, traffic_jobs=40, slo_s=30.0)
    rows = payload["snapshot"]["health.incidents"]["rows"]
    assert rows and all(r["kind"] == "slo-breach" for r in rows)
    assert all(r["evidence"]["sojourn_s"] > 30.0 for r in rows)
