"""Tests for the checked-run harness: perturbations, bugs, shrinking."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.apps.fib import fib_job, fib_serial
from repro.apps.shrink import shrink_expected, shrink_job
from repro.check import (
    BUGS,
    CHECK_WORKER,
    Perturbation,
    run_checked,
    shrink_perturbation,
)
from repro.errors import ReproError
from repro.obs import SpanProfiler
from repro.phish import run_job
from repro.sim.core import Simulator


def test_identity_run_is_clean_and_correct():
    run = run_checked(fib_job(10), n_workers=4, seed=0, expected=fib_serial(10))
    assert run.completed and run.ok
    assert run.result == fib_serial(10)
    assert run.makespan > 0
    run.require_ok()  # must not raise


def test_perturbation_generation_is_deterministic():
    a = Perturbation.generate(42, 4)
    b = Perturbation.generate(42, 4)
    c = Perturbation.generate(43, 4)
    assert a == b
    assert a != c
    assert a.describe()  # non-identity: it names its components


def test_perturbation_never_crashes_clearinghouse_host():
    for seed in range(200):
        for t, idx in Perturbation.generate(seed, 4).crashes:
            assert 1 <= idx < 4


def test_crash_injection_is_survived_and_checked():
    """A seed whose schedule includes a crash still completes cleanly —
    the redo protocol regenerates the lost work under the checker's eye."""
    pert = Perturbation(crashes=((0.02, 1),))
    run = run_checked(fib_job(14), n_workers=4, seed=3, perturbation=pert,
                      expected=fib_serial(14))
    assert run.completed and run.ok
    assert any(w.exit_reason == "crashed" for w in run.workers)


def test_reclaim_injection_migrates_and_completes():
    pert = Perturbation(reclaims=((0.015, 1),))
    run = run_checked(fib_job(10), n_workers=4, seed=5, perturbation=pert,
                      expected=fib_serial(10))
    assert run.completed and run.ok


def test_invalid_crash_index_rejected():
    with pytest.raises(ReproError, match="Clearinghouse"):
        run_checked(fib_job(8), n_workers=4,
                    perturbation=Perturbation(crashes=((0.01, 0),)))
    with pytest.raises(ReproError, match="out of range"):
        run_checked(fib_job(8), n_workers=4,
                    perturbation=Perturbation(reclaims=((0.01, 9),)))


def test_unknown_bug_rejected():
    with pytest.raises(ReproError, match="unknown bug"):
        run_checked(fib_job(8), bug="nonsense")


def test_bug_registry_names():
    assert set(BUGS) == {"skip-redo", "drop-migration", "dup-exec"}


def test_skip_redo_bug_caught():
    """Seed 15's schedule (a crash at ~0.023s) needs the redo protocol;
    with the victims' redo skipped, conservation/liveness must flag it."""
    run = run_checked(fib_job(14), n_workers=4, seed=15,
                      perturbation=Perturbation.generate(15, 4),
                      expected=fib_serial(14), bug="skip-redo")
    assert not run.ok


def test_drop_migration_bug_caught():
    """Shrink seed 8 reclaims ws00 mid-run: its migration batch reaches
    an adopter that (bugged) silently loses half of the ready closures."""
    from repro.check.fuzzer import APPS

    spec = APPS["shrink"]
    run = run_checked(spec.make(), n_workers=4, seed=8,
                      perturbation=Perturbation.generate(8, 4),
                      expected=spec.expected, worker_config=spec.worker_config,
                      bug="drop-migration")
    assert not run.ok


def test_dup_exec_bug_caught_by_conservation():
    run = run_checked(fib_job(14), n_workers=4, seed=0,
                      perturbation=Perturbation.generate(0, 4),
                      expected=fib_serial(14), bug="dup-exec")
    assert any("executed" in v.message and "times" in v.message
               for v in run.report.by_invariant("conservation"))


def _bug_transient_park(worker):
    """Park a ready closure in ws01's suspended table for 10 ms mid-run,
    then take it out again: only a mid-run audit can see it."""
    if worker.name != "ws01":
        return
    sim = worker.sim

    def park():
        yield sim.timeout(0.03)
        worker.suspended["parked"] = SimpleNamespace(cid="parked", join_counter=0)
        yield sim.timeout(0.01)
        del worker.suspended["parked"]

    sim.process(park())


def test_mid_run_audit_catches_a_transiently_parked_ready_closure(monkeypatch):
    monkeypatch.setitem(BUGS, "transient-park", _bug_transient_park)
    run = run_checked(fib_job(14), n_workers=4, seed=0,
                      expected=fib_serial(14), bug="transient-park")
    assert run.completed and run.makespan > 0.04  # parked and released mid-run
    assert [v.invariant for v in run.report.violations] == ["deque-audit"]
    assert "ready closure parked still parked" in run.report.violations[0].message


def test_checked_and_profiled_runs_never_step(monkeypatch):
    """Checked and profiled runs take the production drain loop: the
    per-event ``Simulator.step`` is never called."""
    def step(self):
        raise AssertionError("Simulator.step on a production run")

    monkeypatch.setattr(Simulator, "step", step)
    run = run_checked(fib_job(12), n_workers=4, seed=3,
                      perturbation=Perturbation.generate(3, 4),
                      expected=fib_serial(12))
    assert run.completed and run.ok
    res = run_job(fib_job(12), n_workers=4, seed=1, profiler=SpanProfiler())
    assert res.profile["nodes"] == res.stats.tasks_executed


def test_shrinker_reduces_to_minimal_schedule():
    """Shrinking seed 15's skip-redo failure drops the tie-break shuffle
    and jitter but must keep the crash — the failure's one real cause."""
    failing = Perturbation.generate(15, 4)

    def rerun(candidate):
        return run_checked(fib_job(14), n_workers=4, seed=15,
                           perturbation=candidate, expected=fib_serial(14),
                           bug="skip-redo")

    shrunk, runs = shrink_perturbation(rerun, failing)
    assert 0 < runs <= 40
    assert shrunk.crashes  # the crash is essential
    assert shrunk.tiebreak_seed is None  # the shuffle was not
    assert shrunk.latency_jitter_s == 0.0
    # The shrunk schedule still reproduces the failure.
    assert not rerun(shrunk).ok


def test_shrink_app_retirement_schedule_is_clean():
    """The retirement-heavy app under a crash+reclaim schedule: exercises
    migration redo and the rejoin of retired workers (the seed-12 class
    of schedules that originally hung the protocol)."""
    wc = replace(CHECK_WORKER, retire_after_failed_steals=4)
    pert = Perturbation(crashes=((0.044, 1),), reclaims=((0.035, 0),))
    run = run_checked(shrink_job(12, 60), n_workers=4, seed=12,
                      perturbation=pert, expected=shrink_expected(12, 60),
                      worker_config=wc)
    assert run.completed and run.ok
    assert run.result == shrink_expected(12, 60)


def test_trace_capacity_degrades_gracefully():
    """A capacity-bounded trace must yield a truncation warning, not
    false violations."""
    run = run_checked(fib_job(10), n_workers=4, seed=0,
                      expected=fib_serial(10), trace_capacity=50)
    assert run.completed
    assert run.ok
    assert run.trace.truncated
    assert any("truncated" in w for w in run.report.warnings)
