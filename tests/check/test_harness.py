"""Tests for the checked-run harness: perturbations, bugs, shrinking."""

from dataclasses import replace

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
