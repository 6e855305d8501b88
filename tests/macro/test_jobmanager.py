"""Tests for the PhishJobManager daemon, including priority preemption."""

import dataclasses

from repro.apps.pfold import pfold_job, pfold_serial
from repro.cluster.owner import AlwaysIdleTrace, ScriptedTrace
from repro.macro import (
    JobManagerConfig,
    PhishSystem,
    PhishSystemConfig,
    PriorityAssignment,
)


def test_daemon_polls_then_starts_worker():
    """A machine idle from the start asks immediately and joins."""
    system = PhishSystem(PhishSystemConfig(n_workstations=3, seed=0))
    handle = system.submit(pfold_job("HPHPPHHPHP", work_scale=40.0),
                           from_host="ws00")
    system.run_until_done(timeout_s=3600)
    joined = sum(jm.jobs_started for jm in system.jobmanagers.values())
    assert joined >= 1
    assert handle.result is not None


def test_busy_then_idle_machine_joins_late():
    def traces(rng, host):
        if host == "ws02":
            # Busy for 2s; the daemon's busy poll (shrunk for the test)
            # discovers the logout and joins.
            return ScriptedTrace([("busy", 2.0), ("idle", 1e9)])
        return AlwaysIdleTrace()

    jm_cfg = JobManagerConfig(busy_poll_s=1.0)
    system = PhishSystem(
        PhishSystemConfig(n_workstations=3, seed=1, owner_trace=traces,
                          jobmanager=jm_cfg)
    )
    handle = system.submit(pfold_job("HPHPPHHPHPPH", work_scale=60.0),
                           from_host="ws00")
    system.run_until_done(timeout_s=36000)
    assert handle.result == pfold_serial("HPHPPHHPHPPH", work_scale=60.0).result
    assert system.jobmanagers["ws02"].jobs_started >= 1


def test_priority_preemption_moves_machines_to_urgent_job():
    """A high-priority submission preempts workers of a low-priority job
    — 'the only case in which the macro-level scheduler performs
    time-sharing.'"""
    jm_cfg = JobManagerConfig(enable_preemption=True, reclaim_poll_s=0.5)
    system = PhishSystem(
        PhishSystemConfig(n_workstations=5, seed=2, jobmanager=jm_cfg,
                          policy=PriorityAssignment())
    )
    low = system.submit(pfold_job("HPHPPHHPHPPH", work_scale=80.0, name="low"),
                        from_host="ws00", priority=0)

    # Submit the urgent job after the low one has absorbed the machines.
    def late_submitter(sim):
        yield sim.timeout(3.0)
        handle = system.submit(
            pfold_job("HPHPPHHPHP", work_scale=40.0, name="high"),
            from_host="ws01", priority=10,
        )
        box.append(handle)

    box = []
    system.sim.process(late_submitter(system.sim))
    system.sim.run(until=4.0)  # let the urgent job arrive
    system.run_until_done(timeout_s=36000)

    high = box[0]
    assert low.result == pfold_serial("HPHPPHHPHPPH", work_scale=80.0).result
    assert high.result == pfold_serial("HPHPPHHPHP", work_scale=40.0).result
    preempted = sum(jm.workers_preempted for jm in system.jobmanagers.values())
    assert preempted >= 1
    # The high-priority job finished before the (bigger) low one resumed
    # and completed.
    assert high.clearinghouse.finished_at < low.clearinghouse.finished_at


def test_no_preemption_by_default():
    system = PhishSystem(PhishSystemConfig(n_workstations=3, seed=3))
    system.submit(pfold_job("HPHPPHHPHP", work_scale=40.0), from_host="ws00")
    system.run_until_done(timeout_s=3600)
    assert all(jm.workers_preempted == 0 for jm in system.jobmanagers.values())
