"""End-to-end tests of the whole Phish system (macro + micro)."""

import dataclasses

import pytest

from repro.apps.fib import fib_job, fib_serial
from repro.apps.pfold import pfold_job, pfold_serial
from repro.cluster.owner import AlwaysBusyTrace, AlwaysIdleTrace, ScriptedTrace
from repro.cluster.platform import ETHERNET_UDP
from repro.errors import JobError
from repro.macro import LeastWorkersAssignment, PhishSystem, PhishSystemConfig
from repro.net.topology import SegmentedTopology


def test_single_job_all_idle():
    system = PhishSystem(PhishSystemConfig(n_workstations=4, seed=1))
    handle = system.submit(fib_job(14), from_host="ws00")
    system.run_until_done(timeout_s=3600)
    assert handle.result == fib_serial(14)
    assert handle.record.done


def test_two_jobs_share_machines():
    system = PhishSystem(PhishSystemConfig(n_workstations=6, seed=2))
    h1 = system.submit(pfold_job("HPHPPHHPHP", work_scale=30.0), from_host="ws00")
    h2 = system.submit(fib_job(14), from_host="ws01")
    system.run_until_done(timeout_s=3600)
    assert h1.result == pfold_serial("HPHPPHHPHP", work_scale=30.0).result
    assert h2.result == fib_serial(14)
    started = sum(jm.jobs_started for jm in system.jobmanagers.values())
    assert started >= 2  # idle machines actually joined


def test_busy_machines_never_participate():
    def traces(rng, host):
        return AlwaysBusyTrace() if host == "ws02" else AlwaysIdleTrace()

    system = PhishSystem(
        PhishSystemConfig(n_workstations=3, seed=3, owner_trace=traces)
    )
    handle = system.submit(pfold_job("HPHPPHHP", work_scale=30.0), from_host="ws00")
    system.run_until_done(timeout_s=3600)
    assert handle.result is not None
    assert system.jobmanagers["ws02"].jobs_started == 0


def test_owner_reclaim_migrates_and_finishes():
    def traces(rng, host):
        if host == "ws02":
            return ScriptedTrace([("idle", 2.0), ("busy", 1e9)])
        return AlwaysIdleTrace()

    system = PhishSystem(
        PhishSystemConfig(n_workstations=4, seed=4, owner_trace=traces)
    )
    handle = system.submit(pfold_job("HPHPPHHPHPPH", work_scale=60.0), from_host="ws00")
    system.run_until_done(timeout_s=36000)
    assert handle.result == pfold_serial("HPHPPHHPHPPH", work_scale=60.0).result
    assert system.jobmanagers["ws02"].workers_reclaimed == 1


def test_least_workers_policy_balances_jobs():
    system = PhishSystem(
        PhishSystemConfig(n_workstations=8, seed=5, policy=LeastWorkersAssignment())
    )
    h1 = system.submit(pfold_job("HPHPPHHPHP", work_scale=30.0), from_host="ws00")
    h2 = system.submit(pfold_job("HPHPPHHPHP", work_scale=30.0, name="pfold-b"),
                       from_host="ws01")
    system.run_until_done(timeout_s=3600)
    assert h1.result == h2.result


def test_run_until_done_without_jobs_raises():
    system = PhishSystem(PhishSystemConfig(n_workstations=2, seed=0))
    with pytest.raises(JobError):
        system.run_until_done()


def test_submit_unknown_host_raises():
    system = PhishSystem(PhishSystemConfig(n_workstations=2, seed=0))
    with pytest.raises(JobError):
        system.submit(fib_job(5), from_host="ws99")


def test_timeout_raises():
    # Make every machine busy: the job can never start beyond ws00's
    # first worker... ws00 still computes it; use a no-first-worker
    # submission so nothing ever runs.
    def traces(rng, host):
        return AlwaysBusyTrace()

    system = PhishSystem(
        PhishSystemConfig(n_workstations=2, seed=0, owner_trace=traces)
    )
    system.submit(fib_job(20), from_host="ws00", start_first_worker=False)
    with pytest.raises(JobError, match="did not finish"):
        system.run_until_done(timeout_s=100.0)


def test_stop_tears_everything_down():
    system = PhishSystem(PhishSystemConfig(n_workstations=2, seed=0))
    handle = system.submit(fib_job(10), from_host="ws00")
    system.run_until_done(timeout_s=3600)
    system.stop()
    assert handle.result == fib_serial(10)


def _system_with_remote_jobq(topology=None):
    """Four machines whose JobQ host (ws00) never participates — its
    owner is at the desk — so cutting ws00 off disturbs the macro RPCs
    and nothing else.  The job is submitted on ws01."""

    def traces(rng, host):
        return AlwaysBusyTrace() if host == "ws00" else AlwaysIdleTrace()

    system = PhishSystem(PhishSystemConfig(
        n_workstations=4, seed=0, owner_trace=traces, topology=topology))
    handle = system.submit(pfold_job("HPHPPHHPHP", work_scale=30.0),
                           from_host="ws01")
    return system, handle


def _assert_job_left_the_pool(system, handle):
    """The finished job is done at the JobQ, every daemon is alive, and
    five more simulated minutes grant it to nobody."""
    assert handle.done.is_set
    assert handle.record.done
    grants = system.jobq.grants
    system.sim.run(until=system.sim.now + 300.0)  # raises if a process died
    assert system.jobq.grants == grants
    assert all(jm.process.is_alive for jm in system.jobmanagers.values())


def test_job_leaves_the_pool_after_a_jobq_outage():
    """The JobQ's host is off the network from before the job completes
    until well past an RPC's whole retry budget (5 x 2 s): the
    submitter's ``release`` and ``job_done`` both exhaust.  They retry
    until heard instead of killing the job watcher."""
    system, handle = _system_with_remote_jobq()
    system.sim.run(until=1.0)
    assert not handle.done.is_set
    system.network.set_host_down(system.jobq.host, True)
    system.run_until_done(timeout_s=3600)
    system.sim.run(until=system.sim.now + 30.0)
    assert not handle.record.done  # the JobQ has not heard yet
    system.network.set_host_down(system.jobq.host, False)
    system.sim.run(until=system.sim.now + 120.0)
    _assert_job_left_the_pool(system, handle)
    assert handle.record.participants == set()


def test_job_leaves_the_pool_over_a_lossy_jobq_link():
    """Half the datagrams between the JobQ's segment and the machines
    vanish, so whole calls exhaust their retransmissions (this seed's
    ``job_done`` does)."""
    lossy = SegmentedTopology(
        {f"ws{i:02d}": "jobq" if i == 0 else "lan" for i in range(4)},
        intra=ETHERNET_UDP,
        inter=dataclasses.replace(ETHERNET_UDP, loss_prob=0.5),
    )
    system, handle = _system_with_remote_jobq(lossy)
    system.run_until_done(timeout_s=3600)
    system.sim.run(until=system.sim.now + 120.0)
    assert system.network.counters.dropped_loss > 0
    _assert_job_left_the_pool(system, handle)
