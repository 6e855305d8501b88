"""Departure-protocol integration: forwarding, late grants, slow links."""

import pytest

from repro.apps.pfold import pfold_job, pfold_serial
from repro.apps.shrink import shrink_expected, shrink_job
from repro.cluster.platform import SPARCSTATION_1
from repro.micro.worker import WorkerConfig
from repro.net.network import NetworkParams
from repro.net.topology import SegmentedTopology
from repro.phish import run_job

SEQ = "HPHPPHHPHPPH"
SCALE = 60.0


def test_retired_workers_forward_args_to_migrated_closures():
    """Retirement while holding suspended closures: the forwarder must
    reroute late argument sends or the job hangs."""
    cfg = WorkerConfig(retire_after_failed_steals=5)
    expected = shrink_expected(36, 800)
    result = run_job(shrink_job(36, 800), n_workers=6, seed=2,
                     worker_config=cfg, trace=True)
    assert result.result == expected
    retired = [w for w in result.workers if w.exit_reason == "retired"]
    assert retired, "scenario requires at least one retirement"
    migrated_suspended = any(w.forward_map for w in retired)
    # Whether or not forwarding was exercised this seed, the run is exact;
    # when it was, count it as covered.
    if migrated_suspended:
        assert any(w.stats.tasks_migrated_out > 0 for w in result.workers)


def test_steals_across_a_link_slower_than_the_timeout():
    """Inter-segment latency above steal_timeout forces the late-grant
    adoption path: thieves give up, the reply arrives later at the main
    socket, and the task must not be lost."""
    base = SPARCSTATION_1.net
    slow = NetworkParams(
        send_overhead_s=base.send_overhead_s,
        recv_overhead_s=base.recv_overhead_s,
        wire_latency_s=0.08,  # RTT ~0.16s >> steal_timeout 0.05s
        bandwidth_bytes_per_s=base.bandwidth_bytes_per_s,
    )
    topo = SegmentedTopology(
        {f"ws{i:02d}": ("A" if i < 2 else "B") for i in range(4)},
        intra=base, inter=slow,
    )
    expected = pfold_serial(SEQ, work_scale=SCALE).result
    result = run_job(pfold_job(SEQ, work_scale=SCALE), n_workers=4, seed=1,
                     topology=topo)
    assert result.result == expected  # nothing lost despite timeouts
    # Cross-segment steal attempts did time out (failed > 0) yet grants
    # were adopted (stolen > 0).
    assert result.stats.tasks_stolen > 0
    assert sum(w.failed_steal_attempts for w in result.stats.workers) > 0


def test_two_jobs_from_same_host_use_distinct_ports():
    """Two Clearinghouses + two workers on one workstation coexist via
    the per-job port plan."""
    from repro.apps.fib import fib_job, fib_serial
    from repro.macro import PhishSystem, PhishSystemConfig

    system = PhishSystem(PhishSystemConfig(n_workstations=4, seed=5))
    h1 = system.submit(pfold_job("HPHPPHHPHP", work_scale=30.0), from_host="ws00")
    h2 = system.submit(fib_job(14), from_host="ws00")
    system.run_until_done(timeout_s=3600)
    assert h1.result == pfold_serial("HPHPPHHPHP", work_scale=30.0).result
    assert h2.result == fib_serial(14)


def test_graceful_retirement_beats_heartbeat_timeout():
    """Retired workers unregister; they must not later be declared dead
    (which would trigger wasteful redo of their historical steals)."""
    cfg = WorkerConfig(retire_after_failed_steals=5, update_interval_s=1.0)
    from repro.clearinghouse.clearinghouse import ClearinghouseConfig

    ch_cfg = ClearinghouseConfig(update_interval_s=1.0, death_timeout_s=3.0,
                                 check_interval_s=0.5)
    result = run_job(shrink_job(36, 2000), n_workers=6, seed=2,
                     worker_config=cfg, ch_config=ch_cfg)
    assert result.result == shrink_expected(36, 2000)
    assert sum(w.tasks_redone for w in result.stats.workers) == 0


@pytest.mark.parametrize("cause", ["owner-reclaimed", "preempted"])
def test_eviction_with_no_adopter_is_a_failstop_whatever_the_cause(sim, cause):
    """Bug 17: only ``owner-reclaimed`` fail-stopped when no peer acked
    the migration; a *preempted* worker "undid" its departure instead —
    but its run loop had already ended, so it sat registered and
    heartbeating forever with its closures stranded, ``finished`` never
    set (the JobManager waits on it) and the job unable to complete."""
    from repro.apps.fib import fib_job, fib_serial
    from repro.clearinghouse.clearinghouse import ClearinghouseConfig
    from repro.phish import start_job

    fast = WorkerConfig(startup_cost_s=0.01, update_interval_s=0.5)
    cluster = start_job(
        sim, fib_job(20), 1, 1, fast,
        ClearinghouseConfig(update_interval_s=0.5, death_timeout_s=1.5,
                            check_interval_s=0.2))
    (lone,) = cluster.workers
    sim.run(until=0.2)
    assert len(lone.deque) + len(lone.suspended) > 0 and not lone.finished.is_set
    assert lone.evict(cause)
    sim.run(until=0.3)
    assert lone.finished.is_set and lone.exit_reason == "crashed"
    assert not lone._net_proc.is_alive and not lone._update_proc.is_alive
    # The job survives it: the Clearinghouse declares the silent worker
    # dead, and the next machine to register inherits the root.
    from repro.cluster.workstation import Workstation
    from repro.micro.worker import Worker

    ws = Workstation(sim, "ws01", cluster.hosts[0].profile, cluster.network)
    Worker(sim, ws, cluster.network, lone.job, "ws00", config=fast)
    sim.run(cluster.clearinghouse.done.wait())
    assert cluster.clearinghouse.result == fib_serial(20)
