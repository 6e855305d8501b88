"""End-to-end tests for the arrival-driven traffic engine.

Small worklets (~tens of jobs) run the full machinery — arrival
schedule, owner model, agents pulling over real RPC, service draining,
exactly-once completion — so these pin the engine's determinism and
conservation without macro-benchmark runtimes.
"""

import dataclasses

import pytest

from repro.errors import JobError
from repro.macro.traffic import TrafficConfig, TrafficSystem, run_traffic

#: Small-but-real base: every test overrides from here.
TINY = TrafficConfig(n_workstations=6, n_jobs=40, sizes="exponential",
                     size_mean_s=10.0, rate_per_s=0.8)


def test_default_config_is_valid_and_thousand_job():
    config = TrafficConfig()
    config.validate()
    assert config.n_jobs >= 1000


def test_run_completes_every_job():
    report = run_traffic(TINY)
    assert report.n_submitted == TINY.n_jobs
    assert report.n_completed == TINY.n_jobs
    assert report.makespan_s > 0
    assert report.throughput_jobs_per_s == pytest.approx(
        report.n_completed / report.makespan_s)
    assert report.grants >= report.n_completed
    assert report.requests >= report.grants


def test_run_twice_is_deterministic():
    assert run_traffic(TINY) == run_traffic(TINY)


def test_seed_changes_the_outcome():
    a = run_traffic(TINY)
    b = run_traffic(dataclasses.replace(TINY, seed=1))
    assert a != b


@pytest.mark.parametrize("policy", ("rr", "priority", "least", "srp",
                                    "fair", "interrupt"))
def test_every_policy_drains_the_workload(policy):
    from repro.macro.policies import make_policy

    report = run_traffic(dataclasses.replace(TINY, policy=policy))
    assert report.n_completed == TINY.n_jobs
    assert report.policy == make_policy(policy).name  # canonical name


@pytest.mark.parametrize("arrival", ("poisson", "diurnal", "bursty"))
def test_every_arrival_process_drains_the_workload(arrival):
    report = run_traffic(dataclasses.replace(TINY, arrival=arrival))
    assert report.n_completed == TINY.n_jobs
    assert report.arrival == arrival


def test_interrupt_mode_registers_a_pool_listener():
    system = TrafficSystem(dataclasses.replace(TINY, policy="interrupt"))
    try:
        assert len(system.jobq._pool_listeners) == 1
        report = system.run()
    finally:
        system.stop()
    assert report.n_completed == TINY.n_jobs


def test_plain_mode_registers_no_pool_listener():
    system = TrafficSystem(TINY)
    try:
        assert system.jobq._pool_listeners == []
    finally:
        system.stop()


def test_horizon_cap_returns_instead_of_hanging():
    """A horizon shorter than the workload returns a partial report."""
    report = run_traffic(dataclasses.replace(TINY, horizon_s=30.0))
    assert report.n_completed < TINY.n_jobs
    assert report.makespan_s <= 30.0 + TINY.quantum_s + 1.0


def test_workday_owners_still_drain():
    report = run_traffic(dataclasses.replace(
        TINY, owners="workday", owner_busy_mean_s=30.0,
        owner_idle_mean_s=90.0))
    assert report.n_completed == TINY.n_jobs


def test_pareto_sizes_still_drain():
    report = run_traffic(dataclasses.replace(
        TINY, sizes="pareto", size_hi_s=200.0))
    assert report.n_completed == TINY.n_jobs


def test_latency_percentiles_are_ordered():
    report = run_traffic(dataclasses.replace(TINY, n_jobs=80))
    assert report.latency_p50_s <= report.latency_p95_s \
        <= report.latency_p99_s
    assert report.wait_p50_s <= report.wait_p99_s
    assert report.latency_mean_s > 0


def test_config_validation_rejects_nonsense():
    with pytest.raises(JobError):
        TrafficConfig(n_workstations=0).validate()
    with pytest.raises(JobError):
        TrafficConfig(n_jobs=0).validate()
    with pytest.raises(JobError):
        TrafficConfig(max_workers_per_job=0).validate()
    with pytest.raises(JobError):
        TrafficConfig(owners="absentee").validate()
    with pytest.raises(JobError):
        TrafficConfig(quantum_s=0.0).validate()


def test_run_traffic_validates_its_config():
    with pytest.raises(JobError):
        run_traffic(TrafficConfig(n_jobs=0))


def _daemons_alive(system):
    return all(jm.process.is_alive for jm in system.jobmanagers.values())


def test_daemons_survive_a_lossy_network():
    """Half the datagrams vanish, so whole ``request_job`` / ``job_done``
    / ``release`` calls exhaust their retransmissions: every machine's
    daemon treats that as "JobQ unreachable; retry later" and every job
    still completes."""
    system = TrafficSystem(dataclasses.replace(TINY, horizon_s=20_000.0))
    topology = system.network.topology
    topology.params = dataclasses.replace(topology.params, loss_prob=0.5)
    try:
        report = system.run()
        assert system.network.counters.dropped_loss > 0
        assert report.n_completed == TINY.n_jobs
        assert _daemons_alive(system)
    finally:
        system.stop()


def test_daemons_survive_a_jobq_outage():
    """The JobQ's host drops off the network for longer than an RPC's
    whole retry budget (5 x 2 s) while jobs are being requested, served
    and completed.  No machine stops participating, and no job is left
    holding phantom participants (a lost ``release``) or undone (a lost
    ``job_done``): once the JobQ is back the run finishes."""
    system = TrafficSystem(dataclasses.replace(TINY, policy="srp"))
    try:
        system.sim.run(until=20.0)
        system.network.set_host_down(system.jobq.host, True)
        system.sim.run(until=45.0)
        system.network.set_host_down(system.jobq.host, False)
        report = system.run()
        assert _daemons_alive(system)
    finally:
        system.stop()
    assert report.n_completed == TINY.n_jobs
    assert report.makespan_s < 200.0  # not rescued by the horizon
