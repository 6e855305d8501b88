"""Scale regression tests: the thousand-job JobQ stays indexed.

The seed's JobQ rebuilt the whole pool list on every request — O(n)
per grant, O(n^2) for a full workload.  These tests pin the upgrade
with *operation counts*, not wall clocks:

* ``policy.scanned`` (candidates examined inside ``choose``) must stay
  within a small constant factor of the number of requests, across a
  full 2,000-job lifecycle, for every policy.
* The keyed policies (priority, least-workers, srp) examine exactly one
  candidate per grant when machines hold their jobs and requesters hold
  none — the cost ``repro.macro.policies`` claims.
* The request path must never touch ``PhishJobQ.pool`` (the O(n)
  compatibility view) — enforced by poisoning the property.
* ``list_jobs`` replies are bounded pages no matter the queue size.

A 10,000-job variant runs under ``-m slow``.
"""

import random

import pytest

from repro.cluster.platform import SPARCSTATION_1
from repro.macro.jobq import DEFAULT_LIST_LIMIT, PhishJobQ
from repro.macro.policies import POLICY_FACTORIES, make_policy
from repro.net.network import Network
from repro.net.topology import UniformTopology
from repro.sim.core import Simulator
from repro.tasks.program import JobProgram, ThreadProgram

POLICIES = ("rr", "priority", "least", "srp", "fair", "interrupt")

#: Amortised candidates-per-request budget.  Indexed policies run at
#: ~1 scan per grant; the budget leaves room for lazy-heap stale-entry
#: skips and ring walks past capped jobs, but an O(pool) rescan per
#: request blows through it by orders of magnitude.
SCAN_BUDGET_PER_REQUEST = 8.0


def make_program():
    prog = ThreadProgram("scale")

    @prog.thread
    def root(frame, k):
        frame.send(k, None)

    return JobProgram(prog, root)


def make_jobq(policy_name):
    sim = Simulator()
    network = Network(sim, UniformTopology(SPARCSTATION_1.net),
                      rng=random.Random(0))
    return PhishJobQ(sim, network, "qhost", make_policy(policy_name))


def run_lifecycle(policy_name, n_jobs, n_workstations=32):
    """Submit *n_jobs*, then grant/complete every one of them, with a
    release mixed in every few grants.  Returns the JobQ afterwards."""
    rng = random.Random(n_jobs)
    jobq = make_jobq(policy_name)
    program = make_program()
    for i in range(n_jobs):
        jobq.submit_record(
            program, f"ws{i % n_workstations:02d}",
            priority=rng.choice((0, 0, 0, 1)),
            owner=f"user{i % 5}",
            size_hint_s=float(rng.choice((5, 50, 500))),
            max_workers=rng.choice((1, 2, 4)),
            register_first_worker=False,
        )
    completed = 0
    step = 0
    while completed < n_jobs:
        ws = f"ws{step % n_workstations:02d}"
        step += 1
        desc = jobq._rpc_request_job(ws, None)
        assert desc is not None, "pool drained early"
        if step % 5 == 0:
            jobq._rpc_release({"job_id": desc["job_id"],
                               "workstation": ws}, None)
        else:
            jobq._rpc_job_done(desc["job_id"], None)
            completed += 1
    return jobq


@pytest.mark.parametrize("policy_name", POLICIES)
def test_2000_job_lifecycle_stays_within_scan_budget(policy_name):
    jobq = run_lifecycle(policy_name, 2000)
    assert jobq.grants >= 2000
    scans_per_request = jobq.policy.scanned / jobq.requests
    assert scans_per_request <= SCAN_BUDGET_PER_REQUEST, (
        f"{policy_name}: {jobq.policy.scanned} candidates examined over "
        f"{jobq.requests} requests ({scans_per_request:.1f}/request) — "
        f"the policy is rescanning the pool")


def run_held_lifecycle(policy_name, n_jobs, n_workstations=32):
    """Machines *hold* what they are granted, as traffic daemons do:
    an idle machine requests, a busy one either finishes its job or
    releases it.  Capped jobs fill up and stay full for a while, and no
    requester ever participates in a pooled job."""
    rng = random.Random(n_jobs)
    jobq = make_jobq(policy_name)
    program = make_program()
    for _ in range(n_jobs):
        jobq.submit_record(
            program, "ws00", priority=rng.choice((0, 0, 0, 1)),
            size_hint_s=float(rng.choice((5, 50, 500))),
            max_workers=rng.choice((1, 2, 4)), register_first_worker=False)
    holds = {}
    while any(not rec.done for rec in jobq.jobs.values()):
        ws = f"ws{rng.randrange(n_workstations):02d}"
        job_id = holds.pop(ws, None)
        if job_id is None:
            desc = jobq._rpc_request_job(ws, None)
            if desc is not None:
                holds[ws] = desc["job_id"]
        elif rng.random() < 0.5:
            jobq._rpc_job_done(job_id, None)
        else:
            jobq._rpc_release({"job_id": job_id, "workstation": ws}, None)
    return jobq


@pytest.mark.parametrize("policy_name", ("priority", "least", "srp"))
def test_keyed_policies_examine_one_candidate_per_grant(policy_name):
    """A job at its ``max_workers`` cap is parked out of the keyed
    index, so a requester holding no job is served by the first
    candidate popped: exactly one scan per grant, none for a refusal."""
    jobq = run_held_lifecycle(policy_name, 1000)
    assert jobq.grants >= 1000
    assert jobq.policy.scanned == jobq.grants, (
        f"{policy_name}: {jobq.policy.scanned} candidates examined for "
        f"{jobq.grants} grants — capped jobs are being popped and skipped")


@pytest.mark.slow
@pytest.mark.parametrize("policy_name", POLICIES)
def test_10k_job_lifecycle_stays_within_scan_budget(policy_name):
    jobq = run_lifecycle(policy_name, 10_000)
    assert jobq.policy.scanned / jobq.requests <= SCAN_BUDGET_PER_REQUEST


@pytest.mark.parametrize("policy_name", POLICIES)
def test_request_path_never_touches_the_pool_view(policy_name, monkeypatch):
    """``pool`` is the O(n) compatibility view; grants must go through
    the policy index instead.  Poison the property and run a lifecycle."""
    def poisoned(self):
        raise AssertionError("request path rebuilt the O(n) pool view")

    jobq = make_jobq(policy_name)
    program = make_program()
    for _ in range(50):
        jobq.submit_record(program, "ws00", register_first_worker=False)
    monkeypatch.setattr(PhishJobQ, "pool", property(poisoned))
    for i in range(50):
        desc = jobq._rpc_request_job(f"ws{i:02d}", None)
        assert desc is not None
        jobq._rpc_job_done(desc["job_id"], None)


def test_list_jobs_reply_is_bounded():
    jobq = make_jobq("rr")
    program = make_program()
    for _ in range(DEFAULT_LIST_LIMIT * 2 + 100):
        jobq.submit_record(program, "ws00", register_first_worker=False)
    assert len(jobq._rpc_list_jobs(None, None)) == DEFAULT_LIST_LIMIT
    # A requested limit is honoured below the cap, clamped above it.
    assert len(jobq._rpc_list_jobs({"limit": 10}, None)) == 10
    assert len(jobq._rpc_list_jobs({"limit": 10_000}, None)) == \
        DEFAULT_LIST_LIMIT


def test_list_jobs_pagination_covers_the_whole_queue():
    n = DEFAULT_LIST_LIMIT * 2 + 57
    jobq = make_jobq("rr")
    program = make_program()
    for _ in range(n):
        jobq.submit_record(program, "ws00", register_first_worker=False)
    seen = []
    after = -1
    while True:
        page = jobq._rpc_list_jobs({"after": after}, None)
        if not page:
            break
        assert len(page) <= DEFAULT_LIST_LIMIT
        seen.extend(entry["job_id"] for entry in page)
        after = page[-1]["job_id"]
    assert seen == list(range(n))


def test_every_distinct_policy_is_covered_here():
    assert set(POLICIES) <= set(POLICY_FACTORIES)
    assert len({make_policy(alias).name for alias in POLICIES}) == \
        len(POLICIES)
