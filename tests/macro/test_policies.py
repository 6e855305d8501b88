"""Tests for JobQ assignment policies (indexed API).

Policies are driven the way the JobQ drives them: ``on_submit`` when a
job enters the pool, ``choose`` + participant update + ``on_grant`` per
assignment, ``on_release``/``on_done`` as participation ends.  The
tie-breaking sequences pinned here are the documented determinism
contract from :mod:`repro.macro.policies`.
"""

import pytest

from repro.macro.job import JobRecord
from repro.macro.policies import (
    FairShareAssignment,
    InterruptSharingAssignment,
    LeastWorkersAssignment,
    PriorityAssignment,
    RoundRobinAssignment,
    ShortestRemainingAssignment,
    make_policy,
)
from repro.tasks.program import JobProgram, ThreadProgram


def make_job(job_id, priority=0, owner=None, size_s=None, max_workers=None):
    prog = ThreadProgram(f"job{job_id}")

    @prog.thread
    def root(frame, k):
        frame.send(k, None)

    return JobRecord(
        job_id=job_id,
        program=JobProgram(prog, root),
        ch_host=f"submit{job_id}",
        priority=priority,
        owner=owner,
        size_hint_s=size_s,
        remaining_s=size_s,
        max_workers=max_workers,
    )


def submit_all(policy, jobs):
    for job in jobs:
        policy.on_submit(job)
    return jobs


def grant(policy, requester):
    """One JobQ assignment round: choose, then register the grant."""
    record = policy.choose(requester)
    if record is not None:
        record.participants.add(requester)
        policy.on_grant(record, requester)
    return record


# -- round-robin --------------------------------------------------------


def test_round_robin_cycles_through_pool():
    policy = RoundRobinAssignment()
    submit_all(policy, [make_job(0), make_job(1), make_job(2)])
    picks = [grant(policy, f"ws{i}").job_id for i in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_round_robin_skips_jobs_already_participated_in():
    policy = RoundRobinAssignment()
    a, _b = submit_all(policy, [make_job(0), make_job(1)])
    a.participants.add("wsX")
    assert policy.choose("wsX").job_id == 1


def test_round_robin_new_submission_joins_cycle_tail():
    # Pinned: a job submitted mid-cycle is served after the jobs already
    # waiting in the rotation, not immediately.
    policy = RoundRobinAssignment()
    submit_all(policy, [make_job(0), make_job(1)])
    assert grant(policy, "ws0").job_id == 0
    policy.on_submit(make_job(2))
    assert [grant(policy, f"w{i}").job_id for i in range(3)] == [1, 2, 0]


def test_no_eligible_returns_none():
    policy = RoundRobinAssignment()
    (job,) = submit_all(policy, [make_job(0)])
    job.participants.add("wsX")
    assert policy.choose("wsX") is None
    assert RoundRobinAssignment().choose("wsX") is None  # empty pool


def test_done_jobs_never_chosen():
    policy = RoundRobinAssignment()
    a, _b = submit_all(policy, [make_job(0), make_job(1)])
    a.done = True
    policy.on_done(a)
    assert policy.choose("ws").job_id == 1


def test_max_workers_cap_blocks_assignment():
    policy = RoundRobinAssignment()
    submit_all(policy, [make_job(0, max_workers=2)])
    assert grant(policy, "w1").job_id == 0
    assert grant(policy, "w2").job_id == 0
    assert policy.choose("w3") is None


def test_scanned_counter_tracks_examined_candidates():
    policy = RoundRobinAssignment()
    submit_all(policy, [make_job(0), make_job(1)])
    grant(policy, "w1")
    assert policy.scanned == 1  # first candidate was eligible


# -- least-workers ------------------------------------------------------


def test_least_workers_balances():
    policy = LeastWorkersAssignment()
    a, b = submit_all(policy, [make_job(0), make_job(1)])
    a.participants.update({"w1", "w2", "w3"})
    policy.on_grant(a, "w3")  # re-key after the participant updates
    b.participants.update({"w4"})
    policy.on_grant(b, "w4")
    assert policy.choose("w9").job_id == 1


def test_least_workers_tie_breaks_by_submission_order():
    # Pinned: equal participant counts go to the lower job id.
    policy = LeastWorkersAssignment()
    submit_all(policy, [make_job(0), make_job(1)])
    picks = [grant(policy, f"w{i}").job_id for i in range(3)]
    assert picks == [0, 1, 0]


# -- priority -----------------------------------------------------------


def test_priority_highest_wins():
    policy = PriorityAssignment()
    submit_all(policy, [make_job(0, priority=0), make_job(1, priority=5)])
    assert grant(policy, "w1").job_id == 1


def test_priority_round_robins_within_level():
    # Pinned: within one level, least-recently-granted first (submission
    # order on the first pass); lower levels starve.
    policy = PriorityAssignment()
    submit_all(policy, [make_job(0, priority=3), make_job(1, priority=3),
                        make_job(2, priority=0)])
    picks = [grant(policy, f"w{i}").job_id for i in range(4)]
    assert picks == [0, 1, 0, 1]


def test_priority_falls_through_when_top_level_ineligible():
    policy = PriorityAssignment()
    top, _low = submit_all(
        policy, [make_job(0, priority=9), make_job(1, priority=1)])
    top.participants.add("wsX")
    assert policy.choose("wsX").job_id == 1


def release(policy, record, requester):
    record.participants.discard(requester)
    policy.on_release(record, requester)


def test_priority_capped_job_keeps_its_key_while_parked():
    # A job at its cap leaves the index; a release puts it back under
    # the key of its last grant — not a fresh stamp, and not an older
    # key it was parked with before.
    policy = PriorityAssignment()
    (a,) = submit_all(policy, [make_job(0, max_workers=2)])
    assert grant(policy, "w1") is a and grant(policy, "w2") is a
    assert policy.choose("w3") is None and policy.scanned == 2
    b = make_job(1)
    policy.on_submit(b)                  # stamped after a's last grant
    release(policy, a, "w2")
    assert policy.choose("w3") is a      # re-stamps a: now behind b
    release(policy, a, "w1")
    assert policy.choose("w4") is b


def test_srp_rekeys_a_parked_job_on_release():
    policy = ShortestRemainingAssignment()
    a, b = submit_all(policy, [make_job(0, size_s=10.0, max_workers=1),
                               make_job(1, size_s=20.0)])
    assert grant(policy, "w1") is a
    a.remaining_s = 100.0                # the estimate grew while parked
    release(policy, a, "w1")
    assert policy.choose("w2") is b


# -- shortest remaining parallelism -------------------------------------


def test_srp_prefers_least_remaining_work():
    policy = ShortestRemainingAssignment()
    submit_all(policy, [make_job(0, size_s=100.0), make_job(1, size_s=5.0)])
    assert grant(policy, "w1").job_id == 1


def test_srp_unsized_jobs_sort_last_by_id():
    # Pinned: unsized jobs come after every estimated job, then by id.
    policy = ShortestRemainingAssignment()
    submit_all(policy, [make_job(0), make_job(1, size_s=50.0), make_job(2)])
    assert grant(policy, "w1").job_id == 1
    assert grant(policy, "w2").job_id == 1  # still the only sized job
    assert policy.choose("w1").job_id == 0  # w1 already serves job 1


def test_srp_rekeys_on_release():
    policy = ShortestRemainingAssignment()
    a, _b = submit_all(policy, [make_job(0, size_s=10.0),
                                make_job(1, size_s=20.0)])
    a.remaining_s = 100.0  # the estimate grew (work re-enqueued)
    policy.on_release(a, "wz")
    assert policy.choose("w1").job_id == 1


# -- fair share ---------------------------------------------------------


def test_fair_share_splits_machines_across_owners():
    # Pinned: owner with the fewest grants first (ties on owner name);
    # within one owner, jobs rotate in submission order.
    policy = FairShareAssignment()
    submit_all(policy, [
        make_job(0, owner="alice"), make_job(1, owner="alice"),
        make_job(2, owner="alice"), make_job(3, owner="bob"),
    ])
    picks = [grant(policy, f"w{i}").job_id for i in range(6)]
    assert picks == [0, 3, 1, 3, 2, 3]


def test_fair_share_usage_survives_completion():
    policy = FairShareAssignment()
    (a,) = submit_all(policy, [make_job(0, owner="alice")])
    for i in range(3):
        grant(policy, f"w{i}")
    a.done = True
    policy.on_done(a)
    submit_all(policy, [make_job(1, owner="alice"), make_job(2, owner="bob")])
    # bob (0 grants) beats alice (3 accumulated grants).
    assert grant(policy, "w9").job_id == 2


def test_fair_share_defaults_owner_to_ch_host():
    assert FairShareAssignment.owner_of(make_job(0)) == "submit0"


# -- interrupt sharing / factory ----------------------------------------


def test_interrupt_policy_is_round_robin_with_flag():
    policy = InterruptSharingAssignment()
    assert policy.interrupt_driven
    assert not RoundRobinAssignment().interrupt_driven
    submit_all(policy, [make_job(0), make_job(1)])
    assert [grant(policy, f"w{i}").job_id for i in range(4)] == [0, 1, 0, 1]


def test_make_policy_aliases():
    assert make_policy("rr").name == "round-robin"
    assert make_policy("srp").name == "srp"
    assert make_policy("fair").name == "fair-share"
    assert make_policy("interrupt").name == "interrupt-sharing"
    assert make_policy("least").name == "least-workers"
    assert make_policy("priority").name == "priority"
    with pytest.raises(ValueError):
        make_policy("astrology")


# -- record plumbing ----------------------------------------------------


def test_job_record_ports_distinct_per_job():
    a, b = make_job(0), make_job(1)
    assert set(a.ports()).isdisjoint(set(b.ports()))


def test_descriptor_contents():
    rec = make_job(3)
    d = rec.descriptor()
    assert d["job_id"] == 3
    assert d["ch_host"] == "submit3"
    assert d["program"] is rec.program
    assert d["worker_port"] == rec.ports()[0]
