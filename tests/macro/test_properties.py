"""Property tests for the macro layer: determinism and conservation.

A seeded random driver churns a real PhishJobQ (handlers called
directly — no simulated network, so hundreds of runs stay cheap)
through submit / request / release / done sequences, and checks:

* **Determinism** — the same seed yields the same grant log under
  every policy, twice over and across policy-internal index states.
* **Conservation** — every submitted job is always either active or
  done; a job completes exactly once; a workstation never holds two
  concurrent grants of the same job; ``max_workers`` is never exceeded.
* **Preempt/release round trip** — ``check_preempt`` fires exactly
  when a strictly-higher-priority job the workstation is not part of
  exists, and release always re-enables assignment.
* **Keyed choice == brute force** — priority, least-workers and srp
  (with jobs at their ``max_workers`` cap parked out of the index) pick
  exactly the minimum-key eligible job a linear reference picks, and
  examine one candidate per pick plus one per job the requester holds.

These pin the determinism contract documented in
:mod:`repro.macro.policies`.  One property runs the whole traffic engine
(daemons, RPC, carried notices) and watches the same conservation laws
from the JobQ's side.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.platform import SPARCSTATION_1
from repro.macro.job import JobRecord
from repro.macro.jobq import PhishJobQ
from repro.macro.policies import POLICY_FACTORIES, make_policy
from repro.macro.traffic import ARRIVAL_FACTORIES, TrafficConfig, TrafficSystem
from repro.net.network import Network
from repro.net.topology import UniformTopology
from repro.obs.metrics import MetricsRegistry
from repro.sim.core import Simulator
from repro.tasks.program import JobProgram, ThreadProgram

#: Every distinct policy implementation, one alias each.
POLICIES = ("rr", "priority", "least", "srp", "fair", "interrupt")

#: The seed budget CI pays for the determinism/conservation sweep.
N_SEEDS = 60

WORKSTATIONS = [f"ws{i:02d}" for i in range(6)]


def make_program(name="job"):
    prog = ThreadProgram(name)

    @prog.thread
    def root(frame, k):
        frame.send(k, None)

    return JobProgram(prog, root)


def make_jobq(policy_name):
    sim = Simulator()
    network = Network(sim, UniformTopology(SPARCSTATION_1.net),
                      rng=random.Random(0))
    return PhishJobQ(sim, network, "qhost", make_policy(policy_name))


class ChurnInvariantError(AssertionError):
    pass


def churn(policy_name, seed, n_ops=150):
    """Drive a JobQ through a seeded op mix, checking invariants.

    Returns the grant log — the sequence of (op, detail) tuples that
    fully determines scheduling behaviour — for determinism pins.
    """
    rng = random.Random(seed)
    jobq = make_jobq(policy_name)
    program = make_program()
    log = []
    #: Our own mirror of who currently holds each job (the invariant
    #: oracle — independent of the JobQ's bookkeeping).
    holding = {}
    active = set()
    done = set()
    submitted = 0
    for _ in range(n_ops):
        op = rng.random()
        if op < 0.35 or not active:
            priority = rng.choice((0, 0, 0, 1, 5))
            owner = f"user{rng.randrange(3)}"
            size = rng.choice((None, 5.0, 50.0, 500.0))
            cap = rng.choice((None, 1, 2, 4))
            record = jobq.submit_record(
                program, rng.choice(WORKSTATIONS), priority=priority,
                owner=owner, size_hint_s=size, max_workers=cap,
                register_first_worker=False,
            )
            submitted += 1
            active.add(record.job_id)
            holding[record.job_id] = set()
            log.append(("submit", record.job_id, priority, owner, size, cap))
        elif op < 0.75:
            ws = rng.choice(WORKSTATIONS)
            desc = jobq._rpc_request_job(ws, None)
            granted = desc["job_id"] if desc else None
            log.append(("request", ws, granted))
            if desc is not None:
                rec = jobq.jobs[granted]
                if granted in done:
                    raise ChurnInvariantError("granted a completed job")
                if ws in holding[granted]:
                    raise ChurnInvariantError(
                        f"double-granted {granted} to {ws}")
                holding[granted].add(ws)
                if (rec.max_workers is not None
                        and len(holding[granted]) > rec.max_workers):
                    raise ChurnInvariantError(
                        f"job {granted} exceeded max_workers")
        elif op < 0.9:
            held = [(j, ws) for j, wss in holding.items()
                    for ws in wss if j in active]
            if not held:
                continue
            job_id, ws = rng.choice(held)
            jobq._rpc_release({"job_id": job_id, "workstation": ws}, None)
            holding[job_id].discard(ws)
            log.append(("release", job_id, ws))
        else:
            job_id = rng.choice(sorted(active))
            jobq._rpc_job_done(job_id, None)
            active.discard(job_id)
            done.add(job_id)
            log.append(("done", job_id))
        # Conservation, checked after every op: submitted jobs are
        # exactly the active pool plus the completed set.
        if len(jobq.jobs) != submitted:
            raise ChurnInvariantError("job record lost or duplicated")
        pool_ids = {r.job_id for r in jobq.pool}
        if pool_ids != active:
            raise ChurnInvariantError(
                f"pool {pool_ids} != expected active {active}")
        if {j for j, r in jobq.jobs.items() if r.done} != done:
            raise ChurnInvariantError("done set mismatch")
    return log


@pytest.mark.parametrize("policy_name", POLICIES)
def test_churn_deterministic_and_conserving_across_seeds(policy_name):
    """The same seed replays the same grant log, with every invariant
    holding along the way — over N_SEEDS random op sequences."""
    for seed in range(N_SEEDS):
        first = churn(policy_name, seed)
        second = churn(policy_name, seed)
        assert first == second, (
            f"policy {policy_name!r} diverged at seed {seed}")


@pytest.mark.parametrize("policy_name", POLICIES)
def test_seeds_actually_vary_the_schedule(policy_name):
    logs = {tuple(churn(policy_name, seed, n_ops=60)) for seed in range(5)}
    assert len(logs) > 1  # the driver is not degenerate


def test_done_exactly_once_enforced():
    jobq = make_jobq("rr")
    record = jobq.submit_record(make_program(), "ws00",
                                register_first_worker=False)
    done_calls = []
    jobq.policy.on_done = done_calls.append
    assert jobq._rpc_job_done(record.job_id, None) is True
    jobq.sim.run(until=5.0)
    # A repeat (a notice re-sent after its reply was lost) changes nothing.
    assert jobq._rpc_job_done(record.job_id, None) is True
    assert done_calls == [record] and record.finished_at == 0.0
    with pytest.raises(Exception):
        jobq._rpc_job_done(record.job_id + 1, None)


def test_release_by_non_participant_is_a_noop():
    jobq = make_jobq("rr")
    record = jobq.submit_record(make_program(), "ws00",
                                register_first_worker=False)
    jobq._rpc_request_job("ws01", None)
    jobq._rpc_release({"job_id": record.job_id, "workstation": "ws05"}, None)
    assert record.participants == {"ws01"}


def test_grant_release_round_trip_restores_assignability():
    """Release puts the (workstation, job) pair back exactly where it
    was: the workstation can be granted the same job again, under every
    policy."""
    for policy_name in POLICIES:
        jobq = make_jobq(policy_name)
        record = jobq.submit_record(
            make_program(), "ws00", size_hint_s=50.0,
            register_first_worker=False)
        for _ in range(3):
            desc = jobq._rpc_request_job("ws01", None)
            assert desc is not None and desc["job_id"] == record.job_id, \
                policy_name
            assert jobq._rpc_request_job("ws01", None) is None, policy_name
            jobq._rpc_release(
                {"job_id": record.job_id, "workstation": "ws01"}, None)
            assert "ws01" not in record.participants


def test_check_preempt_fires_iff_strictly_higher_priority_elsewhere():
    jobq = make_jobq("priority")
    low = jobq.submit_record(make_program(), "h", priority=1,
                             register_first_worker=False)
    jobq._rpc_request_job("ws01", None)  # ws01 now runs `low`
    args = {"job_id": low.job_id, "workstation": "ws01"}
    assert jobq._rpc_check_preempt(args, None) is False  # nothing higher
    same = jobq.submit_record(make_program(), "h", priority=1,
                              register_first_worker=False)
    assert jobq._rpc_check_preempt(args, None) is False  # equal: no preempt
    high = jobq.submit_record(make_program(), "h", priority=5,
                              register_first_worker=False)
    assert jobq._rpc_check_preempt(args, None) is True
    # A high-priority job ws01 already participates in does not preempt.
    jobq._rpc_job_done(same.job_id, None)
    high.participants.add("ws01")
    assert jobq._rpc_check_preempt(args, None) is False
    high.participants.discard("ws01")
    jobq._rpc_job_done(high.job_id, None)
    assert jobq._rpc_check_preempt(args, None) is False


def test_preempt_release_round_trip_hands_machine_to_higher_priority():
    """The full loop: preempt signal -> release -> re-request lands on
    the higher-priority job."""
    jobq = make_jobq("priority")
    low = jobq.submit_record(make_program(), "h", priority=0,
                             register_first_worker=False)
    assert jobq._rpc_request_job("ws01", None)["job_id"] == low.job_id
    high = jobq.submit_record(make_program(), "h", priority=9,
                              register_first_worker=False)
    args = {"job_id": low.job_id, "workstation": "ws01"}
    assert jobq._rpc_check_preempt(args, None) is True
    jobq._rpc_release({"job_id": low.job_id, "workstation": "ws01"}, None)
    assert jobq._rpc_request_job("ws01", None)["job_id"] == high.job_id


def test_every_policy_alias_is_exercised():
    assert set(POLICIES) <= set(POLICY_FACTORIES)
    names = {make_policy(alias).name for alias in POLICIES}
    assert len(names) == len(POLICIES)  # each alias hits a distinct policy


# -- keyed policies against a brute-force reference -------------------

#: One pool operation ``(kind, n, priority, size, cap)``: *n* picks the
#: requester, the first participant of a submission (``n % 5 == 4``:
#: none), the held pair to release, or the job to finish or serve.
#: Grants outnumber completions so jobs fill to their caps.
POOL_OPS = st.lists(st.tuples(
    st.sampled_from(("submit", "submit", "grant", "grant", "grant", "choose",
                     "release", "release", "done", "progress")),
    st.integers(0, 63), st.sampled_from((0, 1, 5)),
    st.sampled_from((None, 5.0, 50.0, 500.0)), st.sampled_from((None, 1, 2, 4))),
    min_size=20, max_size=80)


class _ReferenceKeys:
    """The keyed policies written as a linear scan: each pooled job's
    key as of its last re-keying, and a choice is the minimum key among
    the jobs eligible for the requester — no index, nothing parked."""

    def __init__(self, policy_name):
        self.policy_name = policy_name
        self.stamp = 0
        self.keys = {}

    def rekey(self, record):
        if self.policy_name == "priority":
            self.stamp += 1
            key = (-record.priority, self.stamp)
        elif self.policy_name == "least":
            key = (len(record.participants),)
        else:
            remaining = record.remaining_s
            key = (float("inf") if remaining is None else remaining,)
        self.keys[record.job_id] = (*key, record.job_id)

    def choose(self, records, ws):
        eligible = [r for r in records.values()
                    if ws not in r.participants
                    and (r.max_workers is None or len(r.participants) < r.max_workers)]
        return min(eligible, key=lambda r: self.keys[r.job_id], default=None)


@given(policy_name=st.sampled_from(("priority", "least", "srp")), ops=POOL_OPS)
@settings(max_examples=600, deadline=None)
def test_keyed_policies_choose_the_minimum_key_eligible_job(policy_name, ops):
    policy = make_policy(policy_name)
    ref = _ReferenceKeys(policy_name)
    program = make_program()
    records = {}          # pooled (not done) jobs, by id
    next_id = 0
    for kind, n, priority, size, cap in ops:
        ws = WORKSTATIONS[n % 4]
        if kind == "submit":
            record = JobRecord(job_id=next_id, program=program, ch_host="h",
                               priority=priority, size_hint_s=size,
                               remaining_s=size, max_workers=cap)
            if n % 5 != 4:
                record.participants.add(ws)
            next_id += 1
            records[record.job_id] = record
            policy.on_submit(record)
            ref.rekey(record)
        elif kind in ("choose", "grant"):
            expected = ref.choose(records, ws)
            held = sum(ws in r.participants for r in records.values())
            before = policy.scanned
            picked = policy.choose(ws)
            assert picked is expected, (kind, ws, picked, expected)
            assert policy.scanned - before <= (picked is not None) + held
            if picked is not None:
                ref.rekey(picked)
                if kind == "grant":
                    picked.participants.add(ws)
                    policy.on_grant(picked, ws)
                    if policy_name != "priority":
                        ref.rekey(picked)
        elif kind == "release":
            pairs = sorted((r.job_id, w) for r in records.values()
                           for w in r.participants)
            if pairs:
                job_id, w = pairs[n % len(pairs)]
                records[job_id].participants.discard(w)
                policy.on_release(records[job_id], w)
                if policy_name != "priority":
                    ref.rekey(records[job_id])
        elif records:
            record = records[sorted(records)[n % len(records)]]
            if kind == "done":
                record.done = True
                policy.on_done(record)
                del records[record.job_id]
            elif record.remaining_s is not None:
                record.remaining_s = max(0.0, record.remaining_s - n)


class _JobQWatch(MetricsRegistry):
    """The registry a TrafficSystem subscribes to its JobQ's probe, taking
    the ``jobq.grant`` / ``jobq.done`` kinds along: *on_grant(machine)*
    runs inside every grant, each completion is counted by job id."""

    def __init__(self, on_grant):
        super().__init__()
        self.on_grant = on_grant
        self.done = Counter()

    def subscribe(self, probe):
        super().subscribe(probe)
        probe.subscribe({
            "jobq.grant": lambda t, kind, source, detail: self.on_grant(detail["to"]),
            "jobq.done": lambda t, kind, source, detail: self.done.update([detail["id"]]),
        })


@given(policy=st.sampled_from(POLICIES),
       arrival=st.sampled_from(sorted(ARRIVAL_FACTORIES)),
       owners=st.sampled_from(("idle", "workday")),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_traffic_conserves_jobs_slots_and_machines(policy, arrival, owners, seed):
    """Every job completes exactly once, no job is ever granted past its
    ``max_workers``, and a machine is never a participant of two
    unfinished jobs at once — what it owed for the last one (a carried
    ``release`` / ``job_done``) has always run before its next grant."""
    config = TrafficConfig(
        n_workstations=4, n_jobs=15, policy=policy, arrival=arrival,
        owners=owners, seed=seed, sizes="exponential", size_mean_s=5.0,
        rate_per_s=0.8, max_workers_per_job=2,
        owner_busy_mean_s=30.0, owner_idle_mean_s=90.0)

    violations = []

    def on_grant(machine):   # inside an RPC handler: record, don't raise
        pool = system.jobq.pool
        holds = [rec.job_id for rec in pool if machine in rec.participants]
        wide = [rec.job_id for rec in pool
                if len(rec.participants) > config.max_workers_per_job]
        if len(holds) != 1 or wide:
            violations.append((system.sim.now, machine, holds, wide))

    watch = _JobQWatch(on_grant)
    system = TrafficSystem(config, metrics=watch)
    try:
        report = system.run()
    finally:
        system.stop()
    assert violations == []
    assert report.n_completed == config.n_jobs
    assert watch.done == Counter(range(config.n_jobs))
    assert all(rec.done for rec in system.jobq.jobs.values())
