"""Job-assignment policies for the PhishJobQ.

"Our current implementation of the PhishJobQ uses a non-preemptive
round-robin scheduling algorithm to assign jobs.  Future implementations
of Phish will provide opportunities for using and studying more
sophisticated job assignment algorithms" — this module is that
opportunity.  Policies are *indexed*: the JobQ notifies them of pool
events (submit/grant/release/done) and :meth:`~AssignmentPolicy.choose`
consults an internal structure instead of scanning the pool: one
assignment costs O(log n) even with thousands of queued jobs, and a
keyed policy examines one candidate per grant plus one per job the
requester already holds (``tests/macro/test_scale.py``).

Implemented policies:

* **round-robin** — the paper's algorithm, on a circular list.
* **priority** — strict priority; least-recently-granted within a level.
* **least-workers** — fewest current participants first (space-share).
* **srp** — shortest remaining parallelism: the job closest to done
  (by its remaining-work estimate) gets the next machine, the macro
  analogue of SRPT.
* **fair-share** — owners with the least accumulated grants go first;
  round-robin among one owner's jobs.
* **interrupt** — round-robin order, but flagged ``interrupt_driven``:
  the traffic engine parks idle machines and wakes them the moment the
  pool gains work (the work-sharing discipline of Rokos, Gorman & Kelly)
  instead of letting them poll on a timer.

Determinism contract (pinned by ``tests/macro/test_properties.py``):
every tie on a policy's primary criterion breaks on explicitly ordered
secondary keys ending in the job id, never on incidental list or hash
order, so the same seed always yields the same assignment sequence.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.macro.job import JobRecord
from repro.macro.jobindex import CycleList, LazyMinHeap

#: Remaining-work stand-in for jobs that never declared a size: they
#: sort after every estimated job (SRP serves known-short work first).
_UNSIZED = float("inf")


class AssignmentPolicy:
    """Chooses which pool job to hand an idle workstation.

    The JobQ drives the lifecycle: :meth:`on_submit` when a job enters
    the pool, :meth:`on_grant`/:meth:`on_release` as participation
    changes (these refresh any participation-derived index keys), and
    :meth:`on_done` when it completes.  :meth:`choose` may advance
    policy-internal rotation state (cursor, usage counters): the JobQ
    always grants what ``choose`` returns.

    ``scanned`` counts candidate records examined across all ``choose``
    calls — the regression tests pin it to stay within a small constant
    factor of the grant count, which is what "indexed, not O(n) scans"
    means operationally.
    """

    name = "abstract"
    #: True for policies that want idle machines notified (interrupted)
    #: when the pool gains work, rather than polling on a timer.
    interrupt_driven = False

    def __init__(self) -> None:
        self.scanned = 0
        #: Every pooled (not yet done) job, by id.
        self._records: Dict[int, JobRecord] = {}

    @staticmethod
    def eligible(record: JobRecord, requester: str) -> bool:
        """May *record* be assigned to *requester*?

        Ineligible when done, when the requester already participates
        (a workstation runs at most one worker per job), or when the
        job's ``max_workers`` cap is already met.
        """
        return (
            not record.done
            and requester not in record.participants
            and (record.max_workers is None
                 or len(record.participants) < record.max_workers)
        )

    # -- pool lifecycle ------------------------------------------------

    def on_submit(self, record: JobRecord) -> None:
        raise NotImplementedError

    def on_done(self, record: JobRecord) -> None:
        raise NotImplementedError

    def on_grant(self, record: JobRecord, workstation: str) -> None:
        pass

    def on_release(self, record: JobRecord, workstation: str) -> None:
        pass

    # -- assignment ----------------------------------------------------

    def choose(self, requester: str) -> Optional[JobRecord]:
        """Pick a job for *requester*, or None if nothing is eligible."""
        raise NotImplementedError

    def _next_in(self, ring: CycleList, requester: str) -> Optional[JobRecord]:
        """The first eligible job on *ring*, one revolution from its
        cursor; the cursor moves on to that job's successor."""
        for job_id in ring.from_cursor():
            self.scanned += 1
            record = self._records[job_id]
            if self.eligible(record, requester):
                ring.advance_past(job_id)
                return record
        return None


class RoundRobinAssignment(AssignmentPolicy):
    """The paper's policy: cycle through the pool, one job per request.

    Deterministic ordering: jobs rotate in submission order; after a
    grant the cursor advances to the granted job's successor, so equal
    candidates are served least-recently-first.  New submissions join
    at the tail of the cycle (served after the jobs already waiting).
    """

    name = "round-robin"

    def __init__(self) -> None:
        super().__init__()
        self._ring = CycleList()

    def on_submit(self, record: JobRecord) -> None:
        self._records[record.job_id] = record
        self._ring.append(record.job_id)

    def on_done(self, record: JobRecord) -> None:
        self._ring.remove(record.job_id)
        self._records.pop(record.job_id, None)

    def choose(self, requester: str) -> Optional[JobRecord]:
        return self._next_in(self._ring, requester)


class InterruptSharingAssignment(RoundRobinAssignment):
    """Round-robin order with interrupt-driven work *sharing*.

    Modeled on the interrupt-driven work sharing of Rokos, Gorman &
    Kelly (PAPERS.md): instead of idle machines rediscovering work on a
    retry timer (the paper's 30-second poll), the scheduler interrupts
    parked idle machines the moment a submission or release makes work
    available.  The policy itself only sets the flag: *which* job a
    machine gets is plain round-robin, and the wake-up is the daemon's
    no-job wait (``PhishJobManager._no_job_wait``, which the traffic
    engine's daemon turns into a park on the JobQ's pool-change bell;
    the paper's pull-mode daemon ignores the flag and polls).  The win
    is the removed rediscovery latency, which the traffic sweeps
    measure as job-latency percentiles.
    """

    name = "interrupt-sharing"
    interrupt_driven = True


def _pop_first(heap: LazyMinHeap, take, requester: str) -> Optional[JobRecord]:
    """Pop *heap* best-first until ``take(item, requester)`` yields a
    record; the entries it declined go back under their old keys, so a
    requester's ineligibility never reorders anyone else's view.  The
    caller re-pushes the taken item (under its new key) and compacts."""
    skipped = []
    picked: Optional[JobRecord] = None
    while picked is None:
        entry = heap.pop_min()
        if entry is None:
            break
        key, item = entry
        picked = take(item, requester)
        if picked is None:
            skipped.append((item, key))
    for item, key in skipped:
        heap.push(item, key)
    return picked


class KeyedAssignment(AssignmentPolicy):
    """Best-first on a per-job key: one :class:`LazyMinHeap` of job ids.

    A subclass supplies :meth:`_key` (ending in the job id, so keys are
    totally ordered); jobs are re-keyed at submission, when chosen and,
    if ``rekey``, on every grant/release.  A job at its ``max_workers``
    cap waits out of the heap, key kept, until a release.
    """

    rekey = False

    def __init__(self) -> None:
        super().__init__()
        self._heap = LazyMinHeap()
        self._parked: Dict[int, object] = {}  # capped job id -> its key

    def _key(self, record: JobRecord):
        raise NotImplementedError

    def _place(self, record: JobRecord, key) -> None:
        if record.max_workers is not None and len(record.participants) >= record.max_workers:
            self._parked[record.job_id] = key
        else:
            self._heap.push(record.job_id, key)

    def on_submit(self, record: JobRecord) -> None:
        self._records[record.job_id] = record
        self._place(record, self._key(record))

    def on_done(self, record: JobRecord) -> None:
        self._heap.discard(record.job_id)
        self._parked.pop(record.job_id, None)
        self._records.pop(record.job_id, None)

    def on_grant(self, record: JobRecord, _ws: str = "") -> None:
        key = self._heap.discard(record.job_id)
        if key is not None:
            self._place(record, self._key(record) if self.rekey else key)

    def on_release(self, record: JobRecord, _ws: str = "") -> None:
        key = self._parked.pop(record.job_id, None)
        if self.rekey and record.job_id in self._records:
            key = self._key(record)
        if key is not None:
            self._place(record, key)

    def _take(self, job_id: int, requester: str) -> Optional[JobRecord]:
        self.scanned += 1
        record = self._records[job_id]
        return record if self.eligible(record, requester) else None

    def choose(self, requester: str) -> Optional[JobRecord]:
        picked = _pop_first(self._heap, self._take, requester)
        if picked is not None:
            self._heap.push(picked.job_id, self._key(picked))
        self._heap.compact()
        return picked


class PriorityAssignment(KeyedAssignment):
    """Highest priority wins; least-recently-granted within a level.

    Deterministic ordering, pinned: the key is ``(-priority, serve_seq,
    job_id)`` where ``serve_seq`` is a monotone counter stamped at
    submission and re-stamped on every grant — so equal-priority jobs
    rotate round-robin by last grant, with submission order (and
    finally the job id) breaking residual ties.
    """

    name = "priority"

    def __init__(self) -> None:
        super().__init__()
        self._seq = 0

    def _key(self, record: JobRecord):
        # Every (re-)keying is a fresh stamp: a submitted job joins, and
        # a granted job goes to, the back of its level.
        self._seq += 1
        return (-record.priority, self._seq, record.job_id)


class LeastWorkersAssignment(KeyedAssignment):
    """Send the workstation to the job with the fewest participants.

    Equalises space shares, so a freshly-submitted job catches up fast.
    Deterministic ordering, pinned: ``(participants, job_id)`` — ties
    on participant count break by submission order.
    """

    name = "least-workers"
    rekey = True

    def _key(self, record: JobRecord):
        return (len(record.participants), record.job_id)


class ShortestRemainingAssignment(KeyedAssignment):
    """Shortest remaining parallelism first — macro-level SRPT.

    The job with the least remaining work estimate (``remaining_s``,
    falling back to the static ``size_hint_s``; unsized jobs sort last)
    gets the next idle machine, finishing nearly-done jobs fast and
    keeping mean/percentile job latency low under heavy-tailed sizes.
    Keys refresh on every grant/release of the job; between refreshes
    the ordering uses the last refreshed estimate, which keeps the
    index O(log n) and the decision sequence deterministic.
    Deterministic ordering, pinned: ``(remaining, job_id)``.
    """

    name = "srp"
    rekey = True

    def _key(self, record: JobRecord):
        remaining = record.remaining_s
        if remaining is None:
            remaining = record.size_hint_s
        if remaining is None:
            remaining = _UNSIZED
        return (remaining, record.job_id)


class FairShareAssignment(AssignmentPolicy):
    """Equalise machine grants across job *owners*.

    The owner (submitting user/host) with the fewest accumulated grants
    is served first; within one owner, jobs rotate round-robin in
    submission order.  This is the classic fair-share answer to one
    user flooding the JobQ with a thousand jobs: they get 1/k of the
    machines, not all of them.  Usage survives job completion (history
    matters), but an owner with no queued jobs costs nothing.
    Deterministic ordering, pinned: ``(grants, owner)`` across owners,
    submission-order rotation within an owner.
    """

    name = "fair-share"

    def __init__(self) -> None:
        super().__init__()
        self._usage: Dict[str, int] = {}
        self._owner_heap = LazyMinHeap()
        self._owner_jobs: Dict[str, CycleList] = {}

    @staticmethod
    def owner_of(record: JobRecord) -> str:
        return record.owner if record.owner is not None else record.ch_host

    def on_submit(self, record: JobRecord) -> None:
        owner = self.owner_of(record)
        self._records[record.job_id] = record
        ring = self._owner_jobs.get(owner)
        if ring is None:
            ring = self._owner_jobs[owner] = CycleList()
        ring.append(record.job_id)
        usage = self._usage.setdefault(owner, 0)
        if owner not in self._owner_heap:
            self._owner_heap.push(owner, (usage, owner))

    def on_done(self, record: JobRecord) -> None:
        owner = self.owner_of(record)
        ring = self._owner_jobs.get(owner)
        if ring is not None:
            ring.remove(record.job_id)
            if not ring:
                del self._owner_jobs[owner]
                self._owner_heap.discard(owner)
        self._records.pop(record.job_id, None)

    def _take(self, owner: str, requester: str) -> Optional[JobRecord]:
        # An owner is in the heap exactly while it has a ring of jobs.
        return self._next_in(self._owner_jobs[owner], requester)

    def choose(self, requester: str) -> Optional[JobRecord]:
        picked = _pop_first(self._owner_heap, self._take, requester)
        if picked is not None:
            owner = self.owner_of(picked)
            self._usage[owner] += 1
            self._owner_heap.push(owner, (self._usage[owner], owner))
        self._owner_heap.compact()
        return picked


#: Name -> factory for every assignment policy (the traffic sweeps and
#: CLI select by these keys; short aliases for the common ones).
POLICY_FACTORIES = {
    "rr": RoundRobinAssignment,
    "round-robin": RoundRobinAssignment,
    "priority": PriorityAssignment,
    "least": LeastWorkersAssignment,
    "least-workers": LeastWorkersAssignment,
    "srp": ShortestRemainingAssignment,
    "fair": FairShareAssignment,
    "fair-share": FairShareAssignment,
    "interrupt": InterruptSharingAssignment,
    "interrupt-sharing": InterruptSharingAssignment,
}


def make_policy(name: str) -> AssignmentPolicy:
    """Build a fresh policy instance by (alias) name."""
    try:
        factory = POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown assignment policy {name!r}; "
            f"known: {sorted(set(POLICY_FACTORIES))}"
        ) from None
    return factory()
