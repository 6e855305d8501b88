"""Global invariant checking over traced executions.

The paper's correctness story — "enough redundant state is maintained so
that lost work can be redone" — rests on a handful of global invariants
that no single unit test pins down.  This module verifies them after a
run, from the :class:`~repro.util.trace.TraceLog` the instrumented
scheduler emitted plus the workers' final state:

* **conservation** — every closure ever created is executed at most
  once, and ends up either executed, explicitly lost to a crash (and
  then covered by the victims' redo obligation), or abandoned only after
  the job's result was already delivered;
* **join-counter** — a suspended closure's join counter decreases by
  exactly one per fill, never goes negative, and the closure runs only
  once every slot is filled;
* **causality** — no steal grant or steal success precedes its request,
  and no datagram is delivered to a crashed (dead) worker;
* **migration** — every closure a departing worker evacuated arrives at
  the acknowledging peer;
* **retirement** — a worker retires only with an empty ready list, no
  suspended closures, and at least the configured number of consecutive
  failed steals;
* **liveness** — the job actually delivered its result within the
  simulation horizon.

When the trace was capacity-bounded and events were evicted
(``trace.dropped > 0``), history-dependent invariants are skipped with a
warning instead of reporting false violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import InvariantViolation
from repro.tasks.closure import ClosureId
from repro.util.trace import TraceLog

#: Names of the invariants this module can check, in report order.
ALL_INVARIANTS = (
    "liveness",
    "conservation",
    "join-counter",
    "causality",
    "migration",
    "retirement",
    "deque-audit",
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach with enough evidence to debug it."""

    invariant: str
    message: str
    time: float = 0.0
    evidence: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.evidence.items()))
        where = f" at t={self.time:.6f}" if self.time else ""
        return f"[{self.invariant}]{where} {self.message}" + (f" ({extras})" if extras else "")


@dataclass
class InvariantReport:
    """The outcome of one :func:`check_invariants` pass."""

    violations: List[Violation] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    checked: Tuple[str, ...] = ALL_INVARIANTS

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_invariant(self, name: str) -> List[Violation]:
        return [v for v in self.violations if v.invariant == name]

    def summary(self, limit: int = 10) -> str:
        """Human-readable digest (at most *limit* violations spelled out)."""
        if self.ok:
            lines = [f"OK — {len(self.checked)} invariants checked"]
        else:
            lines = [f"{len(self.violations)} violation(s):"]
            lines += [f"  {v}" for v in self.violations[:limit]]
            if len(self.violations) > limit:
                lines.append(f"  ... and {len(self.violations) - limit} more")
        lines += [f"  warning: {w}" for w in self.warnings]
        return "\n".join(lines)

    def require_ok(self) -> "InvariantReport":
        """Raise :class:`InvariantViolation` unless the run was clean."""
        if not self.ok:
            raise InvariantViolation(self.summary())
        return self


class DequeAuditor:
    """Online ready-list audit, fed by :attr:`ReadyDeque.observer` (its
    push/pop methods call it; the inherited ``deque`` methods do not).

    Maintains the set of closure ids currently inside each worker's
    ready list and records an error the moment a closure is popped that
    was never pushed, or pushed while already present — corruption the
    post-hoc trace pass could only localise approximately.
    """

    def __init__(self) -> None:
        self._present: Dict[str, Set[ClosureId]] = {}
        self.errors: List[str] = []

    def attach(self, worker) -> None:
        """Install this auditor on *worker*'s ready deque."""
        name = worker.name
        present = self._present.setdefault(name, set())
        for closure in worker.deque.peek_all():  # pre-existing (restored) items
            present.add(closure.cid)

        def observe(op: str, closure) -> None:
            cid = closure.cid
            if op in ("push", "extend"):
                if cid in present:
                    self.errors.append(f"{name}: closure {cid} pushed while already queued")
                else:
                    present.add(cid)
            else:  # pop_exec / pop_steal / drain
                if cid not in present:
                    self.errors.append(f"{name}: closure {cid} popped but never pushed")
                else:
                    present.discard(cid)

        worker.deque.observer = observe

    def verify(self, workers: Iterable) -> None:
        """Mid-run consistency probe (called between the sim-time slices
        :func:`~repro.check.harness.run_checked` runs the job in)."""
        for w in workers:
            if w.workstation.crashed:
                # A fail-stopped worker's tables are dead state: the
                # closure objects it froze may be shared with (and
                # mutated by) their re-homed live copies.
                continue
            tracked = self._present.get(w.name)
            if tracked is not None and len(tracked) != len(w.deque):
                self.errors.append(
                    f"{w.name}: deque holds {len(w.deque)} closures but the "
                    f"audit set tracks {len(tracked)}"
                )
            if w.departed:
                # Until its migration is acked (then the table clears), a
                # departing worker's suspended closures are in flight:
                # the adopter holds the same objects and may fill them.
                continue
            for closure in w.suspended.values():
                if closure.join_counter == 0:
                    self.errors.append(
                        f"{w.name}: ready closure {closure.cid} still parked "
                        f"in the suspended table"
                    )


# ---------------------------------------------------------------------------
# Trace indexing
# ---------------------------------------------------------------------------


class _TraceIndex:
    """One linear pass over the trace, bucketed for the checkers."""

    def __init__(self, trace: TraceLog) -> None:
        self.created: Dict[ClosureId, float] = {}
        self.executed: Dict[ClosureId, List[float]] = {}
        self.suspend_missing: Dict[ClosureId, int] = {}
        self.fills: Dict[ClosureId, List[Tuple[int, float, int, int]]] = {}
        self.lost: Dict[ClosureId, str] = {}
        self.requests: Dict[Tuple[str, int], Tuple[int, float, str]] = {}
        self.grants: List[Tuple[int, float, str, str, ClosureId, int]] = []
        self.successes: List[Tuple[int, float, str, str, ClosureId, int]] = []
        self.redo_pairs: Dict[Tuple[str, str], Set[ClosureId]] = {}
        #: Identities retired by a migration failover re-key: the old
        #: cid may still execute once at a stale adopter, or never
        #: surface again at all — either way its copy carries the work.
        self.superseded: Set[ClosureId] = set()
        self.migrate_out: List[Tuple[int, float, str, str, List[ClosureId]]] = []
        self.migrated_in: Set[Tuple[str, ClosureId]] = set()
        #: Full exit history per worker: a retired worker may rejoin when
        #: migrated work re-recruits it, then exit again later.
        self.exits: Dict[str, List[Tuple[int, float, str, Dict[str, Any]]]] = {}
        self.deaths: List[Tuple[int, float, str]] = []
        self.dead_deliveries: List[Tuple[float, str]] = []
        self.result_time: Optional[float] = None

        # Ports of crashed workers, keyed by host.  A host outlives its
        # worker (reclaim-failstop, or the Clearinghouse sharing ws00),
        # so only deliveries to the dead worker's *own* port are
        # causality violations.  None means the exit recorded no port
        # (hand-built traces): match any delivery to that host.
        crashed_ports: Dict[str, Set[Optional[int]]] = {}
        # The per-task and per-steal kinds are read by position, in their
        # ``TRACED`` field order: ``ev.detail`` would build a dict each.
        for order, ev in enumerate(trace):
            kind = ev.kind
            if kind == "closure.new":
                self.created[ev.payload] = ev.time
            elif kind == "closure.exec":
                self.executed.setdefault(ev.payload[0], []).append(ev.time)
            elif kind == "closure.suspend":
                cid, missing = ev.payload
                self.suspend_missing[cid] = missing
            elif kind == "join.fill":
                cid, slot, remaining = ev.payload
                self.fills.setdefault(cid, []).append((order, ev.time, slot, remaining))
            elif kind == "closure.lost":
                for cid in (detail := ev.detail)["cids"]:
                    self.lost.setdefault(cid, detail.get("reason", "lost"))
            elif kind == "closure.drop":
                self.lost.setdefault(ev.detail["cid"], ev.detail.get("reason", "drop"))
            elif kind == "steal.request":
                self.requests[(ev.source, ev.detail["req"])] = (
                    order, ev.time, ev.detail["victim"]
                )
            elif kind == "steal.grant":
                self.grants.append((order, ev.time, ev.source, *ev.payload))
            elif kind == "steal.success":
                self.successes.append((order, ev.time, ev.source, *ev.payload))
            elif kind == "redo":
                bucket = self.redo_pairs.setdefault((ev.source, ev.detail["dead"]), set())
                for orig, _copy in ev.detail.get("pairs", ()):
                    bucket.add(orig)
            elif kind == "steal.reclaim":
                # A grant reclaimed for lack of a GRANT_ACK discharges
                # the victim's redo obligation for those closures exactly
                # as a death redo would (the thief may die later without
                # the cids reappearing in a "redo" event).
                bucket = self.redo_pairs.setdefault((ev.source, ev.detail["thief"]), set())
                for orig, _copy in ev.detail.get("pairs", ()):
                    bucket.add(orig)
            elif kind == "migrate.reoffer":
                for orig, _copy in ev.detail.get("pairs", ()):
                    self.superseded.add(orig)
            elif kind == "migrate.out":
                self.migrate_out.append(
                    (order, ev.time, ev.source, ev.detail["target"],
                     list(ev.detail.get("cids", ())))
                )
            elif kind == "migrate.in":
                for cid in ev.detail.get("cids", ()):
                    self.migrated_in.add((ev.source, cid))
            elif kind.startswith("worker.exit."):
                reason = kind[len("worker.exit."):]
                self.exits.setdefault(ev.source, []).append(
                    (order, ev.time, reason, dict(ev.detail))
                )
                if reason == "crashed":
                    crashed_ports.setdefault(ev.source, set()).add(
                        ev.detail.get("port")
                    )
            elif kind == "ch.worker_died":
                self.deaths.append((order, ev.time, ev.detail["worker"]))
            elif kind in ("net.recv", "net.loopback"):
                dead = crashed_ports.get(ev.source)
                if dead is not None:
                    port = ev.detail.get("port")
                    if port is None or None in dead or port in dead:
                        self.dead_deliveries.append((ev.time, ev.source))
            elif kind == "ch.result":
                self.result_time = ev.time


# ---------------------------------------------------------------------------
# Individual checkers
# ---------------------------------------------------------------------------


def _check_conservation(
    idx: _TraceIndex, leftovers: Set[ClosureId], completed: bool
) -> List[Violation]:
    out: List[Violation] = []
    for cid, times in idx.executed.items():
        if len(times) > 1:
            out.append(Violation(
                "conservation",
                f"closure {cid} executed {len(times)} times",
                time=times[1], evidence={"cid": cid, "times": times},
            ))
    for cid, born in idx.created.items():
        if (cid in idx.executed or cid in idx.lost or cid in leftovers
                or cid in idx.superseded):
            continue
        out.append(Violation(
            "conservation",
            f"closure {cid} was created but neither executed, lost to a "
            f"crash, nor left over at termination",
            time=born, evidence={"cid": cid},
        ))
    # Redo obligation: when a worker is declared dead, every closure a
    # victim had granted it must be re-created — including by victims
    # that departed gracefully (their net loop lingers to discharge the
    # obligation).  Only a victim that itself fail-stopped is exempt:
    # its outstanding table died with it, which is the double-failure
    # case outside the paper's single-failure model.
    for death_order, death_time, dead in idx.deaths:
        for _order, _t, victim, thief, cid, _req in idx.grants:
            if thief != dead:
                continue
            vexits = idx.exits.get(victim)
            if vexits and vexits[-1][2] in ("crashed", "stopped"):
                continue  # victim's redundant state died with it
            if cid not in idx.redo_pairs.get((victim, dead), ()):
                out.append(Violation(
                    "conservation",
                    f"worker {dead} died holding stolen closure {cid} but "
                    f"victim {victim} never redid it",
                    time=death_time,
                    evidence={"cid": cid, "victim": victim, "dead": dead},
                ))
    return out


def _check_join_counters(idx: _TraceIndex) -> List[Violation]:
    out: List[Violation] = []
    for cid, fills in idx.fills.items():
        missing = idx.suspend_missing.get(cid)
        if missing is None:
            out.append(Violation(
                "join-counter",
                f"closure {cid} had an argument slot filled but was never suspended",
                time=fills[0][1], evidence={"cid": cid},
            ))
            continue
        if len(fills) > missing:
            out.append(Violation(
                "join-counter",
                f"closure {cid} received {len(fills)} fills for {missing} "
                f"missing slots (counter went negative)",
                time=fills[-1][1], evidence={"cid": cid, "missing": missing},
            ))
            continue
        for i, (_order, t, slot, remaining) in enumerate(fills):
            if remaining != missing - i - 1:
                out.append(Violation(
                    "join-counter",
                    f"closure {cid} join counter jumped to {remaining} on "
                    f"fill #{i + 1} of {missing} (expected {missing - i - 1})",
                    time=t, evidence={"cid": cid, "slot": slot},
                ))
                break
        slots = [slot for _o, _t, slot, _r in fills]
        if len(set(slots)) != len(slots):
            out.append(Violation(
                "join-counter",
                f"closure {cid} had the same slot filled twice without "
                f"being flagged as a duplicate",
                time=fills[-1][1], evidence={"cid": cid, "slots": slots},
            ))
    for cid, missing in idx.suspend_missing.items():
        if cid not in idx.executed:
            continue
        fills = idx.fills.get(cid, [])
        exec_time = idx.executed[cid][0]
        if len(fills) != missing:
            out.append(Violation(
                "join-counter",
                f"closure {cid} executed with {missing - len(fills)} of "
                f"{missing} argument slots still unfilled",
                time=exec_time, evidence={"cid": cid},
            ))
        elif fills and fills[-1][3] != 0:
            out.append(Violation(
                "join-counter",
                f"closure {cid} executed but its last fill left the join "
                f"counter at {fills[-1][3]}, not zero",
                time=exec_time, evidence={"cid": cid},
            ))
    return out


def _check_causality(idx: _TraceIndex) -> List[Violation]:
    out: List[Violation] = []
    for order, t, victim, thief, cid, req in idx.grants:
        request = idx.requests.get((thief, req))
        if request is None or request[0] > order:
            out.append(Violation(
                "causality",
                f"steal grant from {victim} to {thief} (req {req}) has no "
                f"preceding steal request",
                time=t, evidence={"cid": cid, "thief": thief, "req": req},
            ))
        elif request[2] != victim:
            out.append(Violation(
                "causality",
                f"steal request {req} of {thief} targeted {request[2]} but "
                f"was granted by {victim}",
                time=t, evidence={"cid": cid, "req": req},
            ))
    granted = {(victim, thief, req) for _o, _t, victim, thief, _cid, req in idx.grants}
    for order, t, thief, victim, cid, req in idx.successes:
        request = idx.requests.get((thief, req))
        if request is None or request[0] > order or request[1] > t:
            out.append(Violation(
                "causality",
                f"steal success at {thief} (req {req}) precedes or lacks its request",
                time=t, evidence={"cid": cid, "req": req},
            ))
        if (victim, thief, req) not in granted:
            out.append(Violation(
                "causality",
                f"steal success at {thief} (req {req}) was never granted by {victim}",
                time=t, evidence={"cid": cid, "req": req},
            ))
    for t, host in idx.dead_deliveries:
        out.append(Violation(
            "causality",
            f"datagram delivered to {host} after its worker crashed",
            time=t, evidence={"host": host},
        ))
    return out


def _check_migration(idx: _TraceIndex) -> List[Violation]:
    out: List[Violation] = []
    for _order, t, src, target, cids in idx.migrate_out:
        for cid in cids:
            if (target, cid) not in idx.migrated_in:
                out.append(Violation(
                    "migration",
                    f"closure {cid} evacuated by {src} never arrived at the "
                    f"acknowledging peer {target}",
                    time=t, evidence={"cid": cid, "src": src, "target": target},
                ))
    return out


def _check_retirement(idx: _TraceIndex) -> List[Violation]:
    out: List[Violation] = []
    retirements = [
        (worker, t, detail)
        for worker, history in idx.exits.items()
        for _order, t, reason, detail in history
        if reason == "retired"
    ]
    for worker, t, detail in retirements:
        if detail.get("deque", 0) or detail.get("susp", 0):
            out.append(Violation(
                "retirement",
                f"{worker} retired holding {detail.get('deque', 0)} ready and "
                f"{detail.get('susp', 0)} suspended closures",
                time=t, evidence={"worker": worker},
            ))
        threshold = detail.get("threshold")
        if threshold is None:
            out.append(Violation(
                "retirement",
                f"{worker} retired although retirement was disabled "
                f"(no failed-steal threshold configured)",
                time=t, evidence={"worker": worker},
            ))
        elif detail.get("failed", 0) < threshold:
            out.append(Violation(
                "retirement",
                f"{worker} retired after only {detail.get('failed', 0)} "
                f"consecutive failed steals (threshold {threshold})",
                time=t, evidence={"worker": worker},
            ))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def collect_leftovers(workers: Sequence) -> Set[ClosureId]:
    """Closure ids still resident on workers after the run.

    Abandoned-but-accounted work: ready or suspended closures that were
    legitimately still queued when the job's result arrived (e.g. a
    crash-redo copy of a task whose original had already completed).
    """
    leftovers: Set[ClosureId] = set()
    for w in workers:
        leftovers.update(c.cid for c in w.deque.peek_all())
        leftovers.update(w.suspended)
    return leftovers


def check_invariants(
    trace: TraceLog,
    workers: Sequence = (),
    completed: bool = True,
    auditor: Optional[DequeAuditor] = None,
    result_ok: Optional[bool] = None,
) -> InvariantReport:
    """Verify the full invariant catalog against a finished run.

    Args:
        trace: the run's event log (must include the scheduler's
            ``closure.*`` / ``steal.*`` / ``join.*`` hook events).
        workers: the run's Worker objects, for final-state accounting.
        completed: whether the job delivered its result in time.
        auditor: the online :class:`DequeAuditor`, if one was attached.
        result_ok: optional outcome of comparing the job's result with
            an oracle (None: no oracle available).
    """
    report = InvariantReport()
    if not completed:
        report.violations.append(Violation(
            "liveness", "job did not deliver its result within the horizon"
        ))
    if result_ok is False:
        report.violations.append(Violation(
            "liveness", "job completed with a wrong result"
        ))
    if auditor is not None:
        if workers:
            auditor.verify(workers)
        # The periodic monitor can observe the same persistent corruption
        # many times; collapse repeats while preserving first-seen order.
        report.violations.extend(
            Violation("deque-audit", msg) for msg in dict.fromkeys(auditor.errors)
        )
    if trace.truncated:
        # Show what *was* kept, so a truncation report is actionable:
        # the kind mix tells the user which categories to filter on (or
        # how much to raise the capacity) to get a complete history.
        kept = ", ".join(f"{kind}={n}" for kind, n in trace.kinds())
        report.warnings.append(
            f"trace truncated ({trace.dropped} events evicted by the "
            f"capacity bound, {len(trace)} kept): history-dependent "
            f"invariants skipped; kept kinds: {kept}"
        )
        report.checked = ("liveness", "retirement", "deque-audit")
        idx = _TraceIndex(trace)
        report.violations.extend(_check_retirement(idx))
        return report

    idx = _TraceIndex(trace)
    leftovers = collect_leftovers(workers)
    report.violations.extend(_check_conservation(idx, leftovers, completed))
    report.violations.extend(_check_join_counters(idx))
    report.violations.extend(_check_causality(idx))
    report.violations.extend(_check_migration(idx))
    report.violations.extend(_check_retirement(idx))
    return report
