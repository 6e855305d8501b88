"""Online health diagnosis: streaming anomaly detectors over the obs seams.

The paper's scheduler degrades *silently* — a steal storm, a
partition-stalled reclaim, or a false death shows up only as a worse
makespan, and the fuzzer finds such holes post-hoc by shrinking seeds.
This module watches the run while it is in flight: a
:class:`HealthMonitor` subscribes to the run's probe seam
(:mod:`repro.obs.probe`: worker steal outcomes, Clearinghouse heartbeat
scans, network partition drops; macro job completions come straight
from the traffic engine) and turns anomalies into structured, picklable
:class:`Incident` records in a bounded :class:`IncidentRing`.

Detectors (catalogue and thresholds in ``docs/observability.md``):

* ``steal-storm`` — cluster-wide steal-request *timeouts* in a rolling
  window.  Timeouts, not refusals: an empty victim answers instantly,
  so end-of-job scarcity never looks like a storm, while a latency
  spike (grants slower than the thief's budget) does.
* ``heartbeat-gap`` — a registered worker or forwarder silent past a
  fraction of the death timeout (warn), or actually declared dead
  (crit).
* ``false-death`` — a heartbeat arrives from a name the Clearinghouse
  already declared dead: the failure detector was wrong.
* ``partition-stall`` — an ARG/MIGRATE sequence retransmitted past the
  retry budget, or repeated drops on one severed link: in-flight
  protocol state is aging behind a partition.
* ``starvation`` — a worker's consecutive failed steals exceed the
  budget while another worker demonstrably holds work: queue imbalance
  the stealing protocol is failing to correct.
* ``straggler`` — a worker's EWMA service time is a multiple of the
  cluster's: one machine is pathologically slower than its peers.
* ``stall`` — the liveness watchdog: no closure retired for
  ``WATCHDOG_S`` simulated seconds while live workers exist and the job
  is not done.  This is the detection-only net under protocol bugs of
  the bug-12 class (lost redo obligations).
* ``slo-breach`` — a macro-traffic job's sojourn exceeded its SLO.

Everything is passive: hooks never touch the simulator, its RNG, or any
process state, so an instrumented run's TraceLog stays byte-identical
to an uninstrumented one.  All detector state is O(window): rolling
structures carry hard caps and the ring is capacity-bounded
(``tests/obs/test_health.py`` pins both).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError

#: Every incident kind a detector can emit (docs/observability.md).
INCIDENT_KINDS: Tuple[str, ...] = (
    "steal-storm",
    "heartbeat-gap",
    "false-death",
    "partition-stall",
    "starvation",
    "straggler",
    "stall",
    "slo-breach",
)

#: Severity ladder (info < warn < crit).
SEVERITIES: Tuple[str, ...] = ("info", "warn", "crit")


@dataclass(frozen=True)
class Incident:
    """One diagnosed anomaly: what, how bad, when, who, and the numbers.

    Frozen and built only from primitives/tuples so records pickle
    across :mod:`repro.parallel` shard boundaries and hash for dedup.
    ``evidence`` is a sorted tuple of ``(counter, value)`` pairs — the
    measurements that crossed a threshold, not prose.
    """

    kind: str
    severity: str
    t_start: float
    t_end: float
    subject: str  # implicated worker, link ("a->b"), or job id
    evidence: Tuple[Tuple[str, Any], ...] = ()

    def row(self) -> Dict[str, Any]:
        """JSON-ready dict (the snapshot/merge interchange shape)."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "subject": self.subject,
            "evidence": {k: v for k, v in self.evidence},
        }

    @staticmethod
    def from_row(row: Dict[str, Any]) -> "Incident":
        return Incident(
            kind=row["kind"],
            severity=row["severity"],
            t_start=row["t_start"],
            t_end=row["t_end"],
            subject=row["subject"],
            evidence=tuple(sorted(row.get("evidence", {}).items())),
        )


def incident_sort_key(row: Dict[str, Any]) -> Tuple:
    """Total order for incident rows: sim-time, then implicated worker,
    then every remaining field — so any two permutations of the same
    multiset of incidents sort to byte-identical JSON."""
    return (
        row["t_start"],
        row["subject"],
        row["kind"],
        row["t_end"],
        row["severity"],
        tuple(sorted((str(k), str(v)) for k, v in row.get("evidence", {}).items())),
    )


class IncidentRing:
    """Capacity-bounded incident buffer, registrable as an instrument.

    Follows the :class:`~repro.obs.metrics.Series` bounding discipline:
    once full, new incidents are counted in ``dropped`` rather than
    evicting old ones (the *first* occurrences of a failure mode are the
    diagnostic ones).  ``snapshot()`` rows come out in the deterministic
    :func:`incident_sort_key` order, which is what makes the sharded
    merge byte-identical to a serial run.
    """

    __slots__ = ("name", "capacity", "dropped", "_incidents")
    kind = "incidents"

    def __init__(self, name: str, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("incident ring capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.dropped = 0
        self._incidents: List[Incident] = []

    def push(self, incident: Incident) -> None:
        if len(self._incidents) >= self.capacity:
            self.dropped += 1
            return
        self._incidents.append(incident)

    def __len__(self) -> int:
        return len(self._incidents)

    @property
    def incidents(self) -> List[Incident]:
        """Recorded incidents in deterministic sort order."""
        return sorted(self._incidents,
                      key=lambda i: incident_sort_key(i.row()))

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "capacity": self.capacity,
            "count": len(self._incidents),
            "dropped": self.dropped,
            "rows": [i.row() for i in self.incidents],
        }


def merge_incident_snapshots(name: str, a: Dict[str, Any],
                             b: Dict[str, Any]) -> Dict[str, Any]:
    """Merge two incident-ring snapshots (the ``_merge_two`` branch).

    Rows concatenate and re-sort under :func:`incident_sort_key`; the
    merged ring honours the first snapshot's capacity, counting any
    overflow as dropped — exactly what one ring fed every shard's
    incidents in sorted order would have recorded.
    """
    capacity = a.get("capacity", 512)
    rows = sorted(list(a.get("rows", ())) + list(b.get("rows", ())),
                  key=incident_sort_key)
    dropped = a.get("dropped", 0) + b.get("dropped", 0)
    if len(rows) > capacity:
        dropped += len(rows) - capacity
        rows = rows[:capacity]
    out = dict(a)
    out["capacity"] = capacity
    out["rows"] = rows
    out["count"] = len(rows)
    out["dropped"] = dropped
    return out


# Detector thresholds.  Calibrated so the fuzzer's clean seeds stay
# silent while every ``--scenario`` class trips its matching detector
# (the scenario-oracle suite in ``tests/obs/test_health_oracle.py`` pins
# both directions).

#: Rolling window for rate detectors (steal-storm, link drops).
WINDOW_S = 0.25
#: Steal-request timeouts across the cluster within one window.
STORM_TIMEOUTS = 10
#: Retransmissions of one ARG/MIGRATE sequence before it counts as
#: stalled behind a partition.
RETRY_LIMIT = 3
#: Drops on one severed link within a window.
LINK_DROPS = 3
#: Consecutive failed steals before a worker counts as starving — only
#: while some peer demonstrably holds ``STARVE_MIN_DEPTH`` work.
STARVE_FAILS = 8
STARVE_MIN_DEPTH = 4
#: A worker whose EWMA service time is this multiple of the cluster's is
#: a straggler (after both saw enough tasks).
STRAGGLER_FACTOR = 6.0
STRAGGLER_MIN_TASKS = 30
#: EWMA smoothing for the straggler detector's service times.
EWMA_ALPHA = 0.2
#: Fraction of the death timeout a silent worker may sit before a
#: heartbeat-gap warning (1.0 would only ever fire as the death).
GAP_FRACTION = 0.6
#: Liveness watchdog: no closure retired for this many simulated seconds
#: while live workers exist and the job is not done.
WATCHDOG_S = 1.0
#: Incident ring capacity.
RING_CAPACITY = 512
#: Hard cap on every rolling structure (retransmission table, storm
#: window, per-link drop windows) — the O(window) memory bound.
MAX_TRACKED = 256


class HealthMonitor:
    """The streaming diagnosis engine: one per run (shared by every
    component the run's :class:`~repro.obs.metrics.MetricsRegistry`
    instruments).

    Construction registers the incident ring with the registry (so the
    ring rides the existing ``snapshot()``/``merge_snapshots`` path) and
    installs the monitor as ``registry.health``; the registry subscribes
    it to the run's probe along with itself, so it must exist before
    the run is built (a late monitor is refused, not silently idle).
    """

    def __init__(self, registry: Any) -> None:
        if registry.subscribed:
            raise ReproError(
                "this registry is already subscribed to a run's probe, so "
                "the monitor would be wired to nothing and report zero "
                "incidents: construct the monitor before the run")
        self.ring = registry.incidents("health.incidents", RING_CAPACITY)
        registry.health = self
        # -- steal-storm: (time,) ring of recent steal-request timeouts.
        self._timeouts: Deque[float] = deque()
        self._storm_active = False
        # -- starvation: per-worker consecutive failed steals + last
        #    observed deque depth per worker ("does work exist?").
        self._fail_streak: Dict[str, int] = {}
        self._starving: Dict[str, bool] = {}
        self._last_depth: Dict[str, float] = {}
        # -- straggler: per-worker (ewma, n) + cluster (ewma, n).
        self._service: Dict[str, Tuple[float, int]] = {}
        self._service_all: Tuple[float, int] = (0.0, 0)
        self._stragglers: Dict[str, bool] = {}
        # -- partition-stall: (worker, kind, seq) -> (first_t, retries),
        #    and per-link rolling drop windows.
        self._retrans: Dict[Tuple[str, str, Any], Tuple[float, int]] = {}
        self._link_drops: Dict[str, Deque[float]] = {}
        # -- heartbeat-gap: workers currently in a silence episode.
        self._silent: Dict[str, float] = {}
        # -- watchdog: last closure retirement (or run start).
        self._last_progress: Optional[float] = None
        self._stalled = False
        # -- slo-breach dedup (one incident per job).
        self._breached: set = set()

    def subscribe(self, probe: Any) -> None:
        """Feed the detectors from a run's :class:`~repro.obs.probe.Probe`.
        Every hook below is a subscriber, called as
        ``(now, kind, source, detail)``."""
        probe.subscribe({
            "steal.timeout": self.steal_timeout,
            "steal.refused": self.steal_refused,
            "steal.adopt": self.steal_ok,
            "deque.depth": self.deque_sample,
            "steal.batch": self.deque_sample,
            "task.done": self.task_done,
            "arg.retry": self.retransmission,
            "migrate.retry": self.retransmission,
            "net.partition": self.link_drop,
            "ch.heartbeat": self.heartbeat,
            "ch.false_death": self.false_death,
            "ch.scan": self.pulse,
            "ch.worker_died": self.death,
        })

    # ------------------------------------------------------------------
    # Worker-side hooks
    # ------------------------------------------------------------------

    def steal_timeout(self, now: float, kind: str, worker: str, d: dict) -> None:
        """A steal request got *no reply* inside the thief's budget."""
        window = self._timeouts
        self._roll(window, now)
        if len(window) >= STORM_TIMEOUTS:
            if not self._storm_active:
                self._storm_active = True
                self._emit(Incident(
                    kind="steal-storm", severity="warn",
                    t_start=window[0], t_end=now, subject=worker,
                    evidence=(("timeouts", len(window)),
                              ("window_s", WINDOW_S)),
                ))
        elif len(window) <= STORM_TIMEOUTS // 2:
            self._storm_active = False  # storm abated; re-arm
        self._steal_failed(now, worker)

    def _roll(self, window: Deque[float], now: float) -> None:
        """Add *now* to a rolling window: the last ``WINDOW_S`` seconds,
        at most ``MAX_TRACKED`` entries."""
        window.append(now)
        horizon = now - WINDOW_S
        while window and (window[0] < horizon
                          or len(window) > MAX_TRACKED):
            window.popleft()

    def steal_refused(self, now: float, kind: str, worker: str, d: dict) -> None:
        """The victim answered, but had nothing to give."""
        self._steal_failed(now, worker)

    def steal_ok(self, now: float, kind: str, worker: str, d: dict) -> None:
        self._fail_streak[worker] = 0
        self._starving[worker] = False

    def _steal_failed(self, now: float, worker: str) -> None:
        streak = self._fail_streak.get(worker, 0) + 1
        self._fail_streak[worker] = streak
        if streak < STARVE_FAILS or self._starving.get(worker):
            return
        held = [(w, d) for w, d in self._last_depth.items()
                if w != worker and d >= STARVE_MIN_DEPTH]
        if not held:
            return
        held.sort(key=lambda wd: (-wd[1], wd[0]))
        self._starving[worker] = True
        self._emit(Incident(
            kind="starvation", severity="warn",
            t_start=now, t_end=now, subject=worker,
            evidence=(("failed_steals", streak),
                      ("holder", held[0][0]),
                      ("holder_depth", held[0][1])),
        ))

    def deque_sample(self, now: float, kind: str, worker: str, d: dict) -> None:
        self._last_depth[worker] = d["deque"]

    def task_done(self, now: float, kind: str, worker: str, d: dict) -> None:
        """A closure retired: a deque sample, and it feeds the watchdog
        and the straggler EWMA."""
        self._last_depth[worker] = d["deque"]
        service_s = d["service_s"]
        self._last_progress = now
        self._stalled = False
        self._fail_streak[worker] = 0
        self._starving[worker] = False
        ewma, n = self._service.get(worker, (service_s, 0))
        ewma = ewma + EWMA_ALPHA * (service_s - ewma)
        self._service[worker] = (ewma, n + 1)
        # The worker is measured against the cluster as it stood before
        # this sample: fed first, a uniformly slow machine's own sample
        # would cap the ratio at 1 / EWMA_ALPHA.
        all_ewma, all_n = self._service_all
        if all_n == 0:
            all_ewma = service_s
        self._service_all = (all_ewma + EWMA_ALPHA * (service_s - all_ewma), all_n + 1)
        # The test that almost always fails goes first.
        if (ewma >= STRAGGLER_FACTOR * all_ewma
                and all_ewma > 0.0
                and not self._stragglers.get(worker)
                and n + 1 >= STRAGGLER_MIN_TASKS
                and all_n + 1 >= 2 * STRAGGLER_MIN_TASKS):
            self._stragglers[worker] = True
            self._emit(Incident(
                kind="straggler", severity="info",
                t_start=now, t_end=now, subject=worker,
                evidence=(("cluster_ewma_s", all_ewma),
                          ("tasks", n + 1),
                          ("worker_ewma_s", ewma)),
            ))

    def retransmission(self, now: float, kind: str, worker: str, d: dict) -> None:
        """An ARG/MIGRATE sequence was sent again (resilient mode):
        ``arg.retry`` or ``migrate.retry``."""
        what = kind.partition(".")[0]
        key = (worker, what, d["seq"])
        first_t, retries = self._retrans.get(key, (now, 0))
        retries += 1
        if retries >= RETRY_LIMIT:
            self._retrans.pop(key, None)
            self._emit(Incident(
                kind="partition-stall", severity="warn",
                t_start=first_t, t_end=now, subject=worker,
                evidence=(("age_s", now - first_t),
                          ("retries", retries),
                          ("what", what)),
            ))
            return
        self._retrans[key] = (first_t, retries)
        while len(self._retrans) > MAX_TRACKED:
            self._retrans.pop(next(iter(self._retrans)))

    # ------------------------------------------------------------------
    # Network-side hooks
    # ------------------------------------------------------------------

    def link_drop(self, now: float, kind: str, src: str, d: dict) -> None:
        """A datagram died on a severed link (partition drop only —
        random loss and down-host drops have their own detectors)."""
        link = f"{src}->{d['dst']}"
        window = self._link_drops.get(link)
        if window is None:
            if len(self._link_drops) >= MAX_TRACKED:
                self._link_drops.pop(next(iter(self._link_drops)))
            window = self._link_drops[link] = deque()
        self._roll(window, now)
        if len(window) == LINK_DROPS:
            self._emit(Incident(
                kind="partition-stall", severity="warn",
                t_start=window[0], t_end=now, subject=link,
                evidence=(("drops", len(window)),
                          ("window_s", WINDOW_S)),
            ))

    # ------------------------------------------------------------------
    # Clearinghouse-side hooks
    # ------------------------------------------------------------------

    def heartbeat(self, now: float, kind: str, host: str, d: dict) -> None:
        """A worker/forwarder heartbeat landed; ends any silence episode."""
        self._silent.pop(d["worker"], None)

    def death(self, now: float, kind: str, host: str, d: dict) -> None:
        """The Clearinghouse declared a worker dead."""
        worker, last_seen = d["worker"], d["last_seen"]
        self._silent.pop(worker, None)
        self._emit(Incident(
            kind="heartbeat-gap", severity="crit",
            t_start=last_seen, t_end=now, subject=worker,
            evidence=(("declared_dead", 1),
                      ("silence_s", now - last_seen)),
        ))

    def false_death(self, now: float, kind: str, host: str, d: dict) -> None:
        """A heartbeat arrived from a name already declared dead."""
        self._emit(Incident(
            kind="false-death", severity="crit",
            t_start=now, t_end=now, subject=d["worker"],
            evidence=(("heartbeat_after_death", 1),),
        ))

    def pulse(self, now: float, kind: str, host: str, d: dict) -> None:
        """Periodic scan, driven by the Clearinghouse death detector
        (``ch.scan``: its live ``workers`` / ``forwarders`` last-seen
        tables, read-only).

        Two detectors ride it: heartbeat-gap (silence past
        ``GAP_FRACTION`` of the death timeout, warning before the
        detector would kill) and the job-progress watchdog (``stall``).
        """
        last_seen, forwarders, done = d["workers"], d["forwarders"], d["done"]
        threshold = GAP_FRACTION * d["death_timeout_s"]
        for table in (last_seen, forwarders):
            for worker, last in table.items():
                silence = now - last
                if silence < threshold:
                    self._silent.pop(worker, None)
                elif worker not in self._silent:
                    self._silent[worker] = last
                    self._emit(Incident(
                        kind="heartbeat-gap", severity="warn",
                        t_start=last, t_end=now, subject=worker,
                        evidence=(("silence_s", silence),
                                  ("threshold_s", threshold)),
                    ))
        if self._last_progress is None:
            self._last_progress = now
            return
        quiet = now - self._last_progress
        if (not done and not self._stalled and last_seen
                and quiet >= WATCHDOG_S):
            self._stalled = True
            self._emit(Incident(
                kind="stall", severity="crit",
                t_start=self._last_progress, t_end=now, subject="job",
                evidence=(("live_workers", len(last_seen)),
                          ("quiet_s", quiet)),
            ))

    # ------------------------------------------------------------------
    # Macro-traffic hook
    # ------------------------------------------------------------------

    def job_sojourn(self, now: float, job_id: Any, sojourn_s: float,
                    slo_s: float) -> None:
        """A macro job completed; flag it once if it blew its SLO."""
        if sojourn_s <= slo_s or job_id in self._breached:
            return
        if len(self._breached) >= MAX_TRACKED:
            return  # dedup set is full; the ring has the early breaches
        self._breached.add(job_id)
        self._emit(Incident(
            kind="slo-breach", severity="warn",
            t_start=now - sojourn_s, t_end=now, subject=f"job{job_id}",
            evidence=(("slo_s", slo_s), ("sojourn_s", sojourn_s)),
        ))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _emit(self, incident: Incident) -> None:
        self.ring.push(incident)

    @property
    def incidents(self) -> List[Incident]:
        return self.ring.incidents

    def state_size(self) -> int:
        """Total entries across every rolling structure — the quantity
        the O(window) memory-bound test pins."""
        return (
            len(self._timeouts)
            + len(self._fail_streak)
            + len(self._starving)
            + len(self._last_depth)
            + len(self._service)
            + len(self._stragglers)
            + len(self._retrans)
            + sum(len(w) for w in self._link_drops.values())
            + len(self._link_drops)
            + len(self._silent)
            + len(self._breached)
        )
