"""Checked execution harness: perturbed runs, bug injection, shrinking.

:func:`run_checked` is the pytest-facing entry point: it runs one job on
a simulated cluster exactly like :func:`repro.phish.run_job`, but with
the full checking apparatus wired in — tracing always on, the network
drop accountant, the online deque auditor, and a post-run pass over the
invariant catalog of :mod:`repro.check.invariants`.

A :class:`Perturbation` bundles everything that makes one schedule
different from another while staying a *legal* execution: the same-time
event tie-break shuffle seed, extra message-latency jitter, and
crash/reclaim injection times.  :meth:`Perturbation.generate` derives
all of it from one integer seed, so a failing schedule is reproduced by
its seed alone; :func:`shrink_perturbation` then greedily removes
components (drop a crash, drop a reclaim, zero the jitter, restore
deterministic tie-breaks) while the failure persists, yielding a minimal
reproducing schedule.

``BUGS`` holds deliberately broken scheduler variants (applied as
instance-level monkeypatches) used to validate that the checker actually
catches the classes of bugs it claims to.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check.invariants import DequeAuditor, InvariantReport, check_invariants
from repro.clearinghouse.clearinghouse import Clearinghouse, ClearinghouseConfig
from repro.cluster.platform import SPARCSTATION_1, PlatformProfile
from repro.errors import ReproError
from repro.micro import protocol as P
from repro.micro.worker import Worker, WorkerConfig
from repro.net.network import Network
from repro.net.topology import (
    CongestionSpike,
    DynamicTopology,
    PartitionWindow,
    UniformTopology,
)
from repro.obs.probe import Probe
from repro.phish import DRAIN_S, start_job
from repro.sim.core import Simulator
from repro.tasks.program import JobProgram
from repro.util.rng import derive_seed
from repro.util.trace import TraceLog

#: Scheduler settings scaled down from the paper's (2-minute heartbeats,
#: quarter-second startup) so that millisecond-scale check jobs actually
#: exercise stealing, crash detection, and retirement within one run.
CHECK_WORKER = WorkerConfig(
    startup_cost_s=0.01,
    steal_timeout_s=0.02,
    steal_backoff_s=0.002,
    update_interval_s=0.5,
    track_completed=True,
)

#: Extra acknowledgement machinery enabled only for schedules that
#: actually sever or congest links (see :func:`run_checked`): an unacked
#: steal grant is reclaimed and unacked argument fills retransmit, both
#: after three steal timeouts — under the paper's protocol either loss
#: hangs the job.  Fault-only schedules keep the paper protocol (and
#: their pinned byte-exact traces).
RESILIENT_TIMEOUTS = dict(ack_timeout_s=0.06)

CHECK_CH = ClearinghouseConfig(
    update_interval_s=0.5,
    death_timeout_s=1.5,
    check_interval_s=0.2,
)

_UNSET = object()


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """One point in schedule space, derived from a single seed.

    The identity perturbation (all defaults) reproduces the simulator's
    canonical insertion-order schedule with no faults injected.
    """

    #: Seed for the same-time event tie-break shuffle (None: canonical order).
    tiebreak_seed: Optional[int] = None
    #: Extra uniform per-message latency jitter, seconds.
    latency_jitter_s: float = 0.0
    #: Fail-stop crash injections: (time_s, workstation index).  Index 0
    #: hosts the Clearinghouse and must never crash (single-failure model).
    crashes: Tuple[Tuple[float, int], ...] = ()
    #: Graceful owner-reclaim injections: (time_s, workstation index).
    reclaims: Tuple[Tuple[float, int], ...] = ()
    #: Congestion-spike windows: (start_s, end_s, latency_factor) — every
    #: link's latency is multiplied by the factor inside the window.
    spikes: Tuple[Tuple[float, float, float], ...] = ()
    #: Partition-heal windows: (start_s, end_s, island_indices) — during
    #: the window the island workstations are unreachable from the rest
    #: of the cluster (both directions); at end_s the partition heals.
    partitions: Tuple[Tuple[float, float, Tuple[int, ...]], ...] = ()

    #: Scenario names understood by :meth:`generate` (CLI ``--scenario``).
    SCENARIOS = ("mixed", "partition", "spike", "faults-only")
    #: What :meth:`generate` draws against: how often a seed gets a
    #: crash / a reclaim / (under "mixed") a spike / a partition, the
    #: window faults start in, and the latency-jitter ceiling.
    P_CRASH = 0.6
    P_RECLAIM = 0.5
    P_SPIKE = 0.4
    P_PARTITION = 0.35
    FAULT_WINDOW_S = (0.012, 0.06)
    MAX_JITTER_S = 2.0e-3

    @classmethod
    def generate(cls, seed: int, n_workers: int,
                 scenario: str = "mixed") -> "Perturbation":
        """Derive a perturbation from *seed* (stable across processes).

        ``scenario`` focuses the network dynamics: "mixed" uses the
        default probabilities, "partition" / "spike" force that window
        into every seed, "faults-only" disables both (the pre-topology
        scenario set).  Crash/reclaim/jitter components are identical
        across scenarios for the same seed — every scenario consumes
        the same rng draws, only the inclusion thresholds differ.
        """
        if scenario not in cls.SCENARIOS:
            raise ReproError(
                f"unknown scenario {scenario!r}; known: {sorted(cls.SCENARIOS)}"
            )
        rng = random.Random(derive_seed(seed, "check.perturb"))
        lo, hi = cls.FAULT_WINDOW_S
        crashes: List[Tuple[float, int]] = []
        if n_workers > 1 and rng.random() < cls.P_CRASH:
            crashes.append((lo + rng.random() * (hi - lo), rng.randrange(1, n_workers)))
        reclaims: List[Tuple[float, int]] = []
        if n_workers > 1 and rng.random() < cls.P_RECLAIM:
            # Any worker may be reclaimed, including the Clearinghouse
            # host's (reclaim only evicts the worker; the CH survives).
            t = lo + rng.random() * (hi - lo)
            idx = rng.randrange(n_workers)
            # Keep at least one worker alive: the checked cluster has no
            # enlistment path, so a scenario that removes every machine
            # (possible at n_workers=2: crash one, reclaim the other)
            # could never complete regardless of scheduler correctness.
            # The draws above still happen, so every satisfiable seed
            # produces the exact same perturbation as before.
            removed = {i for _t, i in crashes}
            removed.add(idx)
            if len(removed) < n_workers:
                reclaims.append((t, idx))
        # Drawn after the original components so pre-topology seeds keep
        # their exact crash/reclaim/jitter values.
        jitter = rng.random() * cls.MAX_JITTER_S
        eff_spike = {"spike": 1.0, "faults-only": 0.0}.get(scenario, cls.P_SPIKE)
        eff_part = {"partition": 1.0, "faults-only": 0.0}.get(scenario, cls.P_PARTITION)
        spikes: List[Tuple[float, float, float]] = []
        r = rng.random()
        start = lo + rng.random() * (hi - lo)
        duration = 0.01 + rng.random() * 0.04
        factor = 4.0 + rng.random() * 16.0
        if r < eff_spike:
            spikes.append((start, start + duration, factor))
        partitions: List[Tuple[float, float, Tuple[int, ...]]] = []
        r = rng.random()
        start = lo + rng.random() * (hi - lo)
        duration = 0.01 + rng.random() * 0.04
        size = 1 + rng.randrange(max(1, n_workers // 2))
        island = tuple(sorted(rng.sample(range(n_workers), min(size, n_workers))))
        if n_workers > 1 and r < eff_part and len(island) < n_workers:
            # Windows stay well short of the death timeout (1.5 s): a
            # partition must delay heartbeats, not forge false deaths.
            partitions.append((start, start + duration, island))
        return cls(
            tiebreak_seed=derive_seed(seed, "check.tiebreak"),
            latency_jitter_s=jitter,
            crashes=tuple(crashes),
            reclaims=tuple(reclaims),
            spikes=tuple(spikes),
            partitions=tuple(partitions),
        )

    def describe(self) -> str:
        parts: List[str] = []
        if self.tiebreak_seed is not None:
            parts.append(f"tiebreak={self.tiebreak_seed & 0xFFFF:#06x}")
        if self.latency_jitter_s:
            parts.append(f"jitter={self.latency_jitter_s * 1e3:.3f}ms")
        parts += [f"crash(ws{i:02d}@{t:.3f}s)" for t, i in self.crashes]
        parts += [f"reclaim(ws{i:02d}@{t:.3f}s)" for t, i in self.reclaims]
        parts += [f"spike(x{f:.1f}@{s:.3f}-{e:.3f}s)" for s, e, f in self.spikes]
        parts += [
            "partition({}@{:.3f}-{:.3f}s)".format(
                "|".join(f"ws{i:02d}" for i in island), s, e)
            for s, e, island in self.partitions
        ]
        return " ".join(parts) if parts else "identity"


# ---------------------------------------------------------------------------
# Deliberate bugs (checker validation)
# ---------------------------------------------------------------------------


def _bug_skip_redo(worker: Worker) -> None:
    """Victims forget their redo obligation: on a death notice the
    outstanding table is discarded instead of re-enqueued."""

    def skip(dead: str) -> None:
        worker.outstanding.pop(dead, None)

    worker._on_worker_died = skip  # type: ignore[method-assign]


def _bug_drop_migration(worker: Worker) -> None:
    """Migration silently loses half of each incoming ready batch."""
    orig = worker._on_migrate

    def lossy(msg, ready, suspended, sender, offer) -> None:
        orig(msg, ready[: len(ready) // 2], suspended, sender, offer)

    worker._on_migrate = lossy  # type: ignore[method-assign]


def _bug_dup_exec(worker: Worker) -> None:
    """Steal grants forget to remove the closure from the victim's
    deque, so victim and thief both execute it.  (ReadyDeque is slotted,
    so the patch swaps in a subclass rather than an instance attribute.)"""
    base = type(worker.deque)

    class _LeakyDeque(base):  # type: ignore[misc, valid-type]
        __slots__ = ()

        def pop_steal(self):
            closure = base.pop_steal(self)
            if closure is not None:
                self.push(closure)
            return closure

    worker.deque.__class__ = _LeakyDeque


#: name -> per-worker patch applying the deliberately broken behaviour.
BUGS: Dict[str, Callable[[Worker], None]] = {
    "skip-redo": _bug_skip_redo,
    "drop-migration": _bug_drop_migration,
    "dup-exec": _bug_dup_exec,
}


# ---------------------------------------------------------------------------
# Checked execution
# ---------------------------------------------------------------------------


@dataclass
class CheckedRun:
    """Everything one :func:`run_checked` invocation produced."""

    job_name: str
    seed: int
    perturbation: Perturbation
    bug: Optional[str]
    completed: bool
    result: Any
    expected: Any
    report: InvariantReport
    makespan: float
    trace: TraceLog = field(repr=False)
    workers: List[Worker] = field(repr=False, default_factory=list)
    clearinghouse: Optional[Clearinghouse] = field(repr=False, default=None)
    network: Optional[Network] = field(repr=False, default=None)
    sim: Optional[Simulator] = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def require_ok(self) -> "CheckedRun":
        self.report.require_ok()
        return self


def install_network_accounting(probe: Probe, trace: TraceLog) -> None:
    """Account closures lost inside dropped datagrams.

    Steal grants and migration batches carry live closures; when such a
    datagram is discarded (random loss, dead or unbound destination) the
    closures vanish from the system.  This subscriber surfaces each loss
    as a ``closure.lost`` trace event — directly after the drop's own
    record, since *trace* subscribed first — so the conservation
    invariant can tell "lost in flight" apart from "scheduler leaked it".
    """

    def on_drop(t: float, kind: str, source: str, detail: dict) -> None:
        msg = detail["msg"]
        cids = P.carried_cids(msg.payload)
        if cids:
            # net.partition / net.loss / net.drop.<why>; the loopback
            # drop names its why in the detail.
            reason = detail.get("reason") or kind.rpartition(".")[2]
            trace.emit(t, "closure.lost", msg.dst,
                       cids=cids, reason=f"net-{reason}")

    probe.subscribe(dict.fromkeys(
        ("net.partition", "net.loss", "net.drop.down", "net.drop.unbound",
         "net.loopback.drop"), on_drop))


def run_checked(
    job: JobProgram,
    n_workers: int = 4,
    seed: int = 0,
    perturbation: Optional[Perturbation] = None,
    expected: Any = _UNSET,
    worker_config: Optional[WorkerConfig] = None,
    ch_config: Optional[ClearinghouseConfig] = None,
    profile: PlatformProfile = SPARCSTATION_1,
    horizon_s: float = 60.0,
    trace_capacity: Optional[int] = None,
    bug: Optional[str] = None,
    metrics: Optional[Any] = None,
    queue: str = "auto",
) -> CheckedRun:
    """Run *job* under full invariant checking.

    Args:
        job: the application program to run.
        n_workers: cluster size (workstation 0 hosts the Clearinghouse).
        seed: root seed for the scheduler's own random streams.
        perturbation: schedule-space point to explore (default: the
            identity — canonical order, no faults).
        expected: oracle result; when given, a completed run delivering
            anything else is a liveness violation.
        worker_config / ch_config: overrides for :data:`CHECK_WORKER`
            and :data:`CHECK_CH`.
        horizon_s: simulated-time liveness bound; a job still unfinished
            at the horizon is reported (not an exception).
        trace_capacity: optional trace bound — exercises the checker's
            graceful degradation on truncated history.
        bug: name from :data:`BUGS` to deliberately break every worker
            with (checker validation).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given it subscribes to the run's probe next to the
            trace (this is how ``repro diagnose`` attaches a
            :class:`~repro.obs.health.HealthMonitor` to checked runs).
        queue: ``"heap"`` runs on the plain-``heapq`` reference kernel
            instead of the production queue — the one consumer is
            :func:`~repro.check.fuzzer.verify_queue_backends`, which
            requires the two traces to be byte-identical.
    """
    pert = perturbation if perturbation is not None else Perturbation()
    for _t, idx in pert.crashes:
        if not 1 <= idx < n_workers:
            raise ReproError(
                f"crash index {idx} invalid: workstation 0 hosts the "
                f"Clearinghouse and the cluster has {n_workers} machines"
            )
    for _t, idx in pert.reclaims:
        if not 0 <= idx < n_workers:
            raise ReproError(f"reclaim index {idx} out of range for {n_workers} machines")
    for start, end, island in pert.partitions:
        if not island or not all(0 <= i < n_workers for i in island):
            raise ReproError(
                f"partition island {island} out of range for {n_workers} machines")
        if len(set(island)) >= n_workers:
            raise ReproError("partition island must be a proper subset of the cluster")
    if bug is not None and bug not in BUGS:
        raise ReproError(f"unknown bug {bug!r}; known: {sorted(BUGS)}")

    tiebreak = (
        random.Random(pert.tiebreak_seed) if pert.tiebreak_seed is not None else None
    )
    sim = Simulator(tiebreak_rng=tiebreak, queue=queue)
    trace = TraceLog(enabled=True, capacity=trace_capacity)
    net_params = dataclasses.replace(
        profile.net, jitter_s=profile.net.jitter_s + pert.latency_jitter_s
    )
    topology = UniformTopology(net_params)
    base_cfg = worker_config or CHECK_WORKER
    if pert.spikes or pert.partitions:
        # Layer the perturbation's network dynamics over the uniform LAN.
        # Static runs keep the plain topology: the network then skips the
        # reachability check entirely.
        topology = DynamicTopology(
            topology,
            clock=lambda: sim.now,
            spikes=tuple(CongestionSpike(s, e, f) for s, e, f in pert.spikes),
            partitions=tuple(
                PartitionWindow(s, e, frozenset(f"ws{i:02d}" for i in island))
                for s, e, island in pert.partitions
            ),
        )
        base_cfg = dataclasses.replace(base_cfg, **RESILIENT_TIMEOUTS)
    probe = Probe.for_run(trace, metrics)
    install_network_accounting(probe, trace)
    cluster = start_job(
        sim, job, n_workers, seed, base_cfg, ch_config or CHECK_CH, profile,
        start_jitter_s=0.02, topology=topology, probe=probe,
    )
    _sim, network, hosts, ch, workers = cluster

    auditor = DequeAuditor()
    for w in workers:
        auditor.attach(w)

    if bug is not None:
        for w in workers:
            BUGS[bug](w)

    for t, idx in pert.crashes:
        cluster.at(t, hosts[idx].crash, name=f"inject-crash@ws{idx:02d}")
    for t, idx in pert.reclaims:
        def reclaim(i: int = idx) -> None:
            w = workers[i]
            if not w.done and not w.departed:
                w.evict("owner-reclaimed")
        cluster.at(t, reclaim, name=f"inject-reclaim@ws{idx:02d}")

    # Run to completion or the liveness horizon, whichever comes first,
    # auditing the deques between fixed sim-time slices (a deadline adds
    # no kernel events, so the schedule is the unsliced one).
    period = base_cfg.steal_timeout_s / 4
    k = 1
    while not (completed := sim.run_until(ch.done, min(k * period, horizon_s))):
        if sim.peek() > horizon_s:
            break
        auditor.verify(workers)
        k += 1
    if completed:
        sim.run(until=sim.now + DRAIN_S)  # let the done broadcast land

    result_ok: Optional[bool] = None
    if completed and expected is not _UNSET:
        result_ok = ch.result == expected
    report = check_invariants(
        trace, workers, completed=completed, auditor=auditor, result_ok=result_ok
    )
    return CheckedRun(
        job_name=job.name,
        seed=seed,
        perturbation=pert,
        bug=bug,
        completed=completed,
        result=ch.result,
        expected=None if expected is _UNSET else expected,
        report=report,
        makespan=(ch.finished_at or sim.now) - (ch.started_at or 0.0),
        trace=trace,
        workers=workers,
        clearinghouse=ch,
        network=network,
        sim=sim,
    )


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _simplifications(pert: Perturbation):
    """Candidate one-step simplifications, most drastic first."""
    for i in range(len(pert.crashes)):
        yield dataclasses.replace(
            pert, crashes=pert.crashes[:i] + pert.crashes[i + 1:]
        )
    for i in range(len(pert.reclaims)):
        yield dataclasses.replace(
            pert, reclaims=pert.reclaims[:i] + pert.reclaims[i + 1:]
        )
    for i in range(len(pert.partitions)):
        yield dataclasses.replace(
            pert, partitions=pert.partitions[:i] + pert.partitions[i + 1:]
        )
    for i in range(len(pert.spikes)):
        yield dataclasses.replace(
            pert, spikes=pert.spikes[:i] + pert.spikes[i + 1:]
        )
    if pert.latency_jitter_s:
        yield dataclasses.replace(pert, latency_jitter_s=0.0)
    if pert.tiebreak_seed is not None:
        yield dataclasses.replace(pert, tiebreak_seed=None)


def shrink_perturbation(
    rerun: Callable[[Perturbation], CheckedRun],
    failing: Perturbation,
    max_runs: int = 40,
) -> Tuple[Perturbation, int]:
    """Greedy delta-debugging over a failing perturbation.

    Repeatedly tries to remove one component (a crash, a reclaim, a
    partition window, a congestion spike, the latency jitter, the
    tie-break shuffle) and keeps any simplification
    under which the run still violates an invariant, until no single
    removal preserves the failure or *max_runs* re-executions are spent.

    Returns the minimal failing perturbation found and the number of
    re-executions used.  ``rerun(candidate)`` is the failing run again
    (a fresh job, same seed and settings) under *candidate*.
    """
    current = failing
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for candidate in _simplifications(current):
            runs += 1
            if not rerun(candidate).ok:
                current = candidate
                improved = True
                break
            if runs >= max_runs:
                break
    return current, runs
