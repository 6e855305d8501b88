"""Production-traffic workloads for the macro scheduler.

The paper measures the macro level with a handful of hand-submitted
jobs.  This module subjects the same PhishJobQ to *production* traffic:
a seeded arrival process (Poisson, diurnal, bursty) submits thousands
of synthetic jobs with heavy-tailed service demands to the real JobQ
RPC server, while every workstation runs the paper's PhishJobManager
daemon — request a job when the owner is away, participate, give the
machine back the moment the owner returns (the paper's sovereignty
contract), and release/complete over RPC.

Jobs are synthetic at the micro level: a job is a service demand in
machine-seconds (``JobRecord.remaining_s``) that participating machines
drain in parallel, so a thousand-job run costs thousands of simulator
events instead of millions of task steps — the macro decisions (who
gets which job, when) still travel through the real RPC protocol and
the real assignment-policy indexes.

Everything is seeded: the full arrival schedule (times, sizes, owners)
is drawn up front from named RNG streams, so a
:class:`TrafficConfig` maps to exactly one simulated execution and one
:class:`TrafficReport`, bit-for-bit, regardless of host or process
count (the property the sharded sweeps assert).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterable, List, Optional, Set, Tuple

from repro.cluster.owner import AlwaysIdleTrace, Owner, OwnerTrace, ScriptedTrace
from repro.cluster.platform import SPARCSTATION_1
from repro.cluster.workstation import Workstation
from repro.errors import JobError, ReproError
from repro.macro.jobmanager import JobManagerConfig, PhishJobManager
from repro.macro.jobq import PhishJobQ
from repro.macro.policies import make_policy
from repro.obs.metrics import DURATION_BUCKETS_S, MetricsRegistry
from repro.obs.probe import Probe
from repro.phish import build_cluster
from repro.sim.core import Event, Flag, Interrupt, Simulator, Within
from repro.sim.resources import Signal
from repro.tasks.program import JobProgram, ThreadProgram
from repro.util.rng import RngRegistry


# ======================================================================
# Arrival processes
# ======================================================================


class ArrivalProcess:
    """Generates the absolute submission times of a job stream."""

    name = "abstract"

    def times(self, rng, n: int) -> List[float]:
        """The first *n* arrival times (strictly increasing), seconds."""
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_per_s``."""

    name = "poisson"

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ReproError("arrival rate must be positive")
        self.rate_per_s = rate_per_s

    def times(self, rng, n: int) -> List[float]:
        t = 0.0
        out: List[float] = []
        for _ in range(n):
            t += rng.expovariate(self.rate_per_s)
            out.append(t)
        return out


class ModulatedArrivals(ArrivalProcess):
    """Non-homogeneous Poisson arrivals by Lewis–Shedler thinning.

    Subclasses define the instantaneous rate ``rate_at(t)`` and its
    upper bound ``peak_rate_per_s``; candidates are drawn at the peak
    rate and accepted with probability ``rate_at(t) / peak`` — two RNG
    draws per candidate, so the draw sequence (and thus the schedule)
    is a pure function of the seed.
    """

    name = "modulated"

    def __init__(self, peak_rate_per_s: float) -> None:
        if peak_rate_per_s <= 0:
            raise ReproError("peak arrival rate must be positive")
        self.peak_rate_per_s = peak_rate_per_s

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def times(self, rng, n: int) -> List[float]:
        t = 0.0
        peak = self.peak_rate_per_s
        out: List[float] = []
        while len(out) < n:
            t += rng.expovariate(peak)
            if rng.random() * peak <= self.rate_at(t):
                out.append(t)
        return out


class DiurnalArrivals(ModulatedArrivals):
    """A sinusoidal day/night load profile, period-scaled to the run.

    ``rate(t) = mean * (1 + depth * sin(2 pi t / period))`` — the
    long-run mean equals *rate_per_s* while the first half of each
    period runs hot and the second half cold, a day compressed to the
    simulation's horizon.
    """

    name = "diurnal"

    def __init__(self, rate_per_s: float, period_s: float = 1800.0,
                 depth: float = 0.8) -> None:
        if not 0.0 < depth < 1.0:
            raise ReproError("diurnal depth must be in (0, 1)")
        if period_s <= 0:
            raise ReproError("diurnal period must be positive")
        super().__init__(rate_per_s * (1.0 + depth))
        self.rate_per_s = rate_per_s
        self.period_s = period_s
        self.depth = depth

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * (t / self.period_s)
        return self.rate_per_s * (1.0 + self.depth * math.sin(phase))


class BurstyArrivals(ModulatedArrivals):
    """A square-wave burst profile: 4x rate in bursts, 0.25x between.

    With ``duty = 0.2`` the long-run mean equals *rate_per_s* exactly
    (``0.2 * 4 + 0.8 * 0.25 = 1``): one fifth of the time the queue is
    slammed at four times the average rate — the regime where policy
    choice (and interrupt-driven wakeup) separates from round-robin.
    """

    name = "bursty"

    _HI = 4.0
    _LO = 0.25
    _DUTY = 0.2

    def __init__(self, rate_per_s: float, period_s: float = 600.0) -> None:
        if period_s <= 0:
            raise ReproError("burst period must be positive")
        super().__init__(rate_per_s * self._HI)
        self.rate_per_s = rate_per_s
        self.period_s = period_s

    def rate_at(self, t: float) -> float:
        in_burst = (t % self.period_s) < self._DUTY * self.period_s
        return self.rate_per_s * (self._HI if in_burst else self._LO)


#: Name -> factory(rate_per_s) for the sweep/CLI selectors.
ARRIVAL_FACTORIES: Dict[str, Callable[[float], ArrivalProcess]] = {
    "poisson": PoissonArrivals,
    "diurnal": DiurnalArrivals,
    "bursty": BurstyArrivals,
}


def make_arrivals(name: str, rate_per_s: float) -> ArrivalProcess:
    """Build an arrival process by name."""
    try:
        factory = ARRIVAL_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {name!r}; "
            f"known: {sorted(ARRIVAL_FACTORIES)}"
        ) from None
    return factory(rate_per_s)


# ======================================================================
# Job-size distributions
# ======================================================================


class SizeDistribution:
    """Draws per-job service demands (machine-seconds)."""

    name = "abstract"

    @property
    def mean_s(self) -> float:
        """Analytic mean — offered load is ``rate * mean / machines``."""
        raise NotImplementedError

    def sample(self, rng) -> float:
        raise NotImplementedError


class ExponentialSizes(SizeDistribution):
    """Memoryless service demands (the classic M/M baseline)."""

    name = "exponential"

    def __init__(self, mean_s: float) -> None:
        if mean_s <= 0:
            raise ReproError("mean job size must be positive")
        self._mean_s = mean_s

    @property
    def mean_s(self) -> float:
        return self._mean_s

    def sample(self, rng) -> float:
        return rng.expovariate(1.0 / self._mean_s)


class BoundedParetoSizes(SizeDistribution):
    """Heavy-tailed service demands, Pareto(alpha) truncated to [lo, hi].

    Sampled by inverse CDF (one uniform draw per job).  The default
    parameters (alpha=1.3, 5 s .. 5000 s) give a mean near 19 s with a
    tail where the biggest percent of jobs carries a large share of the
    total work — the regime where SRP-style policies beat round-robin.
    """

    name = "pareto"

    def __init__(self, alpha: float = 1.3, lo_s: float = 5.0,
                 hi_s: float = 5000.0) -> None:
        if alpha <= 0 or alpha == 1.0:
            raise ReproError("pareto alpha must be positive and != 1")
        if not 0 < lo_s < hi_s:
            raise ReproError("pareto bounds must satisfy 0 < lo < hi")
        self.alpha = alpha
        self.lo_s = lo_s
        self.hi_s = hi_s

    @property
    def mean_s(self) -> float:
        a, lo, hi = self.alpha, self.lo_s, self.hi_s
        num = a * (lo ** a) * (lo ** (1.0 - a) - hi ** (1.0 - a))
        den = (a - 1.0) * (1.0 - (lo / hi) ** a)
        return num / den

    def sample(self, rng) -> float:
        a, lo, hi = self.alpha, self.lo_s, self.hi_s
        u = rng.random()
        la, ha = lo ** a, hi ** a
        return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / a)


# ======================================================================
# Owner login/logout replay
# ======================================================================


class ReplayOwnerTrace(ScriptedTrace):
    """An owner trace replayed from a login/logout event log.

    Where :class:`~repro.cluster.owner.ScriptedTrace` takes period
    lengths, :meth:`from_events` takes the raw form real workstation
    logs come in — timestamped ``login``/``logout`` events — and
    converts them to the alternating periods the
    :class:`~repro.cluster.owner.Owner` process consumes.  The state
    after the final event persists.
    """

    @classmethod
    def from_events(
        cls,
        events: Iterable[Tuple[float, str]],
        initially_logged_in: bool = False,
    ) -> "ReplayOwnerTrace":
        """Build a trace from sorted ``(time_s, "login"|"logout")`` events."""
        periods: List[Tuple[str, float]] = []
        state = "busy" if initially_logged_in else "idle"
        last = 0.0
        for t, kind in events:
            if kind not in ("login", "logout"):
                raise ReproError(f"bad owner event {kind!r}")
            if t < last:
                raise ReproError("owner events must be sorted by time")
            new = "busy" if kind == "login" else "idle"
            if new == state:
                continue  # duplicate login/logout: no transition
            periods.append((state, t - last))
            state, last = new, t
        periods.append((state, float("inf")))  # final state persists
        return cls(periods)


def workday_events(
    rng, horizon_s: float, busy_mean_s: float, idle_mean_s: float,
) -> List[Tuple[float, str]]:
    """A synthetic login/logout event log for one workstation owner.

    Alternating exponentially-distributed away/at-desk stretches up to
    *horizon_s* — the raw material :meth:`ReplayOwnerTrace.from_events`
    replays, standing in for the unavailable 1994 MIT LCS logs.
    """
    events: List[Tuple[float, str]] = []
    t = 0.0
    logged_in = False
    while t < horizon_s:
        mean = busy_mean_s if logged_in else idle_mean_s
        t += rng.expovariate(1.0 / mean)
        logged_in = not logged_in
        events.append((t, "login" if logged_in else "logout"))
    return events


# ======================================================================
# The traffic engine
# ======================================================================


#: Bounded-Pareto job sizes: shape and lower bound (seconds).
PARETO_ALPHA = 1.3
SIZE_LO_S = 5.0
#: Poll interval for idle machines that found no work (pull mode).
RETRY_S = 5.0
#: Fallback wake for parked machines in interrupt mode.
PARK_TIMEOUT_S = 60.0
#: Distinct submitting users (fair-share accounting entities).
N_OWNERS = 4


@dataclass(frozen=True)
class TrafficConfig:
    """One fully-seeded traffic run (primitives only: picklable)."""

    n_workstations: int = 16
    n_jobs: int = 1000
    seed: int = 0
    policy: str = "rr"
    arrival: str = "poisson"
    #: Mean job-arrival rate (jobs per simulated second).
    rate_per_s: float = 0.5
    #: Job-size distribution: "pareto" (heavy-tailed, shape
    #: :data:`PARETO_ALPHA` from :data:`SIZE_LO_S` up) or "exponential".
    sizes: str = "pareto"
    size_hi_s: float = 5000.0
    #: Mean for the exponential size distribution.
    size_mean_s: float = 20.0
    #: Concurrent-machine cap per job (the paper's jobs scale, but a
    #: synthetic service demand drains at most this wide).
    max_workers_per_job: int = 4
    #: Service quantum: an agent re-checks owner state and job progress
    #: at this granularity (the paper's ~2 s reclaim poll lives here).
    quantum_s: float = 1.0
    #: Poll interval while the owner is at the machine.
    owner_poll_s: float = 2.0
    #: Owner model: "idle" (dedicated machines, the paper's measurement
    #: mode) or "workday" (replayed synthetic login/logout logs).
    owners: str = "idle"
    owner_busy_mean_s: float = 240.0
    owner_idle_mean_s: float = 720.0
    #: Hard cap on simulated time; the run reports what completed.
    horizon_s: float = 100_000.0
    #: Per-job sojourn SLO (seconds); jobs finishing later raise an
    #: ``slo-breach`` incident when a HealthMonitor is attached.  None
    #: disables the check entirely.
    slo_s: Optional[float] = None

    def validate(self) -> None:
        if self.n_workstations < 1:
            raise JobError("need at least one workstation")
        if self.n_jobs < 1:
            raise JobError("need at least one job")
        if self.max_workers_per_job < 1:
            raise JobError("max_workers_per_job must be >= 1")
        if self.quantum_s <= 0:
            raise JobError("quantum_s must be positive")
        if self.owners not in ("idle", "workday"):
            raise JobError(f"unknown owner model {self.owners!r}")
        if self.slo_s is not None and self.slo_s <= 0:
            raise JobError("slo_s must be positive when set")


@dataclass(frozen=True)
class TrafficReport:
    """What one traffic run measured (primitives only: mergeable)."""

    policy: str
    arrival: str
    seed: int
    n_jobs: int
    n_submitted: int
    n_completed: int
    #: Simulated time when the last job completed (or the run stopped).
    makespan_s: float
    throughput_jobs_per_s: float
    latency_mean_s: Optional[float]
    latency_p50_s: Optional[float]
    latency_p95_s: Optional[float]
    latency_p99_s: Optional[float]
    wait_p50_s: Optional[float]
    wait_p95_s: Optional[float]
    wait_p99_s: Optional[float]
    #: JobQ protocol counters.
    requests: int
    grants: int
    #: Candidate records the policy examined (the "indexed" guarantee:
    #: stays within a small constant factor of ``grants``).
    scanned: int
    #: Datagrams put on the wire (``NetCounters.sent``): the macro-level
    #: counterpart of Table 2's "Messages sent" row.
    messages_sent: int


def _synthetic_program(name: str = "traffic") -> JobProgram:
    """A minimal JobProgram so traffic records satisfy the JobQ schema
    (the traffic engine serves ``remaining_s`` instead of running it)."""
    prog = ThreadProgram(name)

    @prog.thread
    def root(frame, k):
        frame.send(k, None)

    return JobProgram(prog, root)


class _TrafficJobManager(PhishJobManager):
    """The paper's daemon with the traffic engine's two steps swapped in.

    The idle-wait -> ``request_job`` -> participate loop is
    :meth:`PhishJobManager._run`, unchanged.  Participation is the
    engine's quantum drain instead of a micro-level worker, and under an
    ``interrupt_driven`` policy the no-job wait parks on the JobQ's bell
    (with :data:`PARK_TIMEOUT_S` as the fallback wake) instead of polling.
    """

    def __init__(self, system: "TrafficSystem", workstation: Workstation) -> None:
        self.system = system
        cfg = system.config
        super().__init__(
            system.sim, workstation, system.network, system.jobq.host,
            JobManagerConfig(busy_poll_s=cfg.owner_poll_s,
                             no_job_retry_s=RETRY_S),
        )

    def _no_job_wait(self) -> "Event | Within":
        system = self.system
        if not system.policy.interrupt_driven:
            return super()._no_job_wait()
        return Within(system._bell.wait(), self.sim.timeout(PARK_TIMEOUT_S))

    def _participate(self, descriptor: dict) -> Generator:
        return self.system._serve(self, descriptor["job_id"])

    def _heard(self, notice: tuple) -> None:
        if notice[0] == "job_done":
            self.system._complete(notice[1])


class TrafficSystem:
    """A workstation network under synthetic production traffic.

    The real pieces: the :class:`PhishJobQ` RPC server with a real
    assignment policy, a :class:`PhishJobManager` daemon on every
    machine, simulated UDP underneath, owner sovereignty throughout.
    The synthetic piece: jobs are service demands the daemons drain in
    quanta instead of starting micro-level worker processes.
    """

    def __init__(
        self,
        config: Optional[TrafficConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = cfg = config or TrafficConfig()
        cfg.validate()
        self.sim = Simulator()
        self.rng = RngRegistry(cfg.seed)
        #: Callers that want health diagnosis pass a registry with a
        #: HealthMonitor already attached (``repro diagnose --app traffic``);
        #: one attached later is refused (the registry is subscribed here).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._health = self.metrics.health
        self.network, self.workstations = build_cluster(
            self.sim, cfg.n_workstations, SPARCSTATION_1, self.rng)
        self.owners: List[Owner] = [
            Owner(ws, self._owner_trace(i))
            for i, ws in enumerate(self.workstations)
        ]
        self.policy = make_policy(cfg.policy)
        self.jobq = PhishJobQ(
            self.sim, self.network, self.workstations[0].name,
            self.policy, probe=Probe.for_run(metrics=self.metrics),
        )
        #: Jobs some daemon owes (or has told) the JobQ a ``job_done`` for
        #: (exactly-once latch).
        self._completing: Set[int] = set()
        self.submitted = 0
        self.completed = 0
        #: Fired by the completion that makes ``completed == n_jobs``:
        #: what :meth:`run` stops on (a plain flag, not a kernel event —
        #: the run's event count is part of its fingerprint).
        self._all_done = Flag()
        self._last_done_at = 0.0
        self._m_sojourn = self.metrics.histogram(
            "macro.traffic.sojourn_s", DURATION_BUCKETS_S)
        self._program = _synthetic_program()
        self._schedule = self._build_schedule()
        #: Interrupt-driven work sharing: parked daemons wait on the
        #: bell; every pool change re-arms it and rings the old one.
        self._bell = Signal(self.sim)
        if self.policy.interrupt_driven:
            self.jobq.add_pool_listener(self._ring)
        self._submitter_proc = self.sim.process(
            self._submitter(), name="traffic-submitter")
        self.jobmanagers: Dict[str, PhishJobManager] = {
            ws.name: _TrafficJobManager(self, ws) for ws in self.workstations
        }

    # -- construction helpers ------------------------------------------

    def _owner_trace(self, index: int) -> OwnerTrace:
        cfg = self.config
        if cfg.owners == "idle":
            return AlwaysIdleTrace()
        events = workday_events(
            self.rng.stream(f"traffic.owner.{index}"),
            cfg.horizon_s, cfg.owner_busy_mean_s, cfg.owner_idle_mean_s,
        )
        return ReplayOwnerTrace.from_events(events)

    def _size_distribution(self) -> SizeDistribution:
        cfg = self.config
        if cfg.sizes == "pareto":
            return BoundedParetoSizes(PARETO_ALPHA, SIZE_LO_S, cfg.size_hi_s)
        if cfg.sizes == "exponential":
            return ExponentialSizes(cfg.size_mean_s)
        raise JobError(f"unknown size distribution {cfg.sizes!r}")

    def _build_schedule(self) -> List[Tuple[float, float, int]]:
        """Draw the whole workload up front: (time, size, owner) per job."""
        cfg = self.config
        arrivals = make_arrivals(cfg.arrival, cfg.rate_per_s)
        sizes = self._size_distribution()
        times = arrivals.times(self.rng.stream("traffic.arrivals"), cfg.n_jobs)
        size_rng = self.rng.stream("traffic.sizes")
        owner_rng = self.rng.stream("traffic.owners")
        schedule = []
        for t in times:
            size = sizes.sample(size_rng)
            # Quadratic skew: low-numbered users submit most of the
            # load, so fair-share has an imbalance to correct.
            owner = int(owner_rng.random() ** 2 * N_OWNERS)
            schedule.append((t, size, owner))
        return schedule

    # -- interrupt-driven sharing --------------------------------------

    def _ring(self) -> None:
        old, self._bell = self._bell, Signal(self.sim)
        old.set()

    # -- simulation processes ------------------------------------------

    def _submitter(self) -> Generator:
        cfg = self.config
        try:
            for when, size, owner_idx in self._schedule:
                delay = when - self.sim.now
                if delay > 0:
                    yield self.sim.timeout(delay)
                host = self.workstations[owner_idx % cfg.n_workstations].name
                self.jobq.submit_record(
                    self._program,
                    host,
                    owner=f"user{owner_idx}",
                    size_hint_s=size,
                    max_workers=cfg.max_workers_per_job,
                    register_first_worker=False,
                )
                self.submitted += 1
        except Interrupt:
            return

    def _serve(self, daemon: PhishJobManager, job_id: int) -> Generator:
        """Drain a granted job in quanta until done, drained, or reclaimed;
        the value is what the daemon now owes the JobQ."""
        cfg = self.config
        ws = daemon.workstation
        record = self.jobq.jobs[job_id]
        while True:
            if record.done or job_id in self._completing:
                break
            remaining = record.remaining_s or 0.0
            if remaining <= 0.0:
                break
            if ws.user_logged_in:
                break  # the owner is back: give the machine up now
            quantum = min(cfg.quantum_s, remaining)
            ws.charge(quantum)
            yield self.sim.timeout(quantum)
            record.remaining_s = max(0.0, (record.remaining_s or 0.0) - quantum)
        drained = (record.remaining_s or 0.0) <= 0.0
        if drained and not record.done and job_id not in self._completing:
            self._completing.add(job_id)
            return "job_done", job_id
        return daemon._release(job_id)

    def _complete(self, job_id: int) -> None:
        """Account for a job whose ``job_done`` the JobQ has heard."""
        cfg = self.config
        record = self.jobq.jobs[job_id]
        self.completed += 1
        self._all_done.fired = self.completed >= cfg.n_jobs
        self._last_done_at = max(self._last_done_at, record.finished_at)
        sojourn_s = record.finished_at - record.submitted_at
        self._m_sojourn.observe(sojourn_s)
        if self._health is not None and cfg.slo_s is not None:
            self._health.job_sojourn(self.sim.now, job_id, sojourn_s, cfg.slo_s)

    # -- driving and reporting -----------------------------------------

    def run(self) -> TrafficReport:
        """Run to completion (or the horizon) and report."""
        self.sim.run_until(self._all_done, self.config.horizon_s)
        return self.report()

    def stop(self) -> None:
        self.jobq.stop()
        self._submitter_proc.interrupt("traffic-stop")
        for daemon in self.jobmanagers.values():
            daemon.stop()

    def report(self) -> TrafficReport:
        cfg = self.config
        sojourn = self._m_sojourn
        wait = self.metrics.get("macro.jobq.wait_s")
        makespan = self._last_done_at if self.completed else self.sim.now
        return TrafficReport(
            policy=self.policy.name,
            arrival=cfg.arrival,
            seed=cfg.seed,
            n_jobs=cfg.n_jobs,
            n_submitted=self.submitted,
            n_completed=self.completed,
            makespan_s=makespan,
            throughput_jobs_per_s=(
                self.completed / makespan if makespan > 0 else 0.0),
            latency_mean_s=sojourn.mean,
            latency_p50_s=sojourn.percentile(0.50),
            latency_p95_s=sojourn.percentile(0.95),
            latency_p99_s=sojourn.percentile(0.99),
            wait_p50_s=wait.percentile(0.50) if wait is not None else None,
            wait_p95_s=wait.percentile(0.95) if wait is not None else None,
            wait_p99_s=wait.percentile(0.99) if wait is not None else None,
            requests=self.jobq.requests,
            grants=self.jobq.grants,
            scanned=self.policy.scanned,
            messages_sent=self.network.counters.sent,
        )


def run_traffic(
    config: Optional[TrafficConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> TrafficReport:
    """Build, run, and tear down one traffic simulation."""
    system = TrafficSystem(config, metrics=metrics)
    try:
        return system.run()
    finally:
        system.stop()
