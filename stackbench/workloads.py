"""The five stackbench workloads.

Each workload is one call into the program's public API, sized so that a
different set of layers does most of the work (see README.md, "Why these
workloads").  ``run(seed, toy, spans)`` builds the inputs from the seed,
makes the call, checks the output and returns an :class:`Outcome` that
holds plain numbers only — nothing that keeps the simulation alive, so
one repetition's heap is garbage before the next one starts.

``toy=True`` is the small size used for the warm-up call and ``--smoke``.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.apps.fib import fib_job, fib_serial
from repro.apps.knary import knary_job, knary_nodes
from repro.check import fuzz
from repro.macro.traffic import TrafficConfig, TrafficSystem
from repro.obs.health import HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import SpanProfiler
from repro.phish import run_job

#: Family-2 metrics: exact counts read from the program's own counters
#: after a repetition.  ``sim`` numbers repeat exactly for a seed.
COUNT_UNITS: Dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_work": "1/work",
    "net.msgs_sent": "count",
    "net.bytes_sent": "bytes",
    "net.dropped": "count",
    "net.msgs_per_work": "1/work",
    "net.msgs_per_steal": "1/steal",
    "micro.tasks_executed": "count",
    "micro.tasks_stolen": "count",
    "micro.steal_requests_sent": "count",
    "micro.failed_steal_attempts": "count",
    "micro.steal_success_ratio": "ratio",
    "micro.synchronizations": "count",
    "micro.non_local_synchs": "count",
    "micro.syncs_per_task": "1/task",
    "micro.tasks_redone": "count",
    "micro.max_tasks_in_use": "count",
    "micro.avg_steal_latency_sim_s": "s",
    "macro.requests": "count",
    "macro.grants": "count",
    "macro.grant_ratio": "ratio",
    "macro.scanned_per_grant": "1/grant",
    "macro.latency_p95_sim_s": "s",
    "macro.wait_p95_sim_s": "s",
    "util.trace_events": "count",
    "util.trace_dropped": "count",
    "check.violations": "count",
    "check.incomplete": "count",
}

#: Host seconds per fuzz seed, from the progress callback (not exact).
HOST_COUNT_UNITS: Dict[str, str] = {
    "check.seed_wall_p50_ms": "ms",
    "check.seed_wall_p90_ms": "ms",
}

#: Worker counters summed over workers (and over seeds in check_fuzz).
_WORKER_SUMS = (
    "tasks_executed", "tasks_stolen", "steal_requests_sent",
    "failed_steal_attempts", "synchronizations", "non_local_synchs",
    "tasks_redone",
)

#: Fuzz windows are 100 consecutive seeds starting at a multiple of 100
#: below 10000.  All of 0..9999 were swept at the commit that added the
#: benchmark, and eight seeds do not run clean there: 1235, 2479, 3015,
#: 3686, 7474, 8237 and 9470 raise an unhandled Interrupt("machine-crash")
#: out of Worker._depart (a crash racing an owner reclaim), and 6835 does
#: not finish by the horizon.  Their windows are left out: a workload must
#: have no failing operation.
_BAD_FUZZ_WINDOWS = (1200, 2400, 3000, 3600, 6800, 7400, 8200, 9400)
_FUZZ_WINDOWS = tuple(
    s for s in range(0, 10_000, 100) if s not in _BAD_FUZZ_WINDOWS)


#: An unperturbed fib(14) run on 4 workers takes 0.0133 simulated seconds,
#: and 2 to 12 seeds of a window wait out 1.6 s of crash-recovery timeouts.
#: Their number decides a plain sum (81% quartile spread between windows),
#: so each seed's makespan is capped before averaging (12%).
FUZZ_MAKESPAN_CAP_S = 0.05


@dataclass
class Outcome:
    """What one repetition produced, as plain numbers."""

    #: Tasks executed / jobs completed / seeds checked.
    work: int
    #: Simulated seconds to the result (a capped mean over seeds for
    #: check_fuzz, see FUZZ_MAKESPAN_CAP_S).
    makespan_s: float
    attempted: int
    failed: int
    counts: Dict[str, float]
    #: Further deterministic output that goes into the digest.
    detail: str = ""
    #: Host seconds per fuzz seed, from the progress callback.
    seed_walls: List[float] = field(default_factory=list)
    #: What a closed form gives for some of *counts*, as text.
    predicted: Dict[str, str] = field(default_factory=dict)

    @property
    def sim_digest(self) -> str:
        """sha256 over every simulated number this repetition produced."""
        text = repr((self.work, repr(self.makespan_s),
                     sorted(self.counts.items()), self.detail))
        return hashlib.sha256(text.encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _finish_counts(raw: Counter, work: int) -> Dict[str, float]:
    """Every family-2 count: the raw ones, 0 by default, plus the ratios."""
    c = {name: raw[name] for name in COUNT_UNITS}
    c["sim.events_per_work"] = _ratio(c["sim.events"], work)
    c["net.msgs_per_work"] = _ratio(c["net.msgs_sent"], work)
    c["net.msgs_per_steal"] = _ratio(c["net.msgs_sent"], c["micro.tasks_stolen"])
    c["micro.steal_success_ratio"] = _ratio(
        c["micro.tasks_stolen"], c["micro.steal_requests_sent"])
    c["micro.syncs_per_task"] = _ratio(
        c["micro.synchronizations"], c["micro.tasks_executed"])
    c["micro.avg_steal_latency_sim_s"] = _ratio(
        raw["steal_latency_sum_s"], raw["steal_latency_count"])
    c["macro.grant_ratio"] = _ratio(c["macro.grants"], c["macro.requests"])
    c["macro.scanned_per_grant"] = _ratio(raw["scanned"], c["macro.grants"])
    return c


def _add_cluster_counts(raw: Counter, sim, network, workers=(), trace=None) -> None:
    """Add one finished simulation's public counters to *raw*."""
    net = network.counters
    raw["sim.events"] += sim.events_processed
    raw["net.msgs_sent"] += net.sent
    raw["net.bytes_sent"] += net.bytes_sent
    raw["net.dropped"] += (
        net.dropped_loss + net.dropped_unroutable + net.dropped_partition)
    for w in workers:
        st = w.stats
        for name in _WORKER_SUMS:
            raw[f"micro.{name}"] += getattr(st, name)
        raw["micro.max_tasks_in_use"] = max(
            raw["micro.max_tasks_in_use"], st.max_tasks_in_use)
        raw["steal_latency_sum_s"] += st.steal_latency_sum_s
        raw["steal_latency_count"] += st.steal_latency_count
    if trace is not None:
        raw["util.trace_events"] += len(trace)
        raw["util.trace_dropped"] += trace.dropped


def _job_outcome(result, expected, predicted_syncs: str = "") -> Outcome:
    raw: Counter = Counter()
    _add_cluster_counts(raw, result.sim, result.network, result.workers, result.trace)
    work = result.stats.tasks_executed
    counts = _finish_counts(raw, work)
    # The protocol's own closed forms.  Synchronisation crosses the network
    # only where a subtree was stolen (the property Rito & Paulino bound),
    # and a steal attempt is a request and a reply, so messages per steal
    # follow from the success ratio (the quantity Gast et al. bound through
    # the number of steal requests).  Registration, peer-list and
    # termination broadcasts come on top and are why the measured figure
    # is higher.
    predicted = {
        "micro.non_local_synchs": f"<= micro.tasks_stolen = {counts['micro.tasks_stolen']}",
        "net.msgs_per_steal": "{:.4g} = (2 x steal requests + non-local synchs) / steals"
        .format(_ratio(2 * counts["micro.steal_requests_sent"]
                       + counts["micro.non_local_synchs"], counts["micro.tasks_stolen"])),
    }
    if predicted_syncs:
        predicted["micro.syncs_per_task"] = predicted_syncs
    return Outcome(
        work=work,
        makespan_s=result.makespan,
        attempted=1,
        failed=int(result.result != expected),
        counts=counts,
        predicted=predicted,
    )


def _fib_n(toy: bool) -> int:
    return 14 if toy else 24


def _fib_syncs_per_task(n: int) -> str:
    """fib(n) makes I = fib(n+1) - 1 internal calls, each spawning two calls
    and one sum; the I + 1 leaves and the I sums send one argument each."""
    internal = fib_serial(n + 1) - 1
    return "{:.6g} = (2I+1)/(3I+1), I = fib({}) - 1".format(
        (2 * internal + 1) / (3 * internal + 1), n + 1)


def run_micro_fib(seed: int, toy: bool, spans) -> Outcome:
    """fib(24) on 8 workers: 225k tasks, ~1 event a task, next to no messages."""
    n = _fib_n(toy)
    return _job_outcome(run_job(fib_job(n), n_workers=8, seed=seed),
                        fib_serial(n), _fib_syncs_per_task(n))


def run_micro_steal(seed: int, toy: bool, spans) -> Outcome:
    """knary(7,6,5) on 64 workers: low parallelism, ~50k steal attempts."""
    n, k, r, workers = (4, 3, 2, 8) if toy else (7, 6, 5, 64)
    return _job_outcome(
        run_job(knary_job(n, k, r), n_workers=workers, seed=seed), knary_nodes(n, k))


def run_micro_fib_observed(seed: int, toy: bool, spans) -> Outcome:
    """micro_fib's call with every observer channel on."""
    n = _fib_n(toy)
    registry = MetricsRegistry()
    HealthMonitor(registry)
    result = run_job(fib_job(n), n_workers=8, seed=seed, trace=True,
                     metrics=registry, profiler=SpanProfiler())
    return _job_outcome(result, fib_serial(n), _fib_syncs_per_task(n))


def run_macro_traffic(seed: int, toy: bool, spans) -> Outcome:
    """8000 bursty jobs on 32 owned workstations under srp; no micro scheduler."""
    config = TrafficConfig(
        n_jobs=200 if toy else 8000, n_workstations=32, policy="srp",
        arrival="bursty", owners="workday", rate_per_s=1.0, seed=seed)
    # What run_traffic() does, kept open so the simulator's and the
    # network's counters can be read afterwards.
    system = TrafficSystem(config)
    try:
        report = system.run()
    finally:
        system.stop()
    raw: Counter = Counter()
    _add_cluster_counts(raw, system.sim, system.network)
    raw["macro.requests"] = report.requests
    raw["macro.grants"] = report.grants
    raw["scanned"] = report.scanned
    raw["macro.latency_p95_sim_s"] = report.latency_p95_s or 0.0
    raw["macro.wait_p95_sim_s"] = report.wait_p95_s or 0.0
    return Outcome(
        work=report.n_completed,
        makespan_s=report.makespan_s,
        attempted=config.n_jobs,
        failed=config.n_jobs - report.n_completed,
        counts=_finish_counts(raw, report.n_completed),
        detail=repr(report),
    )


def run_check_fuzz(seed: int, toy: bool, spans) -> Outcome:
    """100 perturbed fib(14) runs with full trace and invariant check."""
    n_seeds = 5 if toy else 100
    start = _FUZZ_WINDOWS[seed % len(_FUZZ_WINDOWS)]
    raw: Counter = Counter()
    makespans: List[float] = []
    failed = 0
    per_seed: List[Tuple] = []
    walls: List[float] = []
    last = time.perf_counter()

    def on_seed(fuzz_seed: int, run) -> None:
        nonlocal failed, last
        now = time.perf_counter()
        spans.add("seed", last, now)
        walls.append(now - last)
        _add_cluster_counts(raw, run.sim, run.network, run.workers, run.trace)
        raw["check.violations"] += len(run.report.violations)
        raw["check.incomplete"] += not run.completed
        makespans.append(run.makespan)
        failed += not (run.ok and run.completed)
        per_seed.append((fuzz_seed, run.sim.events_processed, repr(run.makespan)))
        # The callback's own cost is not part of the next seed's time.
        last = time.perf_counter()

    fuzz(app="fib", n_seeds=n_seeds, start_seed=start, n_workers=4,
         scenario="mixed", shrink=False, progress=on_seed)
    return Outcome(
        work=n_seeds,
        makespan_s=statistics.fmean(
            min(m, FUZZ_MAKESPAN_CAP_S) for m in makespans),
        attempted=n_seeds,
        failed=failed,
        counts=_finish_counts(raw, n_seeds),
        detail=repr(per_seed),
        seed_walls=walls,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    #: What ``work`` counts.
    unit: str
    run: Callable[[int, bool, object], Outcome]
    #: The workload seed is derived from ``--seed`` and this key.
    seed_key: str


#: BENCHMARK.json and README.md say why each was chosen.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("micro_fib", "tasks", run_micro_fib, "micro_fib"),
    Workload("micro_steal", "tasks", run_micro_steal, "micro_steal"),
    Workload("macro_traffic", "jobs", run_macro_traffic, "macro_traffic"),
    Workload("check_fuzz", "seeds", run_check_fuzz, "check_fuzz"),
    # micro_fib's seed key: the identity check compares the two.
    Workload("micro_fib_observed", "tasks", run_micro_fib_observed, "micro_fib"),
)}


def derive_seed(seed: int, key: str) -> int:
    """The seed a workload's inputs are made from."""
    digest = hashlib.sha256(f"{key}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


#: Simulated numbers the observers must leave untouched.
IDENTITY_KEYS = ("sim.events", "micro.tasks_executed", "net.msgs_sent")


def observers_perturb(observed: Outcome, seed: int, toy: bool, spans) -> List[str]:
    """Run plain micro_fib on the inputs *observed* had and list every
    simulated number on which the two disagree (none expected)."""
    plain = run_micro_fib(seed, toy, spans)
    problems = []
    if repr(plain.makespan_s) != repr(observed.makespan_s):
        problems.append(
            f"sim_makespan_s {observed.makespan_s!r} != plain {plain.makespan_s!r}")
    for key in IDENTITY_KEYS:
        if plain.counts[key] != observed.counts[key]:
            problems.append(
                f"{key} {observed.counts[key]} != plain {plain.counts[key]}")
    return problems
