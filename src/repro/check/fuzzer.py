"""Schedule-space fuzzer: many seeds, shrink whatever fails.

Each seed maps (via :meth:`Perturbation.generate`) to one legal but
perturbed schedule: a different same-time event interleaving, extra
message jitter, and possibly a crash or an owner reclaim.  :func:`fuzz`
runs a window of seeds of one registered application under the full
invariant checker and, for every failing seed, shrinks the perturbation
to a minimal reproducing schedule.

Reproduce a reported failure exactly::

    from repro.check import app_spec

    run = app_spec("fib").check(BAD_SEED, n_workers=4)
    print(run.report.summary())
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.check.harness import (
    CHECK_WORKER,
    CheckedRun,
    Perturbation,
    run_checked,
    shrink_perturbation,
)
from repro.errors import ReproError
from repro.micro.worker import WorkerConfig
from repro.tasks.program import JobProgram

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class AppSpec:
    """One fuzzable application: a job factory plus its result oracle."""

    name: str
    make: Callable[[], JobProgram]
    expected: Any
    #: Optional worker-config override (e.g. enable retirement so the
    #: shrink app actually exercises the departure protocol).
    worker_config: Optional[WorkerConfig] = None

    def check(
        self,
        seed: int,
        n_workers: int = 4,
        perturbation: Optional[Perturbation] = None,
        scenario: Optional[str] = "mixed",
        **kwargs: Any,
    ) -> CheckedRun:
        """One checked run of this app at *seed* — the one place a
        registered app's job, oracle and config meet :func:`run_checked`.

        The schedule is *perturbation* when given, else the point *seed*
        maps to under *scenario* (``None``: unperturbed).  *kwargs* go to
        :func:`run_checked` (``horizon_s``, ``bug``, ``metrics``, ``queue``).
        """
        if perturbation is None and scenario is not None:
            perturbation = Perturbation.generate(seed, n_workers, scenario=scenario)
        return run_checked(
            self.make(), n_workers=n_workers, seed=seed,
            perturbation=perturbation, expected=self.expected,
            worker_config=self.worker_config, **kwargs,
        )


def _builtin_apps() -> Dict[str, AppSpec]:
    from repro.apps.fib import fib_job, fib_serial
    from repro.apps.knary import knary_job, knary_nodes
    from repro.apps.shrink import shrink_expected, shrink_job

    return {
        "fib": AppSpec("fib", lambda: fib_job(14), fib_serial(14)),
        "knary": AppSpec("knary", lambda: knary_job(5, 4, 1), knary_nodes(5, 4)),
        "shrink": AppSpec(
            "shrink",
            lambda: shrink_job(12, 60),
            shrink_expected(12, 60),
            worker_config=dataclasses.replace(
                CHECK_WORKER, retire_after_failed_steals=4
            ),
        ),
    }


#: Applications the fuzzer knows how to run (small instances of the
#: paper's workloads, each with a closed-form oracle).
APPS: Dict[str, AppSpec] = _builtin_apps()


def app_spec(name: str) -> AppSpec:
    """The registered app called *name* (``ReproError`` if there is none)."""
    spec = APPS.get(name)
    if spec is None:
        raise ReproError(f"unknown app {name!r}; known: {sorted(APPS)}")
    return spec


@dataclass
class FuzzFailure:
    """One failing seed, with its shrunk reproduction."""

    seed: int
    perturbation: Perturbation
    shrunk: Perturbation
    report_summary: str
    completed: bool
    shrink_runs: int = 0


@dataclass
class FuzzResult:
    """Outcome of one :func:`fuzz` sweep."""

    app: str
    n_workers: int
    seeds: Tuple[int, ...]
    failures: List[FuzzFailure] = field(default_factory=list)
    bug: Optional[str] = None
    scenario: str = "mixed"

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (
            f"fuzz {self.app}: {len(self.seeds)} seeds x {self.n_workers} workers"
            + (f" [scenario: {self.scenario}]" if self.scenario != "mixed" else "")
            + (f" [injected bug: {self.bug}]" if self.bug else "")
        )
        if self.ok:
            return f"{head}\n  all schedules clean"
        lines = [f"{head}\n  {len(self.failures)} failing seed(s):"]
        extra = (f", scenario={self.scenario!r}" if self.scenario != "mixed" else "") + (
            f", bug={self.bug!r}" if self.bug else "")
        for f in self.failures:
            lines.append(
                f"  seed {f.seed}: {f.report_summary.splitlines()[0]}"
            )
            lines.append(f"    original schedule: {f.perturbation.describe()}")
            lines.append(
                f"    shrunk schedule:   {f.shrunk.describe()} "
                f"({f.shrink_runs} re-runs)"
            )
            lines.append(
                f"    reproduce: app_spec({self.app!r}).check({f.seed}, "
                f"{self.n_workers}{extra})"
            )
        return "\n".join(lines)


def fuzz(
    app: str = "fib",
    n_seeds: int = 25,
    start_seed: int = 0,
    n_workers: int = 4,
    bug: Optional[str] = None,
    shrink: bool = True,
    horizon_s: float = 60.0,
    progress: Optional[Callable[[int, CheckedRun], None]] = None,
    seeds: Optional[Sequence[int]] = None,
    metrics: Optional["MetricsRegistry"] = None,
    scenario: str = "mixed",
) -> FuzzResult:
    """Fuzz *n_seeds* schedules of one registered application.

    Args:
        app: key into :data:`APPS`.
        n_seeds: how many consecutive seeds to explore.
        start_seed: first seed of the window.
        n_workers: cluster size per run.
        bug: optional deliberate bug (see :data:`repro.check.BUGS`) —
            the sweep then *should* fail; used to validate the checker.
        shrink: shrink each failure to a minimal perturbation.
        progress: optional callback ``(seed, run)`` after each run.
        seeds: explicit seed list overriding ``n_seeds``/``start_seed``
            (how :func:`fuzz_sharded` hands each shard its range).
        metrics: optional registry receiving ``check.*`` counters and
            the per-seed wall-time histogram.
        scenario: perturbation scenario class (see
            :attr:`Perturbation.SCENARIOS`) — "partition" and "spike"
            force that network dynamic into every seed.
    """
    spec = app_spec(app)
    seed_window = (
        tuple(seeds) if seeds is not None
        else tuple(range(start_seed, start_seed + n_seeds))
    )
    result = FuzzResult(app=app, n_workers=n_workers, seeds=seed_window,
                        bug=bug, scenario=scenario)
    for seed in seed_window:
        seed_started = time.perf_counter()
        pert = Perturbation.generate(seed, n_workers, scenario=scenario)
        rerun = functools.partial(spec.check, seed, n_workers,
                                  horizon_s=horizon_s, bug=bug)
        try:
            run = rerun(pert)
        except Exception as exc:
            # Attach the owning seed: in a sharded run this crosses the
            # process boundary as text, so the context must be in the
            # message, not just the local traceback.
            raise ReproError(
                f"fuzz({app!r}) seed {seed} "
                f"[{pert.describe()}]: {type(exc).__name__}: {exc}"
            ) from exc
        if progress is not None:
            progress(seed, run)
        shrunk, shrink_runs = pert, 0
        if not run.ok and shrink:
            shrunk, shrink_runs = shrink_perturbation(rerun, pert)
        if metrics is not None:
            metrics.counter("check.seeds_run").inc()
            metrics.histogram("check.seed_wall_s").observe(
                time.perf_counter() - seed_started
            )
            if not run.ok:
                metrics.counter("check.failures").inc()
                metrics.counter("check.shrink_runs").inc(shrink_runs)
        if run.ok:
            continue
        result.failures.append(FuzzFailure(
            seed=seed,
            perturbation=pert,
            shrunk=shrunk,
            report_summary=run.report.summary(),
            completed=run.completed,
            shrink_runs=shrink_runs,
        ))
    return result


# ---------------------------------------------------------------------------
# Sharded fuzzing (see repro.parallel and docs/checking.md)
# ---------------------------------------------------------------------------


def _describe_shard(params: Dict[str, Any]) -> str:
    seeds = params["seeds"]
    if not seeds:
        return "no seeds"
    return f"seeds {seeds[0]}..{seeds[-1]} ({len(seeds)})"


def _run_fuzz_shard(params: Dict[str, Any]) -> Tuple[FuzzResult, Dict[str, Any]]:
    """Shard entry point (module-level so the pool can import it):
    :func:`fuzz`'s keyword arguments travel as a plain dict of picklable
    primitives (spawn-safe).

    Returns the shard's :class:`FuzzResult` plus its
    :class:`~repro.obs.metrics.MetricsRegistry` snapshot; both are
    plain picklable data.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    result = fuzz(**params, metrics=registry)
    return result, registry.snapshot()


@dataclass
class ShardedFuzz:
    """Outcome of :func:`fuzz_sharded`: the merged sweep plus how the
    fan-out executed and the combined metric snapshot."""

    result: FuzzResult
    stats: Any  # repro.parallel.PoolStats
    metrics: Dict[str, Any] = field(default_factory=dict)


def fuzz_sharded(
    app: str = "fib",
    n_seeds: int = 25,
    start_seed: int = 0,
    n_workers: int = 4,
    bug: Optional[str] = None,
    shrink: bool = True,
    horizon_s: float = 60.0,
    jobs: Optional[int] = 1,
    progress: Optional[Callable[[int, bool], None]] = None,
    shards_per_job: int = 4,
    scenario: str = "mixed",
) -> ShardedFuzz:
    """Shard a fuzz sweep's seed range across worker processes.

    The merged :class:`FuzzResult` is **byte-identical** to what the
    serial :func:`fuzz` produces for the same seed window: seeds are
    split into contiguous chunks, every chunk replays the exact serial
    per-seed logic (shrinking included, in the shard that owns the
    failing seed), and chunk results concatenate in order.  ``jobs=1``
    (or one seed) runs inline with no process machinery.

    Args:
        jobs: worker processes (None/0 = one per CPU, 1 = inline).
        progress: parent-side callback ``(seed, ok)`` per finished seed
            (bursts in shard-completion order when pooled).
        shards_per_job: chunks submitted per worker — finer chunks
            balance load when one shard hits a slow shrink cycle.
        scenario: perturbation scenario class, forwarded to every shard
            (see :attr:`Perturbation.SCENARIOS`).
    """
    from repro.obs.metrics import merge_snapshots
    from repro.parallel import ShardedRunner, resolve_jobs, split_evenly

    app_spec(app)  # an unknown app fails in the parent, not 4 children
    seeds = list(range(start_seed, start_seed + n_seeds))
    jobs = resolve_jobs(jobs)
    chunks = split_evenly(seeds, jobs * max(1, shards_per_job))
    shared = dict(app=app, n_workers=n_workers, bug=bug, shrink=shrink,
                  horizon_s=horizon_s, scenario=scenario)
    specs = [dict(shared, seeds=tuple(chunk)) for chunk in chunks]

    def on_result(_index: int, spec: Dict[str, Any], payload) -> None:
        if progress is None:
            return
        shard_result, _snap = payload
        failing = {f.seed for f in shard_result.failures}
        for seed in spec["seeds"]:
            progress(seed, seed not in failing)

    runner = ShardedRunner(jobs=jobs)
    payloads, stats = runner.map(
        _run_fuzz_shard, specs, label=f"fuzz({app})",
        describe=_describe_shard, on_result=on_result,
    )
    merged = FuzzResult(
        app=app, n_workers=n_workers, seeds=tuple(seeds), bug=bug,
        scenario=scenario,
    )
    for shard_result, _snap in payloads:
        merged.failures.extend(shard_result.failures)
    return ShardedFuzz(
        result=merged,
        stats=stats,
        metrics=merge_snapshots([snap for _res, snap in payloads]),
    )


# ---------------------------------------------------------------------------
# Queue-backend equivalence (the byte-identical-trace contract)
# ---------------------------------------------------------------------------


@dataclass
class BackendVerifyResult:
    """Outcome of one :func:`verify_queue_backends` sweep."""

    app: str
    n_workers: int
    seeds: Tuple[int, ...]
    #: Seeds whose reference (heap) and production (calendar) traces differed.
    mismatched: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatched

    def summary(self) -> str:
        head = (f"verify-queue {self.app}: {len(self.seeds)} seeds x "
                f"{self.n_workers} workers, heap vs calendar")
        if self.ok:
            return f"{head}\n  all traces byte-identical"
        return (f"{head}\n  {len(self.mismatched)} diverging seed(s): "
                f"{self.mismatched}")


def _verify_seed(params: Dict[str, Any]) -> bool:
    """Shard task: one seed on the reference and on the production
    queue; True when the two trace dumps match byte for byte."""
    spec, seed = app_spec(params["app"]), params["seed"]
    heap, calendar = (
        spec.check(seed, params["n_workers"], scenario=params["scenario"],
                   horizon_s=params["horizon_s"], queue=backend).trace.dump()
        for backend in ("heap", "calendar")
    )
    return heap == calendar


def verify_queue_backends(
    app: str = "fib",
    n_seeds: int = 50,
    start_seed: int = 0,
    n_workers: int = 4,
    horizon_s: float = 60.0,
    scenario: str = "mixed",
    progress: Optional[Callable[[int, bool], None]] = None,
    jobs: Optional[int] = 1,
) -> BackendVerifyResult:
    """Prove the production event queue against the reference on full
    cluster runs.

    For every seed, the same checked run (same job, same perturbation)
    executes once on the plain-``heapq`` reference kernel
    (``Simulator(queue="heap")``) and once on the production calendar
    queue; the two :class:`~repro.util.trace.TraceLog` dumps must match
    byte for byte.  This is the contract that lets the calendar queue be
    the kernel: any divergence — one message reordered, one timer fired
    in a different order — shows up as a trace diff on some seed
    (``repro check --verify-queue``; CI runs this on every push).
    ``jobs`` shards the seeds over :class:`~repro.parallel.ShardedRunner`;
    results come back in seed order, so the summary is the same at any
    ``jobs``.
    """
    from repro.parallel import ShardedRunner

    app_spec(app)  # an unknown app fails in the parent, not in every shard
    seed_window = tuple(range(start_seed, start_seed + n_seeds))
    shared = dict(app=app, n_workers=n_workers, scenario=scenario,
                  horizon_s=horizon_s)

    def on_result(_index: int, params: Dict[str, Any], ok: bool) -> None:
        if progress is not None:
            progress(params["seed"], ok)

    matches, _stats = ShardedRunner(jobs=jobs).map(
        _verify_seed, [dict(shared, seed=seed) for seed in seed_window],
        label=f"verify-queue({app})",
        describe=lambda params: f"{app} seed={params['seed']}",
        on_result=on_result,
    )
    return BackendVerifyResult(
        app=app, n_workers=n_workers, seeds=seed_window,
        mismatched=[seed for seed, ok in zip(seed_window, matches) if not ok],
    )
