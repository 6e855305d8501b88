"""Benchmark driver behind ``python -m repro.cli bench``.

Measures the simulation substrate itself — the thing that bounds how
large a reproduction run can get — and records the numbers in
``BENCH_kernel.json`` so later changes have a trajectory to beat:

* ``kernel``: raw timeout throughput of the DES kernel (the same 10k-event
  workload as ``benchmarks/test_kernel_throughput.py``).
* ``timeouts``: interleaved timeout churn — many generator processes
  sleeping on a small quantized delay set, the steal-backoff regime
  (``repro bench --profile timeouts``).
* ``process_switch``: generator-process ping-pong through a Store.
* ``fib`` / ``knary``: end-to-end macro-benchmarks — a full simulated
  cluster (workers, Clearinghouse, network) executing the paper's
  synthetic applications.

All wall-clock numbers are best-of-``repeats``: the minimum over several
runs is the standard low-noise estimator for CPU-bound microbenchmarks
(mean and max measure the machine's background load, not the code).
"""

from __future__ import annotations

import gc
import json
import platform
import time
from typing import Any, Callable, Dict, Optional, Tuple

#: Results file name; lives at the repository root by convention.
DEFAULT_OUT = "BENCH_kernel.json"

#: Schema version of the JSON payload.
SCHEMA = 1


def _best_of(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """(best wall seconds, last return value) over *repeats* calls.

    The collector is paused around each timed call: cyclic GC pauses
    scale with the size of the *host* process's heap (a pytest session
    holds far more live objects than the CLI), which would otherwise
    make the same workload measure very differently in different
    harnesses.
    """
    best = float("inf")
    value = None
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(max(1, repeats)):
            gc.disable()
            t0 = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - t0
            if gc_was_enabled:
                gc.enable()
                gc.collect(1)
            if elapsed < best:
                best = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, value


def bench_kernel(n_events: int = 10_000, repeats: int = 10) -> Dict[str, Any]:
    """Raw timeout scheduling + processing rate of the DES kernel.

    Mirrors ``test_kernel_event_throughput`` exactly so the recorded
    number and the pytest-benchmark number describe the same workload.
    """
    from repro.sim.core import Simulator

    def run() -> int:
        sim = Simulator()
        for i in range(n_events):
            sim.timeout(float(i % 97))
        sim.run()
        return sim.events_processed

    best_s, processed = _best_of(run, repeats)
    assert processed == n_events
    return {
        "n_events": n_events,
        "repeats": repeats,
        "best_s": best_s,
        "events_per_s": n_events / best_s,
    }


def bench_timeouts(n_events: int = 10_000, repeats: int = 10) -> Dict[str, Any]:
    """Pure-timeout churn matching the steal-backoff regime.

    Unlike :func:`bench_kernel` (schedule everything, then drain), this
    keeps ~50 generator processes alive, each repeatedly sleeping on a
    delay drawn from a small quantized set — the shape the micro
    scheduler's steal backoff, heartbeat, and retry timers produce.
    Pushes and pops interleave throughout, so the queue never leaves its
    steady state, and the calendar backend's timeout free list is
    exercised on every iteration.
    """
    from repro.sim.core import Simulator

    #: A handful of recurring deltas, like steal_backoff_s and friends.
    delays = (0.0005, 0.001, 0.002, 0.004, 0.008)
    n_procs = 50
    rounds = max(1, n_events // n_procs)

    def run() -> int:
        sim = Simulator()

        def churn(sim, i):
            d = delays[i % len(delays)]
            for _ in range(rounds):
                yield sim.timeout(d)

        for i in range(n_procs):
            sim.process(churn(sim, i))
        sim.run()
        return sim.events_processed

    best_s, processed = _best_of(run, repeats)
    return {
        "n_events": processed,
        "n_procs": n_procs,
        "rounds": rounds,
        "repeats": repeats,
        "best_s": best_s,
        "events_per_s": processed / best_s,
    }


def bench_process_switch(n_roundtrips: int = 1_000, repeats: int = 5) -> Dict[str, Any]:
    """Generator-process ping-pong through a Store (context-switch cost)."""
    from repro.sim.core import Simulator
    from repro.sim.resources import Store

    def run() -> int:
        sim = Simulator()
        a_to_b, b_to_a = Store(sim), Store(sim)

        def ping(sim):
            for i in range(n_roundtrips):
                yield a_to_b.put(i)
                yield b_to_a.get()

        def pong(sim):
            for _ in range(n_roundtrips):
                value = yield a_to_b.get()
                yield b_to_a.put(value)

        sim.process(ping(sim))
        sim.process(pong(sim))
        sim.run()
        return sim.events_processed

    best_s, events = _best_of(run, repeats)
    return {
        "n_roundtrips": n_roundtrips,
        "repeats": repeats,
        "best_s": best_s,
        "events": events,
        "roundtrips_per_s": n_roundtrips / best_s,
    }


def bench_fib(n: int = 16, workers: int = 4, repeats: int = 3) -> Dict[str, Any]:
    """Macro-benchmark: simulated cluster executing fib(*n*)."""
    from repro.apps.fib import fib_job, fib_serial
    from repro.phish import run_job

    def run():
        return run_job(fib_job(n), n_workers=workers, seed=0)

    best_s, result = _best_of(run, repeats)
    assert result.result == fib_serial(n)
    tasks = result.stats.tasks_executed
    return {
        "n": n,
        "workers": workers,
        "repeats": repeats,
        "best_s": best_s,
        "tasks": tasks,
        "tasks_per_s": tasks / best_s,
        "makespan_sim_s": result.makespan,
    }


def bench_knary(n: int = 5, k: int = 5, r: int = 2, workers: int = 4,
                repeats: int = 3) -> Dict[str, Any]:
    """Macro-benchmark: the paper's synthetic knary(n, k, r) tree."""
    from repro.apps.knary import knary_job
    from repro.phish import run_job

    def run():
        return run_job(knary_job(n, k, r), n_workers=workers, seed=0)

    best_s, result = _best_of(run, repeats)
    tasks = result.stats.tasks_executed
    return {
        "n": n,
        "k": k,
        "r": r,
        "workers": workers,
        "repeats": repeats,
        "best_s": best_s,
        "tasks": tasks,
        "tasks_per_s": tasks / best_s,
        "makespan_sim_s": result.makespan,
    }


#: ``run_bench`` profiles: which benchmark sections a run measures.
PROFILES = ("full", "timeouts")


def run_bench(repeats: int = 10, quick: bool = False,
              profile: str = "full") -> Dict[str, Any]:
    """Run a benchmark profile and return the results dict (not yet written).

    ``profile="full"`` measures everything; ``profile="timeouts"`` only
    the timeout-churn microbench (a partial record — :func:`write_bench`
    merges it over the existing file without clobbering other sections).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown bench profile {profile!r}; known: {PROFILES}")
    macro_repeats = 1 if quick else 3
    kernel_repeats = max(3, repeats // 3) if quick else repeats
    results: Dict[str, Any] = {
        "schema": SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if profile == "timeouts":
        results["timeouts"] = bench_timeouts(repeats=kernel_repeats)
        return results
    results["kernel"] = bench_kernel(repeats=kernel_repeats)
    results["timeouts"] = bench_timeouts(repeats=kernel_repeats)
    results["process_switch"] = bench_process_switch(repeats=max(2, kernel_repeats // 2))
    results["fib"] = bench_fib(repeats=macro_repeats)
    results["knary"] = bench_knary(repeats=macro_repeats)
    return results


def format_bench(results: Dict[str, Any]) -> str:
    """Human-readable summary; tolerates partial/empty results dicts.

    Missing sections render as ``(not measured)`` rather than raising —
    the CLI may be asked to print a hand-edited or truncated file.
    """
    from repro.experiments.report import render_table

    rows = []
    kernel = results.get("kernel") or {}
    if kernel:
        rows.append(("kernel events/s", f"{kernel.get('events_per_s', 0):,.0f}",
                     f"best of {kernel.get('repeats', '?')}"))
    touts = results.get("timeouts") or {}
    if touts:
        rows.append(("timeout churn events/s", f"{touts.get('events_per_s', 0):,.0f}",
                     f"{touts.get('n_procs', '?')} procs, "
                     f"best of {touts.get('repeats', '?')}"))
    switch = results.get("process_switch") or {}
    if switch:
        rows.append(("process roundtrips/s", f"{switch.get('roundtrips_per_s', 0):,.0f}",
                     f"best of {switch.get('repeats', '?')}"))
    for name in ("fib", "knary"):
        macro = results.get(name) or {}
        if macro:
            rows.append((f"{name} tasks/s", f"{macro.get('tasks_per_s', 0):,.0f}",
                         f"{macro.get('tasks', '?')} tasks, "
                         f"{macro.get('workers', '?')} workers"))
    if not rows:
        rows.append(("(not measured)", "-", "-"))
    title = "Substrate benchmarks"
    recorded = results.get("recorded_at")
    if recorded:
        title += f" — {recorded}"
    return render_table(title, ["benchmark", "rate", "notes"], rows)


#: Historical baseline blocks that must survive every re-record: the
#: seed kernel (``pre_overhaul``, recorded before PR 2's queue overhaul),
#: the three-mode heap kernel (``pre_calendar``, recorded before the
#: calendar-queue backend became the default) and the generator-per-task
#: worker (``pre_fastpath``, the fib/knary rows before the flat dispatch
#: path).  They are the trajectory the README's perf table tells; a
#: re-record may never lose them.
HISTORY_KEYS = ("pre_overhaul", "pre_calendar", "pre_fastpath")


def write_bench(results: Dict[str, Any], out_path: str = DEFAULT_OUT) -> None:
    """Write *results* as pretty-printed JSON, preserving history.

    The recorded file may carry keys this run does not produce — e.g.
    a full record over a ``--profile timeouts`` partial, or vice versa.
    Any such key in the existing file is merged back in rather than
    clobbered; keys the new results do produce win — except the
    :data:`HISTORY_KEYS` baseline blocks, where the *recorded* value
    always wins (history is written once, by hand, and a later
    re-record must carry it forward verbatim).
    """
    existing = load_bench(out_path) or {}
    merged = dict(results)
    for key, value in existing.items():
        if key not in merged or key in HISTORY_KEYS:
            merged[key] = value
    with open(out_path, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench(path: str = DEFAULT_OUT) -> Optional[Dict[str, Any]]:
    """Load a recorded results file, or None if absent/unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
