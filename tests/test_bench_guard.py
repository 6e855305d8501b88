"""The kernel floor: a perf-regression guard against ``BENCH_kernel.json``.

``BENCH_kernel.json`` (repo root) is data: it locks in two DES-kernel
throughputs on the machine that recorded them — ``kernel`` (schedule
10,000 timeouts, then drain) and ``timeouts`` (50 generator processes
churning on a small quantized delay set, the steal-backoff regime).
This test re-measures both workloads with the shapes that recorded them
and fails on a >30% regression — wide enough to absorb run-to-run noise
of a best-of-N estimator, tight enough to catch a real slowdown in the
event-queue hot path.  Whole-stack numbers are stackbench's
(``stackbench/README.md``); this is the kernel-only floor beneath them.

The comparison is only meaningful on the machine that recorded the
baseline, so the test is marked ``bench_guard``: it runs in the default
local suite but CI deselects it (``-m "... and not bench_guard"``), and
it skips itself wherever the baseline file is absent.

To re-record after a *deliberate* change, run
``PYTHONPATH=src python tests/test_bench_guard.py`` on a quiet machine
and paste the two printed blocks over ``kernel`` and ``timeouts``
(docs/performance.md, "The kernel floor").
"""

import gc
import json
import time
from pathlib import Path

import pytest

from repro.sim.core import Simulator

pytestmark = pytest.mark.bench_guard

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE = REPO_ROOT / "BENCH_kernel.json"

#: Re-measured throughput must stay above this fraction of the record.
ALLOWED_FRACTION = 0.7

#: Below-floor measurements are retried this many times before failing.
RETRIES = 3

#: Seconds to idle before a retry, letting a throttled CPU quota refill.
COOLDOWN_S = 2.0

#: Both workloads' size; the recorded blocks are best of RECORD_REPEATS.
N_EVENTS = 10_000
RECORD_REPEATS = 10

#: The recurring deltas of the timeout-churn workload (steal backoffs
#: and friends), and how many processes sleep on them.
DELAYS = (0.0005, 0.001, 0.002, 0.004, 0.008)
N_PROCS = 50


def _best_of(fn, repeats):
    """(best wall seconds, last return value) over *repeats* calls.

    The collector is paused around each timed call: cyclic GC pauses
    scale with the size of the *host* process's heap (a pytest session
    holds far more live objects than a bare interpreter), which would
    otherwise make the same workload measure very differently in
    different harnesses.
    """
    best = float("inf")
    value = None
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            gc.disable()
            t0 = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - t0
            if gc_was_enabled:
                gc.enable()
                gc.collect(1)
            best = min(best, elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, value


def measure_kernel(repeats):
    """The ``kernel`` block: schedule N_EVENTS timeouts, then drain."""

    def run():
        sim = Simulator()
        for i in range(N_EVENTS):
            sim.timeout(float(i % 97))
        sim.run()
        return sim.events_processed

    best_s, processed = _best_of(run, repeats)
    assert processed == N_EVENTS
    return {"best_s": best_s, "events_per_s": N_EVENTS / best_s,
            "n_events": N_EVENTS, "repeats": repeats}


def measure_timeouts(repeats):
    """The ``timeouts`` block: pushes and pops interleave throughout, so
    the queue never leaves its steady state and the kernel's timeout
    free list is exercised on every iteration."""
    rounds = N_EVENTS // N_PROCS

    def run():
        sim = Simulator()

        def churn(sim, i):
            d = DELAYS[i % len(DELAYS)]
            for _ in range(rounds):
                yield sim.timeout(d)

        for i in range(N_PROCS):
            sim.process(churn(sim, i))
        sim.run()
        return sim.events_processed

    best_s, processed = _best_of(run, repeats)
    return {"best_s": best_s, "events_per_s": processed / best_s,
            "n_events": processed, "n_procs": N_PROCS, "repeats": repeats,
            "rounds": rounds}


def _recorded_rate(section):
    """The baseline events/s for one section, or skip the test."""
    if not BASELINE.exists():
        pytest.skip("no BENCH_kernel.json baseline recorded on this machine")
    try:
        recorded = json.loads(BASELINE.read_text())
    except ValueError:
        pytest.skip("BENCH_kernel.json is unreadable")
    rate = (recorded.get(section) or {}).get("events_per_s")
    if not rate:
        pytest.skip(f"baseline has no {section}.events_per_s entry")
    return rate


def _measure_above_floor(measure, floor):
    """Best rate over up to RETRIES attempts, stopping once above *floor*.

    Contention noise is one-sided — background load and cgroup
    throttling only ever make the workload look *slower* — so the max
    over retries converges on the machine's true capability.  The
    cool-down between attempts lets a depleted CPU quota refill after a
    long test session has been running flat out.
    """
    best = measure()
    for _ in range(RETRIES):
        if best >= floor:
            break
        time.sleep(COOLDOWN_S)
        best = max(best, measure())
    return best


def _guard(section, measure):
    recorded_rate = _recorded_rate(section)
    floor = ALLOWED_FRACTION * recorded_rate
    current = _measure_above_floor(
        lambda: measure(repeats=5)["events_per_s"], floor)
    assert current >= floor, (
        f"{section} throughput regressed: {current:,.0f} ev/s now vs "
        f"{recorded_rate:,.0f} ev/s recorded (floor {ALLOWED_FRACTION:.0%}); "
        f"if the slowdown is intentional, re-record by running this file "
        f"as a script"
    )


def test_kernel_throughput_has_not_regressed():
    _guard("kernel", measure_kernel)


def test_timeout_churn_throughput_has_not_regressed():
    """Guard the interleaved-timeout regime (steal backoffs, heartbeats,
    retry timers) separately from the push-all-then-drain workload: it
    exercises the calendar queue's steady state and timeout free list,
    which the drain barely touches."""
    _guard("timeouts", measure_timeouts)


if __name__ == "__main__":
    blocks = {"kernel": measure_kernel(RECORD_REPEATS),
              "timeouts": measure_timeouts(RECORD_REPEATS)}
    print(json.dumps(blocks, indent=2, sort_keys=True))
