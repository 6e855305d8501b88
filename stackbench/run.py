#!/usr/bin/env python3
"""stackbench: end-to-end and per-layer benchmark of the Phish simulator.

    python3 stackbench/run.py                      # all five workloads
    python3 stackbench/run.py --smoke              # toy sizes, < 15 s
    python3 stackbench/run.py --workload micro_fib --seed 3 --traced
    python3 stackbench/run.py --layers             # isolated op costs only

Without ``--workload`` each workload runs in a fresh process and the results
are gathered into ``--out``.  With it, this process is the run: set-up, one
warm-up call, then timed repetitions of one public call for ``--seconds``
(at least ``MIN_REPS``); ``--trace 1`` makes one untraced and one cProfile'd
repetition instead and prints the per-layer metrics.  Host times are scaled
to nominal machine speed (see MachineSpeed).  The last line of standard
output is the result as one JSON object.  README.md has the metric
definitions.
"""

from __future__ import annotations

import argparse
import cProfile
import fcntl
import gc
import heapq
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REPS = 3
SETUP_SAMPLES = 5
REFERENCE_EVENTS = 250_000
#: What the reference loop takes on the sandbox this benchmark was recorded
#: on while its neighbours are quiet.
REFERENCE_NOMINAL_S = 0.225
#: Warn when the quartile spread of host_wall_s exceeds this share of its median.
SPREAD_WARN = 0.05

#: Packages under src/repro that the workloads execute.  ``python`` takes the
#: rest: builtins, the standard library, the facade repro/phish.py and the
#: harness's own frames.
LAYERS = ("sim", "net", "micro", "tasks", "clearinghouse", "macro", "cluster",
          "util", "obs", "check", "apps", "python")

UNVALIDATED = ("sim numbers come from a model that is unvalidated against "
               "hardware: the repo holds no reference, so no error figure")


class Spans:
    """In-memory spans the harness owns: name, start, end, parent."""

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self._open: List[int] = []

    def add(self, name: str, start: float, end: Optional[float]) -> dict:
        row = {"id": len(self.rows), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": start, "end": end}
        self.rows.append(row)
        return row

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        row = self.add(name, time.perf_counter(), None)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def take_lock():
    """Refuse to time next to another stackbench run of this checkout.

    Returns the locked file; closing it releases the lock.  The parent of a
    multi-workload run does not take it; its children do, one at a time.
    """
    OUT.mkdir(exist_ok=True)
    handle = open(OUT / ".lock", "w")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.close()
        raise SystemExit(
            "stackbench: another stackbench process is timing in this checkout; "
            "two timed runs on a 2-core machine disturb each other — refusing")
    return handle


def child_command(args, workload: str, *extra: str) -> List[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.smoke:
        cmd.append("--smoke")
    return cmd


class _Event:
    __slots__ = ("time", "callback", "value")

    def __init__(self, time, callback, value):
        self.time = time
        self.callback = callback
        self.value = value


def reference_s() -> float:
    """Host seconds of a fixed loop in the simulator's idiom (slotted events
    through a small heap, a dict, a generator resumed through a bound
    method).  It uses the standard library only, so no change to the
    program can move it, and it keeps next to nothing alive."""
    def accumulate():
        total = 0
        while True:
            total += yield total

    process = accumulate()
    next(process)
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    now = 0.0
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(REFERENCE_EVENTS):
            event = _Event(now + ((i * 7919) % 97) * 0.001, process.send, i)
            push(heap, (event.time, i, event))
            table[i & 1023] = event
            if len(heap) > 256:
                due = pop(heap)[2]
                now = due.time
                due.callback(due.value)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Timed(NamedTuple):
    raw_s: float
    #: raw_s at nominal machine speed.
    scaled_s: float
    value: Any


class MachineSpeed:
    """Scales host timings to the machine's nominal speed.

    The sandbox's speed drifts with its neighbours: the same code runs up
    to 1.7x slower for minutes at a time, and a time measured then says
    nothing about the program.  The reference loop is timed before and
    after every timed call, and the call's seconds are multiplied by
    ``REFERENCE_NOMINAL_S / (mean of the two)``: what the call would have
    taken had the machine run at nominal speed throughout.
    """

    def __init__(self) -> None:
        self.reference_samples = [reference_s()]

    def timed(self, call) -> Timed:
        before = self.reference_samples[-1]
        t0 = time.perf_counter()
        value = call()
        raw = time.perf_counter() - t0
        after = reference_s()
        self.reference_samples.append(after)
        return Timed(raw, raw * REFERENCE_NOMINAL_S / ((before + after) / 2), value)


def run_rep(workload, seed: int, toy: bool, spans: Spans,
            profile: Optional[cProfile.Profile] = None):
    """One repetition with the collector off; returns its Outcome."""
    gc.collect()
    gc.disable()
    try:
        with spans.span("rep"):
            if profile is None:
                return workload.run(seed, toy, spans)
            return profile.runcall(workload.run, seed, toy, spans)
    finally:
        gc.enable()


def attribute(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Per-layer self time, share and cross-layer entries of a profile."""
    prefix = str(SRC / "repro") + os.sep
    layer_of_file: Dict[str, str] = {}

    def layer_of(func) -> str:
        filename = func[0]
        layer = layer_of_file.get(filename)
        if layer is None:
            layer = "python"
            path = os.path.abspath(filename)
            if path.startswith(prefix):
                package = path[len(prefix):].split(os.sep, 1)[0]
                if package in LAYERS:
                    layer = package
            layer_of_file[filename] = layer
        return layer

    table = {layer: {"self_s": 0.0, "self_frac": 0.0, "entries": 0}
             for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, callers) in pstats.Stats(profile).stats.items():
        layer = layer_of(func)
        row = table[layer]
        row["self_s"] += tottime
        for caller, counts in callers.items():
            if layer_of(caller) != layer:
                row["entries"] += counts[0]
    total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["self_frac"] = row["self_s"] / total
    return table


def contract_metrics(spec_list: List[dict], values: Dict[str, float]) -> dict:
    """The metrics of one mode, named and united as BENCHMARK.json lists them."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_list}


def print_counts(kind: str, counts: Dict[str, float], units: Dict[str, str],
                 predicted: Dict[str, str]) -> None:
    for name, value in counts.items():
        if not value:
            continue
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        line = f"    {kind:4s} {name:32s} {shown:>14s} {units[name]}"
        if name in predicted:
            line += f"   predicted {predicted[name]}"
        print(line)
    zero = [name for name, value in counts.items() if not value]
    if zero:
        print(f"    {kind:4s} 0: {' '.join(zero)}")


def run_workload(args, spec: dict) -> int:
    env = environment()
    spans = Spans()
    speed = MachineSpeed()
    toy = args.smoke

    # A fresh process that does the set-up and nothing else: interpreter
    # start, imports, input build, warm-up call, exit.
    setup_command = child_command(args, args.workload, "--setup-only")
    with spans.span("setup_samples"):
        setups = [speed.timed(lambda: subprocess.run(setup_command, check=True))
                  for _ in range(1 if args.smoke else SETUP_SAMPLES)]
    with spans.span("setup"):
        from workloads import (COUNT_UNITS, HOST_COUNT_UNITS, WORKLOADS,
                               derive_seed, observers_perturb)
        workload = WORKLOADS[args.workload]
        seed = derive_seed(args.seed, workload.seed_key)
        with spans.span("warmup"):
            warm = workload.run(seed, True, spans)

    def rep(profile=None):
        return speed.timed(lambda: run_rep(workload, seed, toy, spans, profile))

    reps = []
    traced = None
    if args.trace:
        reps.append(rep())
        profile = cProfile.Profile()
        traced = rep(profile)
    else:
        min_reps, budget_s = (1, 0.0) if args.smoke else (MIN_REPS, args.seconds)
        started = time.perf_counter()
        while len(reps) < min_reps or time.perf_counter() - started < budget_s:
            reps.append(rep())
    outcomes = [t.value for t in reps]
    first = outcomes[0]

    # -- correctness ----------------------------------------------------
    problems: List[str] = []
    digests = {o.sim_digest for o in outcomes}
    if traced is not None:
        digests.add(traced.value.sim_digest)
    if toy:
        digests.add(warm.sim_digest)  # the warm-up was the same call
    if len(digests) != 1:
        problems.append(f"sim_digest differs between repetitions: {sorted(digests)}")
    if args.workload == "micro_fib_observed":
        with spans.span("identity_check"):
            problems += observers_perturb(first, seed, toy, spans)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    correct = not problems

    # -- metrics --------------------------------------------------------
    walls = [t.scaled_s for t in reps]
    q1, wall_median, q3 = quartiles(walls)
    setup_q1, setup_median, setup_q3 = quartiles([t.scaled_s for t in setups])
    reference_median = statistics.median(speed.reference_samples)
    end_to_end = {
        "setup_s": setup_median,
        "host_wall_s": wall_median,
        "work_per_s": first.work / wall_median,
        "events_per_s": first.counts["sim.events"] / wall_median,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_makespan_s": first.makespan_s,
    }
    seed_walls = sorted(w for o in outcomes for w in o.seed_walls)
    host_counts = {
        name: 1000 * seed_walls[int(q * (len(seed_walls) - 1))] if seed_walls else 0.0
        for name, q in zip(HOST_COUNT_UNITS, (0.50, 0.90))}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": seed,
        "smoke": args.smoke,
        "env": env,
        "note": UNVALIDATED,
        "work_unit": workload.unit,
        "reps": len(reps),
        "end_to_end": end_to_end,
        "spread": {
            "host_wall_s": {"q1": q1, "q3": q3, "n": len(walls)},
            "setup_s": {"q1": setup_q1, "q3": setup_q3, "n": len(setups)},
        },
        "samples": {
            "host_wall_s": walls,
            "host_wall_raw_s": [t.raw_s for t in reps],
            "setup_s": [t.scaled_s for t in setups],
            "setup_raw_s": [t.raw_s for t in setups],
            "reference_s": speed.reference_samples,
        },
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "counts": first.counts,
        "host_counts": host_counts,
        "predicted": first.predicted,
        "sim_digest": first.sim_digest,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "problems": problems,
    }

    print(f"stackbench {args.workload}: seed {args.seed} (workload seed {seed}), "
          f"{len(reps)} untraced rep(s){', smoke size' if toy else ''}")
    print(f"  {UNVALIDATED}")
    print(f"  host times below are scaled to nominal machine speed; the reference "
          f"loop took {1000 * reference_median:.1f} ms (nominal "
          f"{1000 * REFERENCE_NOMINAL_S:.0f} ms)")
    print(f"  host  setup_s        {setup_median:12.4f} s   "
          f"(q1 {setup_q1:.4f} q3 {setup_q3:.4f}, {len(setups)} fresh processes)")
    print(f"  host  host_wall_s    {wall_median:12.4f} s   "
          f"(q1 {q1:.4f} q3 {q3:.4f}, {len(reps)} reps)")
    print(f"  host  work_per_s     {end_to_end['work_per_s']:12.1f} {workload.unit}/s")
    print(f"  host  events_per_s   {end_to_end['events_per_s']:12.1f} 1/s")
    print(f"  host  peak_rss_mb    {end_to_end['peak_rss_mb']:12.1f} MB")
    print(f"  sim   sim_makespan_s {first.makespan_s!r:>12} s")
    print(f"  sim   sim_digest     {first.sim_digest}")
    print(f"  counts of one repetition (work = {workload.unit}):")
    print_counts("sim", first.counts, COUNT_UNITS, first.predicted)
    print_counts("host", host_counts, HOST_COUNT_UNITS, {})
    if len(walls) > 1 and (q3 - q1) > SPREAD_WARN * wall_median:
        print(f"stackbench: warning: host_wall_s quartile spread "
              f"{(q3 - q1) / wall_median:.1%} of the median exceeds "
              f"{SPREAD_WARN:.0%}; the machine is noisy", file=sys.stderr)

    if traced is None:
        metrics = contract_metrics(spec["end_to_end"], end_to_end)
        out_path = OUT / f"{args.workload}.json"
    else:
        from layers import measure_layer_ops

        with spans.span("layer_ops"):
            layer_ops = measure_layer_ops()
        layers = attribute(profile)
        overhead = traced.scaled_s / wall_median
        per_layer = {**first.counts, **host_counts, **layer_ops,
                     "bench.trace_overhead_x": overhead,
                     "bench.reference_ms": 1000 * reference_median}
        print(f"  per-layer attribution of one cProfile'd rep ({traced.raw_s:.2f} s as "
              f"measured, {overhead:.2f}x the untraced rep); self_s is as measured:")
        print(f"    {'layer':14s} {'self_s':>9s} {'self_frac':>9s} {'entries':>10s}")
        for layer, row in layers.items():
            print(f"    {layer:14s} {row['self_s']:9.3f} {row['self_frac']:9.3f} "
                  f"{row['entries']:10d}")
            for key, value in row.items():
                per_layer[f"{layer}.{key}"] = value
        print_layer_ops(layer_ops)
        metrics = contract_metrics(spec["per_layer"], per_layer)
        detail.update(layers=layers, layer_ops=layer_ops, trace_overhead_x=overhead,
                      traced_wall_raw_s=traced.raw_s, spans=spans.rows)
        out_path = OUT / f"{args.workload}.trace.json"

    for problem in problems:
        print(f"stackbench: FAILED CHECK: {problem}", file=sys.stderr)
    with open(out_path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """One fresh process per workload; gather their detail files."""
    OUT.mkdir(exist_ok=True)
    results = {"seed": args.seed, "smoke": args.smoke, "env": environment(),
               "note": UNVALIDATED, "workloads": {}, "traced": {}}
    status = 0
    started = time.perf_counter()
    for entry in spec["workloads"]:
        name = entry["name"]
        modes = [("0", "workloads", f"{name}.json")]
        if args.trace:
            modes.append(("1", "traced", f"{name}.trace.json"))
        for trace, section, filename in modes:
            code = subprocess.run(child_command(args, name, "--trace", trace)).returncode
            if code != 0:
                print(f"stackbench: {name} --trace {trace} exited {code}", file=sys.stderr)
                status = 1
                continue
            with open(OUT / filename) as fh:
                results[section][name] = json.load(fh)
    out_path = Path(args.out) if args.out else OUT / "results.json"
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"stackbench: {len(results['workloads'])}/{len(spec['workloads'])} "
          f"workloads ok in {time.perf_counter() - started:.1f} s; wrote {out_path}")
    return status


def print_layer_ops(layer_ops: Dict[str, float]) -> None:
    from layers import LAYER_OP_UNITS, REPEATS

    print(f"  isolated op costs (host, best of {REPEATS}):")
    for name, value in layer_ops.items():
        print(f"    {name:34s} {value:12.2f} {LAYER_OP_UNITS[name]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long the timed repetitions go on "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one rep, all checks")
    parser.add_argument("--layers", action="store_true",
                        help="only the isolated op costs")
    parser.add_argument("--out", help="where a multi-workload run writes its results")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"stackbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(SRC))  # the driver sets no PYTHONPATH

    if args.setup_only:
        from workloads import WORKLOADS, derive_seed
        workload = WORKLOADS[args.workload]
        workload.run(derive_seed(args.seed, workload.seed_key), True, Spans())
        return 0
    if args.workload is None and not args.layers:
        return run_all(args, spec)
    with take_lock():
        if args.layers:
            from layers import measure_layer_ops
            print_layer_ops(measure_layer_ops())
            return 0
        return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
