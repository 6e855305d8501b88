#!/usr/bin/env python3
"""Compare two stackbench result files, A (the base) and B.

    python3 stackbench/compare.py A.json B.json

A and B are what ``run.py --out`` wrote (or one workload's detail file
from ``stackbench/out/``).  One row per workload and end-to-end metric:
both medians, B / A, the bound from BENCHMARK.json and a verdict.

    ok          B is not worse than A by more than the bound
    worse       it is
    unresolved  the quartile spread inside either run exceeds the bound,
                so the runs cannot tell

``sim`` numbers — sim_makespan_s, sim_digest and every exact count — are
compared for equality when both files used the same seed.  Exits 1 on any
``worse`` or ``DIFFERENT``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Which samples give an end-to-end metric its spread.  work_per_s and
#: events_per_s are a count divided by host_wall_s; peak_rss_mb is read once.
SPREAD_OF = {"setup_s": "setup_s", "host_wall_s": "host_wall_s",
             "work_per_s": "host_wall_s", "events_per_s": "host_wall_s"}


def load(path: str) -> Dict[str, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}


def relative_spread(run: dict, metric: str) -> float:
    source = SPREAD_OF.get(metric)
    if source is None:
        return 0.0
    spread = run["spread"][source]
    return (spread["q3"] - spread["q1"]) / run["end_to_end"][source]


def compare(a_runs: Dict[str, dict], b_runs: Dict[str, dict], spec: dict) -> int:
    status = 0
    print(f"{'workload':20s} {'metric':15s} {'A':>14s} {'B':>14s} {'B/A':>8s} "
          f"{'bound':>6s}  verdict")
    for name in a_runs:
        if name not in b_runs:
            print(f"{name:20s} missing from B")
            status = 1
            continue
        a, b = a_runs[name], b_runs[name]
        same_seed = a["workload_seed"] == b["workload_seed"] and a["smoke"] == b["smoke"]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = a["end_to_end"][key], b["end_to_end"][key]
            ratio = vb / va
            if key == "sim_makespan_s":
                if not same_seed:
                    verdict = "not compared (seeds differ)"
                else:
                    verdict = "identical" if repr(va) == repr(vb) else "DIFFERENT"
                bound_shown = "exact"
            else:
                worsening = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                spread = max(relative_spread(a, key), relative_spread(b, key))
                if spread > bound:
                    verdict = f"unresolved (spread {spread:.1%})"
                else:
                    verdict = "worse" if worsening > bound else "ok"
                bound_shown = f"{bound:.0%}"
            if verdict in ("worse", "DIFFERENT"):
                status = 1
            print(f"{name:20s} {key:15s} {va:14.6g} {vb:14.6g} {ratio:8.4f} "
                  f"{bound_shown:>6s}  {verdict}")
        if not same_seed:
            continue
        different: List[str] = [
            key for key in a["counts"] if a["counts"][key] != b["counts"].get(key)]
        if a["sim_digest"] != b["sim_digest"]:
            different.append("sim_digest")
        if different:
            status = 1
        print(f"{name:20s} {'sim_digest+counts':15s} "
              f"{'DIFFERENT: ' + ' '.join(different) if different else 'identical'}")
    return status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
