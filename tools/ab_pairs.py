#!/usr/bin/env python3
"""Alternating parent/change pairs of one stackbench workload.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs 10]
                              [--seed 5] [--metric work_per_s]

Runs ``stackbench/run.py --workload W --seed S`` in the two checkouts,
alternating which side goes first, and prints each side's median and
quartiles, the pairs the change won, the choosing-metrics section 8
verdict (a gain needs >= 9/10 of the pairs, ties counting for neither,
and a median gap wider than the parent's inter-quartile distance) and
``compare.py``'s sim-equality line.  Run length and every other setting
are the checkouts' own ``BENCHMARK.json``.  Exits 1 when the sim numbers
differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence, Tuple


def verdict(parent: Sequence[float], change: Sequence[float],
            higher_is_better: bool = True) -> Tuple[str, int, float, float]:
    """``(verdict, pairs_won, median_gap, parent_iqr)`` for paired runs.

    ``median_gap`` is signed so that positive means the change is better.
    The verdict is ``"gain"`` when the change won at least nine tenths of
    all pairs and the gap exceeds the parent's inter-quartile distance,
    ``"loss"`` for the mirror image, else ``"unresolved"``.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number (>= 2) of runs on each side")
    sign = 1.0 if higher_is_better else -1.0
    deltas = [sign * (c - p) for p, c in zip(parent, change)]
    won = sum(d > 0 for d in deltas)
    lost = sum(d < 0 for d in deltas)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    q1, _median, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    needed = 0.9 * len(deltas)
    if won >= needed and gap > iqr:
        return "gain", won, gap, iqr
    if lost >= needed and -gap > iqr:
        return "loss", won, gap, iqr
    return "unresolved", won, gap, iqr


def run_once(checkout: Path, workload: str, seed: int, metric: str) -> float:
    done = subprocess.run(
        [sys.executable, "stackbench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])["metrics"][metric]["value"]


def summary(values: List[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:,.6g} [{q1:,.6g} - {q3:,.6g}]"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--metric", default="work_per_s")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(sides["change"] / "BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    if args.metric not in better:
        parser.error(f"--metric must be one of {', '.join(better)}")
    values = {"parent": [], "change": []}
    for pair in range(args.pairs):
        for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
            values[side].append(
                run_once(sides[side], args.workload, args.seed, args.metric))
        print(f"pair {pair + 1:2d}: parent {values['parent'][-1]:,.6g}  "
              f"change {values['change'][-1]:,.6g}", flush=True)

    higher = better[args.metric] == "higher"
    word, won, gap, iqr = verdict(values["parent"], values["change"], higher)
    base = statistics.median(values["parent"])
    print(f"{args.workload} {args.metric} (seed {args.seed}, {args.pairs} pairs, "
          f"{'higher' if higher else 'lower'} is better)")
    print(f"  parent  {summary(values['parent'])}")
    print(f"  change  {summary(values['change'])}")
    print(f"  change won {won}/{args.pairs} pairs; median gap {gap:+,.6g} "
          f"({gap / base:+.1%} of parent) vs parent IQR {iqr:,.6g}: {word}")
    detail = f"stackbench/out/{args.workload}.json"
    sim = subprocess.run(
        [sys.executable, "stackbench/compare.py",
         str(sides["parent"] / detail), str(sides["change"] / detail)],
        cwd=sides["change"], capture_output=True, text=True)
    lines = [ln for ln in sim.stdout.splitlines() if "sim_" in ln]
    print("\n".join("  " + ln for ln in lines))
    return 1 if any("DIFFERENT" in ln for ln in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
