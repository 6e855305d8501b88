"""Command-line entry point: regenerate the paper's exhibits.

Usage::

    python -m repro.cli table1
    python -m repro.cli table2
    python -m repro.cli figure4
    python -m repro.cli figure5
    python -m repro.cli ablations [order|victim|initiation|sharing|
                                   retirement|faults|heterogeneity|all]
    python -m repro.cli macro-demo
    python -m repro.cli latency --jobs 4
    python -m repro.cli traffic --policies rr,srp,fair,interrupt --jobs 4
    python -m repro.cli check --seeds 100 --app fib --jobs 4
    python -m repro.cli check --seeds 25 --scenario partition
    python -m repro.cli bench --out BENCH_kernel.json
    python -m repro.cli obs --seed 1 --app fib
    python -m repro.cli timeline --perfetto out.json

``--seed`` controls every random stream; runs are fully reproducible.
``check``, ``figure4``/``figure5``/``table2``, ``ablations`` and
``harvest --reps N`` accept ``--jobs N`` to fan independent runs out
over a process pool (0 = one per CPU); outputs are byte-identical at
any ``--jobs`` (see docs/checking.md, "Parallel runs").
``table2``/``figure4``/``figure5``/``bench`` accept ``--manifest PATH``
to drop a provenance manifest (see docs/observability.md) next to the
printed output; ``check --manifest`` additionally records merged
per-shard metrics and the fan-out speedup.

The exhibit commands (``table1`` ... ``ablations``) are not written here:
their subparsers and dispatch are built from
``repro.experiments.EXHIBITS``, one entry per exhibit.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, List, Optional

from repro.experiments import EXHIBITS
from repro.experiments.pfold import PFOLD_SEQUENCE


def _obs_job(app: str, scale: Optional[int] = None):
    """Build the job an ``obs`` run measures (small by default: the
    point is the metrics, not the workload)."""
    if app == "fib":
        from repro.apps.fib import fib_job
        return fib_job(scale if scale is not None else 22)
    if app == "knary":
        from repro.apps.knary import knary_job
        return knary_job(scale if scale is not None else 7, 4, 1)
    if app == "pfold":
        from repro.apps.pfold import pfold_job
        return pfold_job(PFOLD_SEQUENCE, work_scale=float(scale or 40))
    raise SystemExit(f"unknown obs app {app!r}")


def _fmt_s(value: Optional[float]) -> str:
    """Human-readable seconds (or '-' when there is no data)."""
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def _cmd_obs(args: argparse.Namespace) -> str:
    """Run a seeded job with full observability wired in and report."""
    from repro.experiments.report import render_table
    from repro.obs import MetricsRegistry
    from repro.phish import run_job

    registry = MetricsRegistry()
    started = time.time()
    res = run_job(
        _obs_job(args.app, args.scale),
        n_workers=args.workers,
        seed=args.seed,
        trace=True,
        metrics=registry,
    )
    wall = time.time() - started

    hist_rows = []
    for name in registry.names():
        inst = registry.get(name)
        if inst.kind != "histogram" or inst.count == 0:
            continue
        # The `_s` naming convention marks seconds-valued metrics;
        # everything else (deque depth) is a plain quantity.
        fmt = _fmt_s if name.endswith("_s") else (lambda v: f"{v:.1f}")
        hist_rows.append((
            name, inst.count,
            fmt(inst.percentile(0.50)),
            fmt(inst.percentile(0.90)),
            fmt(inst.percentile(0.99)),
            fmt(inst.mean),
        ))
    sections = [render_table(
        f"Latency/size distributions — {args.app} seed={args.seed} "
        f"P={args.workers}",
        ["metric", "n", "p50", "p90", "p99", "mean"],
        hist_rows,
    )]

    scalar_rows = []
    for name in registry.names():
        inst = registry.get(name)
        if inst.kind == "counter":
            scalar_rows.append((name, inst.value))
        elif inst.kind == "gauge":
            scalar_rows.append((name, f"{inst.value:g} (peak {inst.peak:g})"))
    scalar_rows.append(("job.result", res.result))
    scalar_rows.append(("job.makespan_s", f"{res.makespan:.4f}"))
    scalar_rows.append(("job.tasks_executed", res.stats.tasks_executed))
    scalar_rows.append(("job.tasks_stolen", res.stats.tasks_stolen))
    sections.append(render_table(
        "Counters", ["metric", "value"], scalar_rows,
    ))

    return "\n\n".join(sections) + _maybe_manifest(
        args, args.app, _ss1_cluster(args), wall,
        registry=registry, extra={"makespan_s": res.makespan},
    )


def _ss1_cluster(args: argparse.Namespace) -> dict:
    """Manifest ``cluster`` of a run on ``--workers`` SparcStation 1s."""
    return {"workers": args.workers, "profile": "SparcStation-1"}


def _maybe_manifest(
    args: argparse.Namespace,
    app: str,
    cluster: dict,
    wall_s: float,
    **payload: Any,
) -> str:
    """Write a provenance manifest when the command got ``--manifest``
    (*payload*: ``build_manifest``'s registry / metrics_snapshot / extra)."""
    path = getattr(args, "manifest", None)
    if not path:
        return ""
    from repro.obs import build_manifest, write_manifest

    manifest = build_manifest(
        command=args.command,
        seed=args.seed,
        app=app,
        cluster=cluster,
        wall_s=wall_s,
        **payload,
    )
    write_manifest(manifest, path)
    return f"\n\nwrote manifest {path}"


def _cmd_exhibit(args: argparse.Namespace) -> str:
    """Regenerate one exhibit of ``repro.experiments.EXHIBITS``: its
    flags (and ``--jobs``, if it shards) are its runner's arguments."""
    exhibit = EXHIBITS[args.command]
    params = {name: value for name, value in vars(args).items()
              if name not in ("command", "manifest")}
    started = time.time()
    result = exhibit.run(**params)
    out = exhibit.format(result)
    if exhibit.app is None:
        return out
    return out + _maybe_manifest(
        args, exhibit.app, exhibit.cluster(result), time.time() - started)


def _cmd_macro_demo(args: argparse.Namespace) -> str:
    """A small end-to-end macro-level scenario with owner churn."""
    from repro.apps.nqueens import nqueens_job
    from repro.apps.pfold import pfold_job
    from repro.cluster.owner import AlwaysIdleTrace, ScriptedTrace
    from repro.experiments.report import render_table
    from repro.macro import PhishSystem, PhishSystemConfig

    def traces(rng, host):
        if host in ("ws02", "ws03"):
            return ScriptedTrace([("idle", 3.0), ("busy", 12.0), ("idle", 1e9)])
        return AlwaysIdleTrace()

    system = PhishSystem(
        PhishSystemConfig(n_workstations=6, seed=args.seed, owner_trace=traces)
    )
    h1 = system.submit(pfold_job(PFOLD_SEQUENCE, work_scale=40.0), from_host="ws00")
    h2 = system.submit(nqueens_job(8), from_host="ws01")
    system.run_until_done(timeout_s=3600)
    rows = []
    for name, jm in sorted(system.jobmanagers.items()):
        rows.append((name, jm.jobs_started, jm.workers_reclaimed))
    table = render_table(
        "Macro demo — 2 jobs, 6 workstations, owners reclaiming ws02/ws03",
        ["workstation", "workers started", "workers reclaimed"],
        rows,
    )
    return (
        table
        + f"\npfold result bins: {len(h1.result.counts)}  "
        + f"nqueens(8) = {h2.result}  "
        + f"finished at t={system.sim.now:.1f}s simulated"
    )


def _cmd_check(args: argparse.Namespace) -> str:
    """Fuzz the schedule space and check every run against the runtime
    invariants (see docs/checking.md).  ``--jobs N`` shards the seed
    range over worker processes; the merged result is byte-identical to
    the serial sweep."""
    from repro.check import fuzz_sharded

    def progress(seed: int, ok: bool) -> None:
        sys.stderr.write("." if ok else "F")
        sys.stderr.flush()

    if args.verify_queue:
        from repro.check import verify_queue_backends

        started = time.time()
        result = verify_queue_backends(
            app=args.app,
            n_seeds=args.seeds,
            start_seed=args.seed,
            n_workers=args.workers,
            scenario=args.scenario,
            progress=progress,
        )
        sys.stderr.write(
            f"\n{len(result.seeds)} seeds x 2 backends in "
            f"{time.time() - started:.1f}s\n"
        )
        if not result.ok:
            print(result.summary())
            raise SystemExit(1)
        return result.summary()

    started = time.time()
    outcome = fuzz_sharded(
        app=args.app,
        n_seeds=args.seeds,
        start_seed=args.seed,
        n_workers=args.workers,
        bug=args.inject_bug,
        jobs=args.jobs,
        progress=progress,
        scenario=args.scenario,
    )
    elapsed = time.time() - started
    result, stats = outcome.result, outcome.stats
    sys.stderr.write("\n")
    # Fuzz-budget telemetry: CI logs make seeds/s regressions visible.
    n = max(1, len(result.seeds))
    sys.stderr.write(
        f"{len(result.seeds)} seeds in {elapsed:.1f}s "
        f"({n / elapsed:.1f} seeds/s, jobs={stats.effective_jobs}, "
        f"mode={stats.mode})\n"
    )
    if stats.effective_jobs > 1:
        for shard in stats.shards:
            sys.stderr.write(
                f"  shard {shard.index:2d}: {shard.description} "
                f"in {shard.wall_s:.2f}s (pid {shard.pid})\n"
            )
        sys.stderr.write(
            f"  shard work {stats.work_s:.1f}s / wall {stats.wall_s:.1f}s "
            f"= {stats.speedup:.2f}x harvest\n"
        )
    note = _maybe_manifest(
        args, args.app, _ss1_cluster(args), elapsed,
        metrics_snapshot=outcome.metrics,
        extra={
            "parallel": stats.to_dict(),
            "fuzz": {
                "seeds": len(result.seeds),
                "failures": len(result.failures),
                "bug": result.bug,
                "scenario": result.scenario,
            },
        },
    )
    if note:
        sys.stderr.write(note.lstrip() + "\n")
    if not result.ok:
        # Non-zero exit so CI fails loudly; the summary names the seeds
        # and prints shrunk reproducing schedules.
        print(result.summary())
        raise SystemExit(1)
    return result.summary()


def _cmd_bench(args: argparse.Namespace) -> str:
    """Benchmark the simulation substrate and record BENCH_kernel.json
    (see docs/performance.md)."""
    from repro.bench import format_bench, run_bench, write_bench

    started = time.time()
    results = run_bench(repeats=args.repeats, quick=args.quick,
                        profile=args.profile)
    write_bench(results, args.out)
    return (
        format_bench(results)
        + f"\n\nwrote {args.out}"
        + _maybe_manifest(args, "-", {"workers": 0}, time.time() - started)
    )


def _warn_truncated(trace, stream=None) -> bool:
    """Stderr warning when an exported TraceLog lost its oldest events
    to the capacity bound — the Perfetto doc then renders a history
    that *starts mid-run*, which is silent data loss unless flagged.
    Returns True when a warning was emitted (testable seam)."""
    if not trace.truncated:
        return False
    print(
        f"warning: trace log truncated — {trace.dropped} oldest events "
        f"were dropped (capacity {trace.capacity}); the exported "
        f"timeline starts mid-run (otherData.trace_dropped records the "
        f"count)",
        file=stream if stream is not None else sys.stderr,
    )
    return True


def _cmd_profile(args: argparse.Namespace) -> str:
    """Critical-path profile of one seeded run: T1 / T-inf, efficiency
    vs the greedy and Gast latency-aware bounds, per-worker overhead
    attribution (see docs/observability.md, "Profiling and run outputs")."""
    from repro.cluster.platform import SPARCSTATION_1
    from repro.experiments.report import render_attribution, render_table
    from repro.micro.worker import WorkerConfig
    from repro.obs import JsonlSpanSink, PerfettoWriter, SpanProfiler
    from repro.phish import run_job

    jsonl = perfetto = None
    if args.out:
        jsonl = JsonlSpanSink(args.out, buffer_events=args.buffer,
                              meta={"app": args.app, "seed": args.seed,
                                    "workers": args.workers})
    if args.perfetto:
        perfetto = PerfettoWriter(args.perfetto, job_name=args.app,
                                  buffer_events=args.buffer)
    prof = SpanProfiler(sinks=[s for s in (jsonl, perfetto) if s is not None])
    cfg = WorkerConfig()
    res = run_job(
        _obs_job(args.app, args.scale),
        n_workers=args.workers,
        seed=args.seed,
        worker_config=cfg,
        profiler=prof,
    )
    summary = res.profile
    assert summary is not None

    sections = [render_table(
        f"Critical-path profile — {args.app} seed={args.seed} "
        f"P={args.workers}",
        ["quantity", "value"],
        [
            ("result", res.result),
            ("tasks executed (nodes)", summary["nodes"]),
            ("dependency edges", summary["edges"]),
            ("critical-path depth (nodes)", summary["max_depth"]),
            ("redo copies", summary["redo_copies"]),
            ("T1 (total work)", _fmt_s(summary["t1_s"])),
            ("T-inf (span)", _fmt_s(summary["t_inf_s"])),
            ("parallelism T1/T-inf", f"{summary['parallelism']:.2f}"),
            ("steal requests / stolen", f"{summary['steal_requests']} / "
                                        f"{summary['tasks_stolen']}"),
            ("tasks migrated", summary["tasks_migrated"]),
            ("wire messages (bytes)", f"{summary['msgs']} "
                                      f"({summary['msg_bytes']})"),
            ("heartbeats", summary["heartbeats"]),
        ],
    )]

    lam = SPARCSTATION_1.net.wire_latency_s
    bounds = prof.bound_report(res.makespan, args.workers, lam,
                               startup_s=cfg.startup_cost_s)
    sections.append(render_table(
        "Makespan vs analytical bounds",
        ["bound", "seconds", "makespan / bound"],
        [
            ("measured makespan", _fmt_s(bounds["makespan_s"]), "1.00"),
            ("greedy  T1/P + T-inf", _fmt_s(bounds["greedy_bound_s"]),
             f"{bounds['vs_greedy']:.2f}"),
            (f"Gast (latency-aware, lam={lam * 1e3:.2f}ms)",
             _fmt_s(bounds["gast_bound_s"]), f"{bounds['vs_gast']:.2f}"),
            ("efficiency T1/(P*makespan)", f"{bounds['efficiency']:.3f}", "-"),
        ],
    ))

    sections.append(render_attribution(
        "Per-worker wall-clock attribution", summary["workers"]))

    rtt_rows = []
    for worker in res.workers:
        for victim, rtt in worker.victim_policy.profile_snapshot().items():
            rtt_rows.append((worker.name, victim, _fmt_s(rtt)))
    if rtt_rows:
        sections.append(render_table(
            "Victim-policy learned RTT estimates",
            ["thief", "victim", "EWMA RTT"], rtt_rows,
        ))

    if jsonl is not None:
        sections.append(
            f"wrote span stream {args.out} ({jsonl.events} events, "
            f"peak {jsonl.peak_buffered} buffered, {jsonl.flushes} flushes)")
    if perfetto is not None:
        sections.append(
            f"wrote Perfetto profile {args.perfetto} ({perfetto.events} "
            f"events, peak {perfetto.peak_buffered} buffered; open at "
            f"ui.perfetto.dev)")
    return "\n\n".join(sections)


def _cmd_timeline(args: argparse.Namespace) -> str:
    """Worker-activity timeline of a run with owner churn and a crash."""
    from repro.apps.pfold import pfold_job
    from repro.cluster.owner import AlwaysIdleTrace, ScriptedTrace
    from repro.macro import PhishSystem, PhishSystemConfig
    from repro.viz.timeline import render_timeline

    def traces(rng, host):
        if host in ("ws03", "ws04"):
            return ScriptedTrace([("idle", 3.0 + args.seed % 3), ("busy", 1e9)])
        return AlwaysIdleTrace()

    perfetto_path = getattr(args, "perfetto", None)
    system = PhishSystem(
        PhishSystemConfig(n_workstations=6, seed=args.seed, owner_trace=traces,
                          trace=True, metrics=perfetto_path is not None)
    )
    system.submit(pfold_job(PFOLD_SEQUENCE, work_scale=60.0), from_host="ws00")
    system.run_until_done(timeout_s=36000)
    assert system.trace is not None
    out = render_timeline(system.trace)
    if perfetto_path:
        from repro.obs import write_perfetto

        write_perfetto(system.trace, perfetto_path, system.metrics,
                       job_name="timeline")
        _warn_truncated(system.trace)
        out += (f"\n\nwrote Perfetto trace {perfetto_path} "
                f"(open at ui.perfetto.dev)")
    return out


def _fmt_evidence(evidence: dict) -> str:
    """Compact k=v rendering of an incident's evidence columns."""
    parts = []
    for key in sorted(evidence):
        val = evidence[key]
        parts.append(f"{key}={val:.4g}" if isinstance(val, float)
                     else f"{key}={val}")
    return " ".join(parts)


def _cmd_diagnose(args: argparse.Namespace) -> str:
    """Online health diagnosis: run seeds with the streaming anomaly
    detectors attached and print the incident timeline — or, with
    ``--diff A B``, a forensic comparison of two run manifests."""
    from repro.experiments.report import render_run_diff, render_table

    if args.diff:
        from repro.obs.manifest import diff_manifests, load_manifest

        path_a, path_b = args.diff
        diff = diff_manifests(load_manifest(path_a), load_manifest(path_b))
        return render_run_diff(f"{path_a} vs {path_b}", diff)

    from repro.obs.diagnose import diagnose_sweep

    started = time.time()
    sweep = diagnose_sweep(
        app=args.app,
        n_seeds=args.seeds,
        start_seed=args.seed,
        n_workers=args.workers,
        scenario=args.scenario,
        jobs=args.jobs,
        traffic_jobs=args.njobs,
        slo_s=args.slo,
    )
    wall = time.time() - started

    timeline_rows = [
        (seed, f"{row['t_start']:.4f}", f"{row['t_end']:.4f}", row["kind"],
         row["severity"], row["subject"], _fmt_evidence(row["evidence"]))
        for seed, row in sweep.incidents
    ]
    sections = [render_table(
        f"Incident timeline — {args.app} scenario={args.scenario} "
        f"seeds={args.seed}..{args.seed + args.seeds - 1}",
        ["seed", "t_start", "t_end", "kind", "severity", "subject",
         "evidence"],
        timeline_rows,
    )]
    incomplete = [r["seed"] for r in sweep.runs if not r["completed"]]
    summary_rows = [("runs", len(sweep.runs)),
                    ("incidents", len(sweep.incidents)),
                    ("incomplete runs", incomplete or "none")]
    summary_rows += sorted(sweep.kind_counts.items())
    sections.append(render_table("Diagnosis summary", ["what", "count"],
                                 summary_rows))

    if args.incidents:
        from repro.obs.health import Incident
        from repro.obs.stream import write_incidents_jsonl

        n = write_incidents_jsonl(
            (Incident.from_row(row) for _seed, row in sweep.incidents),
            args.incidents,
        )
        sections.append(f"wrote {n} incidents to {args.incidents}")
    if args.perfetto:
        sections.append(_diagnose_perfetto(args))
    out = "\n\n".join(sections) + _maybe_manifest(
        args, args.app, _ss1_cluster(args), wall,
        metrics_snapshot=sweep.metrics,
        extra={"diagnose": {
            "scenario": args.scenario,
            "seeds": len(sweep.runs),
            "incidents": len(sweep.incidents),
            "kinds": sweep.kind_counts,
        }},
    )
    if args.fail_on_incident and sweep.incidents:
        print(out)
        raise SystemExit(1)
    return out


def _diagnose_perfetto(args: argparse.Namespace) -> str:
    """Re-run the first seed inline to capture its TraceLog and export
    it with the health incidents on the worker tracks."""
    if args.app == "traffic":
        return "(--perfetto skipped: the traffic engine keeps no TraceLog)"
    from repro.obs import write_perfetto
    from repro.obs.diagnose import diagnosed_run

    run, registry = diagnosed_run(args.app, args.seed, args.workers,
                                  args.scenario)
    write_perfetto(run.trace, args.perfetto, registry,
                   job_name=f"diagnose-{args.app}")
    return (f"wrote Perfetto trace {args.perfetto} for seed {args.seed} "
            f"(open at ui.perfetto.dev)")


#: The subcommands that are not registry exhibits.
COMMANDS = {
    "macro-demo": _cmd_macro_demo,
    "timeline": _cmd_timeline,
    "check": _cmd_check,
    "bench": _cmd_bench,
    "obs": _cmd_obs,
    "profile": _cmd_profile,
    "diagnose": _cmd_diagnose,
}


def _add_path(cmd: argparse.ArgumentParser, flag: str, help: str,
              default: Optional[str] = None) -> None:
    """An optional output-file flag."""
    cmd.add_argument(flag, default=default, metavar="PATH", help=help)


def _add_manifest(cmd: argparse.ArgumentParser) -> None:
    _add_path(cmd, "--manifest", "also write a run-provenance manifest JSON")


def _add_jobs(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent runs (0 = one per "
             "CPU, default 1 = serial); results are identical at "
             "any value",
    )


def _add_app(cmd: argparse.ArgumentParser, apps: List[str]) -> None:
    """Which application to run, on how many machines."""
    cmd.add_argument("--app", default="fib", choices=apps,
                     help="application to run (default fib)")
    cmd.add_argument("--workers", type=int, default=4,
                     help="cluster size (default 4)")


def _add_single_run(cmd: argparse.ArgumentParser) -> None:
    """What ``obs`` and ``profile`` run: one seeded job of one app."""
    _add_app(cmd, ["fib", "knary", "pfold"])
    cmd.add_argument("--scale", type=int, default=None,
                     help="problem size override (fib n / knary n / "
                          "pfold work scale)")


def _add_seed_sweep(cmd: argparse.ArgumentParser, apps: List[str], seeds: int,
                    scenarios: tuple, scenario_help: str) -> None:
    """What ``check`` and ``diagnose`` sweep: consecutive seeds of one
    registered app under one perturbation scenario (the first listed
    is the default)."""
    _add_app(cmd, apps)
    cmd.add_argument("--seeds", type=int, default=seeds,
                     help=f"number of consecutive seeds (default {seeds})")
    cmd.add_argument("--scenario", default=scenarios[0], choices=scenarios,
                     help=scenario_help)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.check import APPS, BUGS, Perturbation
    from repro.obs.diagnose import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="phish-repro",
        description="Regenerate the tables and figures of Blumofe & Park (HPDC'94).",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, exhibit in EXHIBITS.items():
        # An explicit help=None would still list the command in --help.
        cmd = sub.add_parser(name, **({"help": exhibit.help} if exhibit.help else {}))
        for flag, keywords in exhibit.flags:
            cmd.add_argument(flag, **keywords)
        if exhibit.app is not None:
            _add_manifest(cmd)
        if exhibit.sharded:
            _add_jobs(cmd)
    sub.add_parser("macro-demo")
    timeline = sub.add_parser("timeline")
    _add_path(timeline, "--perfetto",
              "also export the run as Chrome/Perfetto trace_event JSON "
              "(open at ui.perfetto.dev)")
    obs = sub.add_parser(
        "obs",
        help="run one seeded job with full metrics wired in, print the "
             "latency/counter report, and write a run manifest",
    )
    _add_single_run(obs)
    _add_path(obs, "--manifest", "manifest output path (default "
              "obs_manifest.json)", default="obs_manifest.json")
    profile = sub.add_parser(
        "profile",
        help="critical-path profile of one seeded run: T1/T-inf, "
             "efficiency vs the greedy and latency-aware bounds, and a "
             "per-worker overhead-attribution table; optionally stream "
             "the span log to JSONL and/or Perfetto",
    )
    _add_single_run(profile)
    _add_path(profile, "--out", "stream the span log as JSONL to PATH "
              "(bounded memory; mergeable across shards)")
    _add_path(profile, "--perfetto", "stream a Chrome/Perfetto trace_event "
              "doc to PATH (open at ui.perfetto.dev)")
    profile.add_argument("--buffer", type=int, default=8192,
                         help="sink flush buffer, in events (default 8192)")
    bench = sub.add_parser(
        "bench",
        help="benchmark the simulation substrate (kernel event throughput, "
             "process switching, fib/knary macro runs) and write the "
             "baseline file",
    )
    bench.add_argument("--out", default="BENCH_kernel.json",
                       help="output JSON path (default BENCH_kernel.json)")
    bench.add_argument("--repeats", type=int, default=10,
                       help="kernel-benchmark repetitions; wall numbers are "
                            "best-of-N (default 10)")
    bench.add_argument("--quick", action="store_true",
                       help="fewer repetitions (smoke-test mode)")
    bench.add_argument("--profile", default="full",
                       choices=["full", "timeouts"],
                       help="benchmark sections to run: 'timeouts' measures "
                            "only the timeout-churn microbench and merges it "
                            "into the existing record (default full)")
    _add_manifest(bench)
    chk = sub.add_parser(
        "check",
        help="fuzz schedules (tie-breaks, jitter, crashes, reclaims) and "
             "verify runtime invariants on every run",
    )
    _add_seed_sweep(
        chk, sorted(APPS), 25, Perturbation.SCENARIOS,
        "perturbation scenario class: 'partition' and 'spike' force that "
        "network dynamic into every seed; 'faults-only' disables both "
        "(default mixed: probabilistic)")
    chk.add_argument("--verify-queue", action="store_true",
                     help="instead of fuzzing, run every seed on the "
                          "plain-heapq reference kernel and on the "
                          "production queue and require byte-identical "
                          "traces")
    chk.add_argument("--inject-bug", default=None, choices=list(BUGS),
                     help="deliberately break the scheduler to prove the "
                          "checker catches it")
    _add_path(chk, "--manifest", "write a run manifest with merged per-shard "
              "metrics and the fan-out speedup")
    _add_jobs(chk)
    diag = sub.add_parser(
        "diagnose",
        help="run seeds with the streaming health detectors attached "
             "(steal storms, heartbeat gaps, partition stalls, "
             "starvation, stragglers, liveness stalls, SLO breaches) "
             "and print the incident timeline; --diff compares two run "
             "manifests",
    )
    _add_seed_sweep(
        diag, [*sorted(APPS), "traffic"], 1, SCENARIOS,
        "perturbation scenario: 'clean' runs no faults (the false-positive "
        "gate); the rest match `check --scenario` (default clean)")
    diag.add_argument("--slo", type=float, default=None, metavar="S",
                      help="per-job sojourn SLO in simulated seconds "
                           "(traffic app only)")
    diag.add_argument("--njobs", type=int, default=200,
                      help="jobs per traffic run (default 200)")
    _add_path(diag, "--incidents", "also write the incident stream as JSONL")
    _add_path(diag, "--perfetto", "re-run the first seed and export its "
              "trace with incidents as Perfetto instants")
    _add_path(diag, "--manifest", "write a run manifest with the merged "
              "metric snapshot and incident counts")
    diag.add_argument("--fail-on-incident", action="store_true",
                      help="exit 1 if any incident fired (CI gate for "
                           "clean runs)")
    diag.add_argument("--diff", nargs=2, default=None,
                      metavar=("A", "B"),
                      help="compare two run manifests (provenance drift "
                           "+ metric deltas) instead of running")
    _add_jobs(diag)
    # --seed works both before and after the subcommand; SUPPRESS keeps a
    # pre-subcommand value from being clobbered by a subparser default.
    for cmd in sub.choices.values():
        cmd.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                         help="root random seed (default 0)")
    args = parser.parse_args(argv)
    started = time.time()
    output = COMMANDS.get(args.command, _cmd_exhibit)(args)
    print(output)
    print(f"\n[{args.command} regenerated in {time.time() - started:.1f}s real time]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
