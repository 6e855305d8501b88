"""The exhibit registry: what ``repro <exhibit>`` can regenerate.

An :class:`Exhibit` says how one exhibit is run, rendered, offered on the
command line and described in a provenance manifest.  ``repro.cli``
builds each exhibit's subcommand and its dispatch from :data:`EXHIBITS`,
so adding an exhibit is one entry here and no CLI edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import ablations, figures, harvest, latency, table1, table2, traffic
from repro.macro.traffic import TrafficConfig


@dataclass(frozen=True)
class Exhibit:
    """One regenerable exhibit."""

    #: ``run(seed=, [jobs=,] **flag values)`` -> the measured data.
    run: Callable[..., Any]
    #: Renders what ``run`` returned.
    format: Callable[[Any], str]
    #: The exhibit's own command-line flags, ``(name, argparse keywords)``;
    #: parsed values reach ``run`` under argparse's dest names.
    flags: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    #: Whether ``run`` fans independent simulations out over ``jobs=``.
    sharded: bool = True
    #: Manifest ``app`` (None: the exhibit offers no ``--manifest``) and
    #: ``cluster``, the latter read off what ``run`` returned.
    app: Optional[str] = None
    cluster: Optional[Callable[[Any], Dict[str, Any]]] = None
    #: One-line description for ``repro --help``.
    help: Optional[str] = None


def _run_harvest(seed: int, jobs: int, reps: int):
    seeds = list(range(seed, seed + max(1, reps)))
    return seeds, harvest.run_harvest_sweep(seeds, jobs=jobs)


def _format_harvest(seeds_and_reports) -> str:
    """One repetition as the full report, several as the per-seed table."""
    seeds, reports = seeds_and_reports
    if len(reports) == 1:
        return harvest.format_harvest(reports[0])
    return harvest.format_harvest_sweep(seeds, reports)


def _run_traffic(seed: int, jobs: int, policies: str, arrivals: str, njobs: int,
                 machines: int, rate: float, sizes: str, owners: str):
    return traffic.run_traffic_matrix(
        policies=[p for p in policies.split(",") if p],
        arrivals=[a for a in arrivals.split(",") if a],
        n_jobs=njobs,
        n_workstations=machines,
        seed=seed,
        jobs=jobs,
        base=TrafficConfig(rate_per_s=rate, owners=owners, sizes=sizes),
    )


def _run_ablations(seed: int, jobs: int, which: str) -> List[str]:
    names = list(ablations.SECTIONS) if which == "all" else [which]
    return ablations.run_sections(names, seed=seed, jobs=jobs)


def _participants(columns_or_points) -> Dict[str, Any]:
    return {"workers": [item.participants for item in columns_or_points]}


#: Every exhibit, by subcommand name.
EXHIBITS: Dict[str, Exhibit] = {
    "table1": Exhibit(table1.run_table1, table1.format_table1, sharded=False),
    "table2": Exhibit(table2.run_table2, table2.format_table2,
                      app="pfold", cluster=_participants),
    "figure4": Exhibit(figures.run_speedup_curve, figures.format_figure4,
                       app="pfold", cluster=_participants),
    "figure5": Exhibit(figures.run_speedup_curve, figures.format_figure5,
                       app="pfold", cluster=_participants),
    "latency": Exhibit(
        lambda seed, jobs, workers: latency.run_latency_sweep(
            seed=seed, jobs=jobs, n_workers=workers),
        latency.format_latency,
        flags=(
            ("--workers", dict(type=int, default=8, help="cluster size, split "
                               "over two segments (default 8)")),
        ),
        app="pfold",
        cluster=lambda sweep: {"workers": sweep.n_workers, "segments": 2},
        help="sweep backbone steal latency on a two-segment cluster per "
             "victim/steal policy and compare against the Gast et al. "
             "analytical makespan bound",
    ),
    "traffic": Exhibit(
        _run_traffic,
        traffic.format_traffic,
        flags=(
            ("--policies", dict(
                default="rr,srp,fair,interrupt", metavar="LIST",
                help="comma-separated assignment policies "
                     "(default rr,srp,fair,interrupt)")),
            ("--arrivals", dict(
                default="poisson,diurnal", metavar="LIST",
                help="comma-separated arrival processes: poisson, "
                     "diurnal, bursty (default poisson,diurnal)")),
            ("--njobs", dict(type=int, default=1000,
                             help="jobs submitted per cell (default 1000)")),
            ("--machines", dict(type=int, default=16,
                                help="workstations in the network (default 16)")),
            ("--rate", dict(type=float, default=0.5,
                            help="mean arrival rate, jobs per simulated "
                                 "second (default 0.5)")),
            ("--sizes", dict(default="pareto", choices=["pareto", "exponential"],
                             help="job-size distribution (default pareto, "
                                  "heavy-tailed)")),
            ("--owners", dict(default="idle", choices=["idle", "workday"],
                              help="owner model: dedicated idle machines or "
                                   "replayed login/logout logs (default idle)")),
        ),
        app="traffic",
        cluster=lambda matrix: {"workers": matrix.n_workstations,
                                "n_jobs": matrix.n_jobs},
        help="run the policy x arrival competition under thousand-job "
             "synthetic traffic on the real PhishJobQ and report "
             "makespan, throughput and job-latency percentiles",
    ),
    "harvest": Exhibit(
        _run_harvest,
        _format_harvest,
        flags=(
            ("--reps", dict(type=int, default=1, metavar="N",
                            help="repetitions at consecutive seeds (owner "
                                 "churn is stochastic; default 1)")),
        ),
    ),
    "ablations": Exhibit(
        _run_ablations,
        "\n\n".join,
        flags=(
            ("which", dict(nargs="?", default="all",
                           choices=["all", *ablations.SECTIONS])),
        ),
    ),
}
