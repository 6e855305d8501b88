"""Reproduction drivers for every table and figure in the paper.

Each module regenerates one exhibit of the paper's Section 4 and
formats it next to the published values:

* :mod:`repro.experiments.table1` — serial slowdown (fib / nqueens / ray
  on CM-5+Strata vs SparcStation-10+Phish).
* :mod:`repro.experiments.figures` — Figure 4 (pfold average execution
  time vs participants) and Figure 5 (speedup vs participants).
* :mod:`repro.experiments.table2` — pfold locality statistics at 4 and
  8 participants.
* :mod:`repro.experiments.latency` — makespan vs steal latency on a
  two-segment cluster, per victim/steal policy, against the Gast et
  al. analytical bound (the future-work direction of Section 5).
* :mod:`repro.experiments.ablations` — the design-choice studies
  DESIGN.md calls out (LIFO/FIFO orders, victim policy, idle- vs
  sender-initiated vs central queue, space- vs time-sharing, retirement,
  fault overhead, network heterogeneity).

:data:`EXHIBITS` (:mod:`repro.experiments.registry`) declares each of
them — runner, formatter, command-line flags, manifest meta — and is
what ``repro.cli`` builds its exhibit subcommands from.
"""

from repro.experiments.table1 import Table1Row, format_table1, run_table1
from repro.experiments.table2 import Table2Column, format_table2, run_table2
from repro.experiments.figures import (
    FigurePoint,
    format_figure4,
    format_figure5,
    run_speedup_curve,
)
from repro.experiments.latency import (
    LatencyPoint,
    LatencySweep,
    format_latency,
    gast_bound_s,
    run_latency_sweep,
)
from repro.experiments.registry import EXHIBITS, Exhibit

__all__ = [
    "EXHIBITS",
    "Exhibit",
    "run_table1",
    "format_table1",
    "Table1Row",
    "run_table2",
    "format_table2",
    "Table2Column",
    "run_speedup_curve",
    "format_figure4",
    "format_figure5",
    "FigurePoint",
    "run_latency_sweep",
    "format_latency",
    "gast_bound_s",
    "LatencyPoint",
    "LatencySweep",
]
