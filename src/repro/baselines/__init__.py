"""Baselines and comparators.

* :mod:`repro.baselines.serial` — a direct (no network, no stealing)
  reference executor for any :class:`~repro.tasks.program.JobProgram`;
  the correctness oracle for arbitrary thread programs.
* :mod:`repro.baselines.sharing` — the space-sharing vs time-sharing
  throughput comparison (Tucker & Gupta's argument, which the paper's
  macro scheduler design follows).
* Alternative micro-schedulers (central queue, sender-initiated push)
  are worker *modes*, one strategy each in :mod:`repro.micro.initiation`
  (it cannot live here: :mod:`repro.baselines.sharing` imports the worker).
* Best-serial implementations of the four applications live with the
  apps (``fib_serial``, ``nqueens_serial``, ``pfold_serial``,
  ``ray_serial``).
"""

from repro.baselines.serial import SerialExecution, execute_serially
from repro.baselines.sharing import SharingComparison, compare_sharing

__all__ = [
    "execute_serially",
    "SerialExecution",
    "compare_sharing",
    "SharingComparison",
]
