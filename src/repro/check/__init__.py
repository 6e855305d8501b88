"""Schedule-space fuzzing and runtime invariant checking.

Public surface:

* :func:`run_checked` — run one job with tracing, online deque auditing,
  network-loss accounting, optional schedule perturbation and bug
  injection, then verify the invariant catalog.
* :func:`check_invariants` — the post-run trace pass on its own.
* :func:`fuzz` — sweep many seeds of a registered app, shrinking failures.
* :func:`fuzz_sharded` — the same sweep fanned out over a process pool
  (``--jobs``), merged byte-identically to the serial run.
* :func:`verify_queue_backends` — prove the production event queue
  byte-identical, trace for trace, to the plain-``heapq`` reference
  kernel on full checked runs (the only caller of ``run_checked(queue=)``).
* :class:`Perturbation` — one seed-derived point in schedule space.

See ``docs/checking.md`` for the invariant catalog and workflow.
"""

from repro.check.fuzzer import (
    APPS,
    AppSpec,
    BackendVerifyResult,
    FuzzFailure,
    FuzzResult,
    ShardedFuzz,
    app_spec,
    fuzz,
    fuzz_sharded,
    verify_queue_backends,
)
from repro.check.harness import (
    BUGS,
    CHECK_CH,
    CHECK_WORKER,
    CheckedRun,
    Perturbation,
    install_network_accounting,
    run_checked,
    shrink_perturbation,
)
from repro.check.invariants import (
    ALL_INVARIANTS,
    DequeAuditor,
    InvariantReport,
    Violation,
    check_invariants,
    collect_leftovers,
)

__all__ = [
    "ALL_INVARIANTS",
    "APPS",
    "AppSpec",
    "BUGS",
    "BackendVerifyResult",
    "CHECK_CH",
    "CHECK_WORKER",
    "CheckedRun",
    "DequeAuditor",
    "FuzzFailure",
    "FuzzResult",
    "InvariantReport",
    "Perturbation",
    "ShardedFuzz",
    "Violation",
    "app_spec",
    "check_invariants",
    "collect_leftovers",
    "fuzz",
    "fuzz_sharded",
    "install_network_accounting",
    "run_checked",
    "shrink_perturbation",
    "verify_queue_backends",
]
