"""repro.parallel — multi-core sharding of independent simulation runs.

Public surface:

* :class:`ShardedRunner` — map a module-level function over picklable
  items on a process pool (or inline), results in input order.
* :class:`PoolStats` / :class:`ShardInfo` — how the fan-out executed
  (mode, per-shard timing, harvest speedup), JSON-ready for manifests.
* :class:`ShardError` — a child failure with its traceback and the
  owning item's description attached.
* :func:`split_evenly` — contiguous chunking that keeps merged output
  byte-identical to a serial loop.
* :func:`resolve_jobs` — ``--jobs`` semantics (0/None = one per CPU).

Consumers: ``repro.check.fuzzer.fuzz_sharded`` (seed-range sharding),
the ``figure4``/``figure5``/``table2`` sweeps, ablation sections, and
harvest repetitions.  See the "Parallel runs" sections of
docs/checking.md and docs/performance.md.
"""

from repro.parallel.runner import (
    START_METHOD_ENV,
    PoolStats,
    ShardedRunner,
    ShardError,
    ShardInfo,
    resolve_jobs,
    split_evenly,
)

__all__ = [
    "START_METHOD_ENV",
    "PoolStats",
    "ShardError",
    "ShardInfo",
    "ShardedRunner",
    "resolve_jobs",
    "split_evenly",
]
