"""A finished checked run frees itself.

``run_checked`` hands its trace over to a log nothing in the run
references and closes the simulator, so dropping the ``CheckedRun``
frees the whole run by reference counting.  With the collector paused,
each dropped run may leave only the small structural cycles an
unchecked ``run_job`` leaves too (network <-> socket, clearinghouse <->
RPC server): measured 406 objects and 84 KB per fib(14) ``mixed`` run
on 4 workers, where the suspended processes, the log's own recorder and
the worker <-> strategy link used to leave 13,874 objects and 2.0 MB.

Run as a script for a longer sweep (CI's fuzz job):
``PYTHONPATH=src python tests/integration/test_teardown.py 500``.
"""

import gc
import os
import sys
import tracemalloc

from repro.check import app_spec

#: Per dropped run: objects ``gc.collect()`` finds, and traced bytes.
OBJECTS_PER_RUN = 500
BYTES_PER_RUN = 100_000

_PACKAGE = os.sep + "repro" + os.sep


def _suspended_generators() -> int:
    """Generators of the package still holding a frame."""
    return sum(1 for obj in gc.get_objects()
               if type(obj).__name__ == "generator" and obj.gi_frame is not None
               and _PACKAGE in obj.gi_code.co_filename)


def leftovers(seeds) -> tuple:
    """Run each seed's checked fib(14) and drop it, collector paused:
    ``(objects, bytes)`` left per run, and the suspended generators."""
    spec = app_spec("fib")
    spec.check(seeds[0] - 1, 4)  # warm caches and pools outside the count
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seed in seeds:
            spec.check(seed, 4)
        grown = tracemalloc.get_traced_memory()[0] - before
        suspended = _suspended_generators()
        found = gc.collect()
    finally:
        tracemalloc.stop()
        gc.enable()
    return found / len(seeds), grown / len(seeds), suspended


def test_a_dropped_checked_run_leaves_no_cycles_behind():
    objects, grown, suspended = leftovers(range(300, 320))
    assert suspended == 0
    assert objects <= OBJECTS_PER_RUN, f"{objects:.0f} objects per run"
    assert grown <= BYTES_PER_RUN, f"{grown:.0f} bytes per run"


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    objects, grown, suspended = leftovers(range(300, 300 + n))
    print(f"{n} seeds: {objects:.0f} objects and {grown:.0f} bytes per run, "
          f"{suspended} suspended generators")
    if suspended or objects > OBJECTS_PER_RUN or grown > BYTES_PER_RUN:
        sys.exit("a finished checked run did not free itself")
