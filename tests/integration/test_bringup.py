"""One job bring-up: every harness stands its cluster up through
:func:`repro.phish.start_job`, drawing the same rng streams as before
the five copies were folded."""

import ast
from pathlib import Path

import pytest

import repro.phish
from repro.apps.fib import fib_job, fib_serial
from repro.apps.pfold import pfold_job
from repro.check import Perturbation, run_checked
from repro.fault.checkpoint import checkpoint_and_kill_run
from repro.fault.crash import CrashPlan, run_job_with_crashes
from repro.phish import run_job
from repro.util.rng import RngRegistry

SRC = Path(repro.phish.__file__).resolve().parent


@pytest.fixture
def bring_ups(monkeypatch):
    """(seed, sorted stream names) of every registry ``repro.phish`` builds."""
    built = []

    class Recording(RngRegistry):
        def __init__(self, root_seed=0):
            super().__init__(root_seed)
            built.append(self)

    monkeypatch.setattr(repro.phish, "RngRegistry", Recording)
    return lambda: [(reg.root_seed, list(reg.names())) for reg in built]


def _streams(prefix, n):
    return sorted(["net", "start.jitter", *(f"{prefix}.{i}" for i in range(n))])


def test_the_five_harnesses_share_one_bring_up(bring_ups):
    assert run_job(fib_job(8), n_workers=3, seed=5).result == fib_serial(8)
    assert run_job_with_crashes(fib_job(8), 3, CrashPlan([]), seed=6
                                ).result == fib_serial(8)
    run_checked(fib_job(8), n_workers=3, seed=7,
                perturbation=Perturbation.generate(7, 3),
                expected=fib_serial(8)).require_ok()
    checkpoint, restored = checkpoint_and_kill_run(
        pfold_job("HPHPPHHPHPPH", work_scale=60.0), 3, checkpoint_at_s=3.0, seed=8)
    assert sorted(w.name for w in restored.workers) == sorted(checkpoint.workers)
    assert not restored.clearinghouse.assign_root
    assert bring_ups() == [
        (5, _streams("worker", 3)),   # run_job
        (6, _streams("worker", 3)),   # run_job_with_crashes
        (7, _streams("worker", 3)),   # run_checked
        (8, _streams("worker", 3)),   # checkpoint_and_kill_run ...
        (9, _streams("restore", 3)),  # ... and its restore_job (seed + 1)
    ]


def test_nothing_else_under_src_assembles_a_dedicated_cluster():
    builders = {}
    for path in SRC.rglob("*.py"):
        calls = {n.func.id for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        for name in ("JobStats", "build_cluster", "RngRegistry", "Network"):
            if name in calls:
                builders.setdefault(name, set()).add(
                    path.relative_to(SRC).as_posix())
    assert builders["JobStats"] == {"phish.py"}
    # ... and the two macro systems get their network + workstations there
    # too (they add owners, the JobQ and a daemon per machine on top).
    assert builders["build_cluster"] == {
        "phish.py", "macro/system.py", "macro/traffic.py"}
    assert not builders["Network"] & {"macro/system.py", "macro/traffic.py"}
    for harness in ("check/harness.py", "fault/crash.py", "fault/checkpoint.py"):
        assert harness not in builders["RngRegistry"]
