"""The two baseline schedulers under the invariant checker.

``central`` (one central queue) and ``push`` (sender-initiated
balancing) share the worker's protocol with the paper's scheduler but
move work with fire-and-forget MIGRATE datagrams (offer ``None``).
Unperturbed they are clean: 300 seeds each of fib(14) on 4 workers and
knary(5,4,1) on 8, of which a slice runs here.

Under ``mixed`` perturbations they are not.  Over fib(12), P = 4, seeds
0..999, ``central`` fails 10 seeds (all liveness; 421 and 829 also
conservation) and ``push`` fails one (421: conservation and liveness).
Nine of central's ten and push's one reclaim ``ws00``, the queue host;
central's 429 is a partition of {ws01, ws02} with no reclaim.  The
cause: nothing retries a fire-and-forget MIGRATE that does not arrive.
Push 421's reaches the reclaimed ws00 and ``Worker._on_migrate`` drops
it unrecorded; central's are lost in the network (the departed queue
host's unbound port, the partition).  The seeds below pin that open
hole (docs/checking.md, "Known open") until the baselines are mended.
"""

import dataclasses

import pytest

from repro.apps.fib import fib_job, fib_serial
from repro.apps.knary import knary_job, knary_nodes
from repro.check import CHECK_WORKER, Perturbation, run_checked


def baseline(mode):
    return dataclasses.replace(CHECK_WORKER, mode=mode, push_threshold=2,
                               load_broadcast_s=0.002)


@pytest.mark.parametrize("mode", ["central", "push"])
@pytest.mark.parametrize("seed", range(4))
def test_an_unperturbed_baseline_run_is_clean(mode, seed):
    for job, n, expected in ((fib_job(14), 4, fib_serial(14)),
                             (knary_job(5, 4, 1), 8, knary_nodes(5, 4))):
        run = run_checked(job, n_workers=n, seed=seed, expected=expected,
                          worker_config=baseline(mode))
        assert run.completed and run.result == expected
        run.require_ok()


def perturbed(mode, seed):
    return run_checked(fib_job(12), n_workers=4, seed=seed,
                       perturbation=Perturbation.generate(seed, 4, "mixed"),
                       expected=fib_serial(12), worker_config=baseline(mode))


# reproduce (from the repo root, PYTHONPATH=src:.):
#   from tests.check.test_baselines import perturbed
#   print(perturbed("push", 421).report.summary())
@pytest.mark.xfail(strict=True, reason="open: fire-and-forget MIGRATE lost "
                   "at a departed worker (docs/checking.md, Known open)")
@pytest.mark.parametrize("mode, seed", [
    ("push", 421),     # reclaim(ws00@0.012s): conservation + liveness
    ("central", 60),   # reclaim(ws00@0.012s), crash(ws02@0.033s): liveness
    ("central", 429),  # partition(ws01|ws02@0.046-0.087s), no reclaim: liveness
])
def test_a_perturbed_baseline_run_is_clean(mode, seed):
    perturbed(mode, seed).require_ok()
