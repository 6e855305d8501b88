"""The scheduling mode a Worker binds once (repro.micro.initiation)."""

import pytest

from repro.apps.fib import fib_job
from repro.cluster.platform import SPARCSTATION_1
from repro.cluster.workstation import Workstation
from repro.errors import SchedulerError
from repro.micro.initiation import MODES, STEAL_AMOUNTS
from repro.micro.worker import Worker, WorkerConfig
from repro.net.network import Network
from repro.net.topology import UniformTopology
from repro.phish import run_job

HOOKS = ("ship", "after_task", "idle", "victims", "start", "on_load")


def worker(sim, name="wA", ch_host="wA", **config):
    net = Network(sim, UniformTopology(SPARCSTATION_1.net))
    return Worker(sim, Workstation(sim, name, SPARCSTATION_1, net), net,
                  fib_job(5), ch_host, WorkerConfig(**config))


def bound(w):
    return [hook for hook in HOOKS if getattr(w.initiation, hook) is not None]


def test_the_papers_scheduler_binds_no_hook(sim):
    w = worker(sim)
    assert bound(w) == []
    assert w._initiation_proc is None


def test_early_stealing_binds_only_the_after_task_hook(sim):
    assert bound(worker(sim, proactive_threshold=2)) == ["after_task"]


def test_the_central_queue_holder_ships_nothing_and_asks_nobody(sim):
    holder = worker(sim, "ws00", "ws00", mode="central")
    assert bound(holder) == ["victims"] and holder.initiation.victims == ()
    other = worker(sim, "ws01", "ws00", mode="central")
    assert bound(other) == ["ship", "victims"]
    assert other.initiation.victims == ("ws00",)


def test_push_spawns_its_balancer_after_the_update_loop(sim):
    w = worker(sim, mode="push")
    assert bound(w) == ["after_task", "idle", "start", "on_load"]
    names = [proc.name for proc in w.workstation._registered]
    assert names == ["worker-run@wA", "worker-net@wA", "worker-upd@wA", "worker-bal@wA"]
    assert w._initiation_proc is w.workstation._registered[-1]


@pytest.mark.parametrize("config, known", [
    (dict(mode="pushh"), str(sorted(MODES))),
    (dict(mode="Central"), str(sorted(MODES))),
    (dict(steal_amount="halve"), str(list(STEAL_AMOUNTS))),
], ids=["mode-pushh", "mode-Central", "steal_amount-halve"])
def test_an_unknown_scheduling_value_is_refused(config, known):
    with pytest.raises(SchedulerError) as err:
        run_job(fib_job(10), n_workers=4, seed=1,
                worker_config=WorkerConfig(**config))
    assert str(err.value).endswith(f"known: {known}")
