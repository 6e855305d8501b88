"""Byte-level pins above the micro layer, taken from the commit *before*
the macro scheduler was folded onto one daemon, one keyed policy index
and one bring-up (PR 18).

``TRAFFIC`` pins ``(sha256(repr(TrafficReport))[:16], sim.events_processed,
network.counters.sent)`` of small traffic runs for every assignment
policy x {poisson, bursty} arrivals x {idle, workday} owners x seeds
{0, 5}: the report carries every sojourn/wait percentile and the JobQ's
request/grant/scanned counts, the event and message counts catch a
reordering that happens to leave those alone.  ``SCENARIOS`` pins the
sha256 of the full ``TraceLog.dump()`` (and the kernel's event count) of
the three ``PhishSystem`` scenarios the CLI ships — ``macro-demo``,
``timeline`` and ``harvest`` — at seeds 0-2, traced from outside (the
trace never perturbs a run).

To re-pin after a *deliberate* behaviour change:
``PYTHONPATH=src python tests/macro/test_macro_identity.py``.
"""

import argparse
import contextlib
import dataclasses
import hashlib
from pathlib import Path

import pytest

import repro.macro
from repro import cli
from repro.experiments.harvest import run_harvest
from repro.macro import PhishJobManager, PhishSystem, PhishSystemConfig
from repro.macro.policies import POLICY_FACTORIES
from repro.macro.traffic import TrafficConfig, TrafficSystem

BASE = TrafficConfig(n_workstations=6, n_jobs=40, sizes="exponential",
                     size_mean_s=10.0, rate_per_s=0.8,
                     owner_busy_mean_s=30.0, owner_idle_mean_s=90.0)
POLICIES = ("rr", "priority", "least", "srp", "fair", "interrupt")


def traffic_fingerprint(key):
    policy, arrival, owners, seed = key.split("/")
    system = TrafficSystem(dataclasses.replace(
        BASE, policy=policy, arrival=arrival, owners=owners, seed=int(seed)))
    try:
        report = system.run()
    finally:
        system.stop()
    return (hashlib.sha256(repr(report).encode()).hexdigest()[:16],
            system.sim.events_processed, system.network.counters.sent)


@contextlib.contextmanager
def traced_systems():
    """Every ``PhishSystem`` built inside runs with ``trace=True`` and is
    collected — the scenarios build theirs internally."""
    built = []
    plain_init = PhishSystem.__init__

    def init(self, config=None):
        plain_init(self, dataclasses.replace(
            config or PhishSystemConfig(), trace=True))
        built.append(self)

    PhishSystem.__init__ = init
    try:
        yield built
    finally:
        PhishSystem.__init__ = plain_init


def scenario_fingerprint(key):
    name, seed = key.split("/")
    args = argparse.Namespace(seed=int(seed), perfetto=None)
    with traced_systems() as built:
        if name == "macro-demo":
            cli._cmd_macro_demo(args)
        elif name == "timeline":
            cli._cmd_timeline(args)
        else:
            run_harvest(seed=args.seed)
    (system,) = built
    return (hashlib.sha256(system.trace.dump().encode()).hexdigest(),
            system.sim.events_processed)


TRAFFIC = {
    "fair/bursty/idle/0": ("4ff134afcfc1cebd", 1403, 179),
    "fair/bursty/idle/5": ("8701fc8852dd6f42", 1396, 179),
    "fair/bursty/workday/0": ("bff1e29ccdf80939", 1488, 176),
    "fair/bursty/workday/5": ("29e3a762b11f2d10", 1461, 175),
    "fair/poisson/idle/0": ("59b7a545e7c2d9eb", 1571, 219),
    "fair/poisson/idle/5": ("862738cb8c7bd7e0", 1551, 212),
    "fair/poisson/workday/0": ("b2f0e047b358fbdc", 1561, 183),
    "fair/poisson/workday/5": ("7070622f487cd6d4", 1651, 227),
    "interrupt/bursty/idle/0": ("751eb9f9cd74af0c", 1489, 203),
    "interrupt/bursty/idle/5": ("f1af0d1294098bbb", 1382, 187),
    "interrupt/bursty/workday/0": ("60e2855d471994ad", 1583, 200),
    "interrupt/bursty/workday/5": ("adfe120deea0c372", 1538, 199),
    "interrupt/poisson/idle/0": ("7f76d19630b32624", 1602, 237),
    "interrupt/poisson/idle/5": ("93ad125c047133be", 1504, 219),
    "interrupt/poisson/workday/0": ("c9538c0a8bf09ae3", 1692, 218),
    "interrupt/poisson/workday/5": ("014cf4403c0ca7cf", 1581, 219),
    "least/bursty/idle/0": ("c609d3a7c9625be9", 1324, 176),
    "least/bursty/idle/5": ("9a9596f109a88950", 1298, 163),
    "least/bursty/workday/0": ("23ccf40018c4df82", 1439, 160),
    "least/bursty/workday/5": ("31e3dae0334c8c6d", 1392, 172),
    "least/poisson/idle/0": ("0c41cd13b635f619", 1341, 180),
    "least/poisson/idle/5": ("74f724871a3cfb30", 1332, 171),
    "least/poisson/workday/0": ("7dcf9d84cd42b346", 1473, 199),
    "least/poisson/workday/5": ("2141b2b63b8d56a7", 1446, 179),
    "priority/bursty/idle/0": ("63feb64b72bdc3d2", 1324, 176),
    "priority/bursty/idle/5": ("76e5cd2367e5e1dd", 1315, 167),
    "priority/bursty/workday/0": ("4c713e0c42720848", 1454, 175),
    "priority/bursty/workday/5": ("9a37bb7f58c5c185", 1414, 171),
    "priority/poisson/idle/0": ("e8ffdc0a826ad5ba", 1511, 203),
    "priority/poisson/idle/5": ("c34c5f81f73dab34", 1468, 203),
    "priority/poisson/workday/0": ("7fe42f30c1f779bc", 1502, 175),
    "priority/poisson/workday/5": ("9f8df459d2fcd17d", 1518, 207),
    "rr/bursty/idle/0": ("985ca1b955c3c229", 1324, 176),
    "rr/bursty/idle/5": ("8d17f3f9c4486935", 1298, 163),
    "rr/bursty/workday/0": ("677032541cfaa42f", 1434, 179),
    "rr/bursty/workday/5": ("9ff010ec703f43a7", 1414, 183),
    "rr/poisson/idle/0": ("275df9e25001e8db", 1409, 179),
    "rr/poisson/idle/5": ("c263539f9fac5fec", 1334, 155),
    "rr/poisson/workday/0": ("2acd7d67f88d112b", 1500, 183),
    "rr/poisson/workday/5": ("6fd169528610f2bd", 1443, 180),
    "srp/bursty/idle/0": ("0f0f041dcf2b8e8c", 3108, 521),
    "srp/bursty/idle/5": ("7e088098e9ea79aa", 3289, 547),
    "srp/bursty/workday/0": ("23a04bea99a02e01", 3199, 519),
    "srp/bursty/workday/5": ("ddd6fedf1468a221", 3374, 556),
    "srp/poisson/idle/0": ("50a3aae71f18e3e8", 2972, 489),
    "srp/poisson/idle/5": ("d7db3962804b9601", 3073, 509),
    "srp/poisson/workday/0": ("873f44e99d189186", 3180, 507),
    "srp/poisson/workday/5": ("ca62f681d880f6c5", 3122, 523),
}

SCENARIOS = {
    "harvest/0": (
        "9afa4fc663bd5afa34bfc1f224cb26749bac57377f4ba38c523f9eaf244dd547",
        196350),
    "harvest/1": (
        "2d7ca9cf20d0cdb55badcdb42301491f3a8b89304de8ad8c431d9f8675292ecb",
        198278),
    "harvest/2": (
        "5888c2002bd9cdaf779c30e2f0008b0983194a947c8bbd4aeaeb6bf9215a0a41",
        197450),
    "macro-demo/0": (
        "7c429ebfbdde074c67fb3166ee59e421313e58c0e46e75483652d3b8e6cc94ea",
        69679),
    "macro-demo/1": (
        "673c1eba5e74320df35be8f779d25b481ef154f4e2020def53d57cca8c103d99",
        69342),
    "macro-demo/2": (
        "175819443df3ddf5aa3c5f426a094dc5d0e2a2a48f175377d89f7964ebda7ba4",
        69945),
    "timeline/0": (
        "bdd903e044e9e612401fc0d3c739a6be46adb57c3c29cd4fe4c9d2e3860625ff",
        65937),
    "timeline/1": (
        "cca71e235e0f627bcfcc292a654e2dc4341499168b62e348a042c70cdc8dd091",
        65926),
    "timeline/2": (
        "6b5bc8a79d356f8e93a8fc53e7c0b6f4dbc553172eb72a29f92d07d2c32a92c0",
        65653),
}


def test_the_matrix_covers_every_policy_and_both_owner_models():
    assert ({POLICY_FACTORIES[p] for p in POLICIES}
            == set(POLICY_FACTORIES.values()))
    assert set(TRAFFIC) == {
        f"{p}/{a}/{o}/{s}" for p in POLICIES
        for a in ("poisson", "bursty") for o in ("idle", "workday")
        for s in (0, 5)}


@pytest.mark.parametrize("key", sorted(TRAFFIC))
def test_traffic_run_is_the_parent_commits(key):
    assert traffic_fingerprint(key) == TRAFFIC[key]


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_phish_system_scenario_trace_is_the_parent_commits(key):
    assert scenario_fingerprint(key) == SCENARIOS[key]


def test_every_traffic_machine_runs_the_papers_daemon():
    system = TrafficSystem(BASE)
    try:
        assert sorted(system.jobmanagers) == [ws.name for ws in system.workstations]
        for daemon in system.jobmanagers.values():
            assert isinstance(daemon, PhishJobManager)
            # the loop is the parent class's: the engine overrides only
            # the no-job wait and the participation.
            assert type(daemon)._run is PhishJobManager._run
    finally:
        system.stop()
    assert not hasattr(TrafficSystem, "_agent")
    # One request loop in the package: the daemon's call, the JobQ's handler.
    macro = Path(repro.macro.__file__).parent
    assert {path.name: path.read_text().count('"request_job"')
            for path in macro.glob("*.py")
            if '"request_job"' in path.read_text()} == {
        "jobmanager.py": 1, "jobq.py": 1}


def test_owner_login_mid_quantum_gives_the_machine_back():
    """Sovereignty in the engine's participation: the owner sits down
    while the daemon is draining a job, and within a quantum the JobQ
    no longer counts the machine as a participant (the job is not done:
    it was released, not completed)."""
    system = TrafficSystem(dataclasses.replace(
        BASE, n_workstations=1, n_jobs=1, size_mean_s=500.0))
    try:
        ws = system.workstations[0]
        record = None
        while record is None or ws.name not in record.participants:
            system.sim.run(until=system.sim.now + 0.5)
            record = system.jobq.jobs.get(0)
        ws.user_logged_in = True
        system.sim.run(until=system.sim.now + BASE.quantum_s + 0.1)
        assert ws.name not in record.participants
        assert not record.done and record.remaining_s > 0
        grants = system.jobq.grants
        system.sim.run(until=system.sim.now + 10 * BASE.owner_poll_s)
        assert system.jobq.grants == grants   # and it stays away
    finally:
        system.stop()


if __name__ == "__main__":
    for pins, fingerprint in ((TRAFFIC, traffic_fingerprint),
                              (SCENARIOS, scenario_fingerprint)):
        for key in sorted(pins):
            print(f'    "{key}": {fingerprint(key)!r},')
