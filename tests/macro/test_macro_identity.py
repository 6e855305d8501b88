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
    "fair/bursty/idle/0": ("702422306170d5e0", 1015, 101),
    "fair/bursty/idle/5": ("a1906a1084ffbc5e", 1009, 100),
    "fair/bursty/workday/0": ("0362c45cf33df84d", 1145, 108),
    "fair/bursty/workday/5": ("7b73cccf72dea8b8", 1111, 106),
    "fair/poisson/idle/0": ("de243695d661e6ab", 1103, 120),
    "fair/poisson/idle/5": ("c0f69bdd2f6028c5", 1091, 116),
    "fair/poisson/workday/0": ("0ae78f0f781dbdbc", 1185, 112),
    "fair/poisson/workday/5": ("8fe039ad2f9b334d", 1213, 132),
    "interrupt/bursty/idle/0": ("63d455ed14086229", 1073, 114),
    "interrupt/bursty/idle/5": ("69028e4f4e8591cd", 1015, 106),
    "interrupt/bursty/workday/0": ("06e89add38549284", 1206, 122),
    "interrupt/bursty/workday/5": ("b1ada7107ebea5a3", 1162, 120),
    "interrupt/poisson/idle/0": ("1f3d4d35d42a78c1", 1138, 132),
    "interrupt/poisson/idle/5": ("2e9d48ca641d8d4e", 1199, 129),
    "interrupt/poisson/workday/0": ("7834d51b37ae845d", 1270, 132),
    "interrupt/poisson/workday/5": ("e60236a393cec226", 1206, 134),
    "least/bursty/idle/0": ("f35f42f583ca7525", 972, 98),
    "least/bursty/idle/5": ("d8d026acfa6ceb41", 957, 92),
    "least/bursty/workday/0": ("72cff6e6b7bdf46c", 1119, 100),
    "least/bursty/workday/5": ("9d5c4448b3fc18f8", 1074, 104),
    "least/poisson/idle/0": ("5e0da846510c2dcb", 981, 100),
    "least/poisson/idle/5": ("b020de0c73606eeb", 975, 96),
    "least/poisson/workday/0": ("47bf5810c497adee", 1137, 120),
    "least/poisson/workday/5": ("223cc288f8de65ec", 1102, 108),
    "priority/bursty/idle/0": ("d41ebe96636f73ef", 972, 98),
    "priority/bursty/idle/5": ("0d8361b36f025e33", 966, 94),
    "priority/bursty/workday/0": ("6c816a106c59cf63", 1126, 108),
    "priority/bursty/workday/5": ("f6b4b1dbab04aa37", 1086, 104),
    "priority/poisson/idle/0": ("80ee08174b30ede0", 1071, 112),
    "priority/poisson/idle/5": ("6f1b57139a93ce07", 1047, 110),
    "priority/poisson/workday/0": ("bd9a65730cefa7af", 1152, 108),
    "priority/poisson/workday/5": ("f68c95c950802ace", 1142, 122),
    "rr/bursty/idle/0": ("5c0bafc8ab6d6544", 972, 98),
    "rr/bursty/idle/5": ("9831711496ffe63a", 957, 92),
    "rr/bursty/workday/0": ("15d74760626325ca", 1116, 110),
    "rr/bursty/workday/5": ("98fa262896c2d276", 1086, 110),
    "rr/poisson/idle/0": ("2e4a479c7f400894", 1017, 100),
    "rr/poisson/idle/5": ("62a5e156fe3b1d81", 976, 88),
    "rr/poisson/workday/0": ("94cc8d60c952e6e3", 1151, 112),
    "rr/poisson/workday/5": ("3899caa86e6c897b", 1109, 110),
    "srp/bursty/idle/0": ("c58a1865961aaf00", 1924, 270),
    "srp/bursty/idle/5": ("d20230a8d86233d4", 1977, 282),
    "srp/bursty/workday/0": ("5774c0c7b3e8fc9b", 2071, 280),
    "srp/bursty/workday/5": ("341abee3274ef066", 2085, 294),
    "srp/poisson/idle/0": ("33e70e25d0a21845", 1843, 256),
    "srp/poisson/idle/5": ("be1cb5d2e32cb962", 1905, 262),
    "srp/poisson/workday/0": ("c3ed2fad59252c3d", 2060, 276),
    "srp/poisson/workday/5": ("8df5022d36aeac61", 1993, 280),
}

SCENARIOS = {
    "harvest/0": (
        "ace374c2ce74e4639ca849e64abf17a59b35ed51f5259ebf181aeb45d3892809",
        196226),
    "harvest/1": (
        "6a95427a0a0acdbd4142063b2fbec35f660111bf56237ae2d241aabc1b4a5d18",
        197765),
    "harvest/2": (
        "7bf75729ca37f4f4a7a61c88e7e7fb187e88822414e06e10d233117546e1b212",
        197755),
    "macro-demo/0": (
        "bc3f155325f4ac7b3191d4c129eb087dbe0c29731cd651106c6d48da89928452",
        69742),
    "macro-demo/1": (
        "308f6c7a5eca31a2dd64e7d122d64b8e6e14d441a227a9f0f244ae3a4a282975",
        69436),
    "macro-demo/2": (
        "09fce24ee7a183f144f1b7817fbade7aa5e251c0362a7cd9d312b2b644f4b4f8",
        69326),
    "timeline/0": (
        "ddf79c2accaa966177cb9db62ad00004ca1186db2138f8f3f8d2f6f094c38646",
        65913),
    "timeline/1": (
        "9ddaca3de63f84ae3a52ceba80563e80270a36fa60b661af0de5c116575c849b",
        65902),
    "timeline/2": (
        "82fd7984698b4c14b4aa6aa459be398f120a3ae8659f576411f2922028f5bb76",
        65629),
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
