"""Tests for the workstation model: compute timing, accounting, crashes."""

import pytest

from repro.cluster.platform import SPARCSTATION_1, SPARCSTATION_10
from repro.cluster.workstation import Workstation
from repro.errors import NetworkError, ReproError
from repro.net.network import NetworkParams
from repro.sim.core import Interrupt


def test_execute_advances_clock_by_cycles(sim):
    ws = Workstation(sim, "w", SPARCSTATION_1)

    def proc(sim):
        yield ws.execute(12.5e6)  # one second at 12.5 MIPS
        return sim.now

    assert sim.run(sim.process(proc(sim))) == pytest.approx(1.0)


def test_faster_machine_finishes_sooner(sim):
    slow = Workstation(sim, "slow", SPARCSTATION_1)
    fast = Workstation(sim, "fast", SPARCSTATION_10)
    times = {}

    def proc(sim, ws):
        yield ws.execute(1e6)
        times[ws.name] = sim.now

    sim.process(proc(sim, slow))
    sim.process(proc(sim, fast))
    sim.run()
    assert times["fast"] < times["slow"]


def test_busy_accounting(sim):
    ws = Workstation(sim, "w", SPARCSTATION_1)

    def proc(sim):
        yield ws.execute(12.5e6)
        yield sim.timeout(10)  # idle: not busy time
        yield ws.execute(12.5e6)

    sim.run(sim.process(proc(sim)))
    assert ws.cpu_busy_s == pytest.approx(2.0)


def test_charge_adds_without_blocking(sim):
    ws = Workstation(sim, "w", SPARCSTATION_1)
    ws.charge(0.25)
    assert ws.cpu_busy_s == 0.25
    # A negative charge is refused where the overhead is built, not on
    # each message.
    with pytest.raises(NetworkError):
        NetworkParams(send_overhead_s=-1)


def test_network_overhead_lands_in_rusage(sim, network):
    from repro.net.socket import Socket

    a = Workstation(sim, "a", SPARCSTATION_1, network)
    Workstation(sim, "b", SPARCSTATION_1, network)
    sa = Socket(network, "a", 1)
    Socket(network, "b", 2)
    sa.sendto("x", "b", 2)
    sim.run()
    assert a.cpu_busy_s == pytest.approx(SPARCSTATION_1.net.send_overhead_s)


def test_crash_interrupts_registered_processes(sim):
    ws = Workstation(sim, "w", SPARCSTATION_1)
    outcomes = []

    def proc(sim):
        try:
            yield sim.timeout(100)
            outcomes.append("finished")
        except Interrupt as i:
            outcomes.append(str(i.cause))

    p = sim.process(proc(sim))
    ws.register_process(p)

    def crasher(sim):
        yield sim.timeout(1)
        ws.crash()

    sim.process(crasher(sim))
    sim.run()
    assert outcomes == ["machine-crash"]


def test_crashed_machine_cannot_execute(sim):
    ws = Workstation(sim, "w", SPARCSTATION_1)
    ws.crash()
    with pytest.raises(ReproError):
        ws.execute(100)


def test_crash_idempotent(sim, network):
    ws = Workstation(sim, "w", SPARCSTATION_1, network)
    ws.crash()
    ws.crash()
    assert network.is_down("w")
