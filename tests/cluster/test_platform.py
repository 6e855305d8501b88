"""Tests for platform profiles."""

import pytest

from repro.cluster.platform import (
    CM5_NODE,
    PLATFORMS,
    SPARCSTATION_1,
    SPARCSTATION_10,
    PlatformProfile,
)
from repro.errors import ReproError
from repro.net.network import NetworkParams


def test_registry_contains_all():
    assert set(PLATFORMS) == {"sparcstation-1", "sparcstation-10", "cm5-node"}


def test_seconds_conversion():
    # 12.5 MIPS: 12.5e6 cycles per second.
    assert SPARCSTATION_1.seconds(12.5e6) == pytest.approx(1.0)
    assert SPARCSTATION_10.seconds(1e8) == pytest.approx(1.0)


def test_ss10_faster_than_ss1():
    assert SPARCSTATION_10.seconds(1e6) < SPARCSTATION_1.seconds(1e6)


def test_cm5_message_overhead_two_orders_smaller():
    """The paper's claim: workstation messaging overhead is ~100x worse."""
    ratio = SPARCSTATION_1.net.send_overhead_s / CM5_NODE.net.send_overhead_s
    assert ratio >= 100


def test_strata_static_set_has_no_dynamic_overhead():
    assert CM5_NODE.dynamic_set_cycles == 0
    assert SPARCSTATION_10.dynamic_set_cycles > 0


def test_phish_task_overhead_exceeds_strata():
    assert SPARCSTATION_10.task_overhead_cycles() > CM5_NODE.task_overhead_cycles()


def test_invalid_mips():
    with pytest.raises(ReproError):
        PlatformProfile(
            name="bad", mips=0, net=NetworkParams(), spawn_cycles=1,
            schedule_cycles=1, sync_cycles=1, poll_cycles=1,
            dynamic_set_cycles=0, scheduler="x",
        )


def test_negative_overhead_rejected():
    with pytest.raises(ReproError):
        PlatformProfile(
            name="bad", mips=1, net=NetworkParams(), spawn_cycles=-1,
            schedule_cycles=1, sync_cycles=1, poll_cycles=1,
            dynamic_set_cycles=0, scheduler="x",
        )
