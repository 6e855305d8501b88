"""Unit and property tests for the online health-diagnosis engine."""

import json
import pickle

import pytest

from repro.obs.health import (
    INCIDENT_KINDS,
    MAX_TRACKED,
    RING_CAPACITY,
    STORM_TIMEOUTS,
    STRAGGLER_MIN_TASKS,
    HealthMonitor,
    Incident,
    IncidentRing,
    incident_sort_key,
    merge_incident_snapshots,
)
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.probe import Probe
from tests.obs.emitting import emitter


def _wired():
    """A monitor fed the way a run feeds it: through a Probe's table."""
    hm = HealthMonitor(MetricsRegistry())
    probe = Probe()
    hm.subscribe(probe)
    return hm, emitter(probe)


def _incident(kind="steal-storm", t=1.0, subject="ws01", **evidence):
    return Incident(kind=kind, severity="warn", t_start=t, t_end=t + 0.1,
                    subject=subject,
                    evidence=tuple(sorted(evidence.items())))


# ------------------------------------------------------------- incidents


def test_incident_row_roundtrip_and_pickle():
    inc = _incident(timeouts=10, window_s=0.25)
    assert Incident.from_row(inc.row()) == inc
    assert pickle.loads(pickle.dumps(inc)) == inc
    assert inc.kind in INCIDENT_KINDS


def test_ring_sorts_and_bounds():
    ring = IncidentRing("x", capacity=3)
    ring.push(_incident(t=2.0))
    ring.push(_incident(t=1.0, subject="ws02"))
    ring.push(_incident(t=1.0, subject="ws00"))
    assert [i.t_start for i in ring.incidents] == [1.0, 1.0, 2.0]
    assert [i.subject for i in ring.incidents][:2] == ["ws00", "ws02"]
    # Full ring drops *new* incidents, counting them.
    ring.push(_incident(t=9.9))
    assert len(ring) == 3
    assert ring.dropped == 1
    snap = ring.snapshot()
    assert snap["count"] == 3 and snap["dropped"] == 1
    assert [r["t_start"] for r in snap["rows"]] == [1.0, 1.0, 2.0]


def test_ring_rejects_bad_capacity():
    with pytest.raises(ValueError):
        IncidentRing("x", capacity=0)


def test_merge_is_order_insensitive_and_deterministic():
    a = IncidentRing("x")
    b = IncidentRing("x")
    rows = [_incident(t=3.0), _incident(t=1.0), _incident(t=2.0, subject="a")]
    for inc in rows[:2]:
        a.push(inc)
    b.push(rows[2])
    ab = merge_incident_snapshots("x", a.snapshot(), b.snapshot())
    ba = merge_incident_snapshots("x", b.snapshot(), a.snapshot())
    assert json.dumps(ab, sort_keys=True) == json.dumps(ba, sort_keys=True)
    assert [r["t_start"] for r in ab["rows"]] == [1.0, 2.0, 3.0]


def test_merge_overflow_counts_dropped():
    a = IncidentRing("x", capacity=2)
    b = IncidentRing("x", capacity=2)
    for t in (1.0, 2.0):
        a.push(_incident(t=t))
    for t in (0.5, 3.0):
        b.push(_incident(t=t))
    merged = merge_incident_snapshots("x", a.snapshot(), b.snapshot())
    assert merged["count"] == 2
    assert merged["dropped"] == 2
    # The *earliest* incidents survive a truncating merge.
    assert [r["t_start"] for r in merged["rows"]] == [0.5, 1.0]


def test_registry_merges_incident_rings():
    regs = []
    for t in (2.0, 1.0):
        reg = MetricsRegistry()
        HealthMonitor(reg).ring.push(_incident(t=t))
        regs.append(reg)
    merged = merge_snapshots([r.snapshot() for r in regs])
    rows = merged["health.incidents"]["rows"]
    assert [r["t_start"] for r in rows] == [1.0, 2.0]


def test_sort_key_total_order_on_ties():
    r1 = _incident(t=1.0, subject="ws01", a=1).row()
    r2 = _incident(t=1.0, subject="ws01", a=2).row()
    assert incident_sort_key(r1) != incident_sort_key(r2)
    assert incident_sort_key(r1) < incident_sort_key(r2)


# ------------------------------------------------------------- detectors


def test_steal_storm_counts_timeouts_not_refusals():
    hm, emit = _wired()
    for i in range(4 * STORM_TIMEOUTS):
        emit(i * 0.005, "steal.refused", "ws01", victim="ws02")
    assert not hm.incidents  # refusals never storm
    for i in range(STORM_TIMEOUTS):
        emit(0.5 + i * 0.005, "steal.timeout", "ws01", victim="ws02")
    kinds = [i.kind for i in hm.incidents]
    assert kinds.count("steal-storm") == 1
    # Debounced: staying above threshold re-fires nothing.
    for i in range(STORM_TIMEOUTS):
        emit(0.6 + i * 0.005, "steal.timeout", "ws01", victim="ws02")
    assert [i.kind for i in hm.incidents].count("steal-storm") == 1


def test_steal_storm_rearms_after_abating():
    hm, emit = _wired()
    for i in range(STORM_TIMEOUTS):
        emit(i * 0.01, "steal.timeout", "ws01", victim="ws02")
    # Quiet period: the window empties, the detector re-arms.
    emit(10.0, "steal.timeout", "ws01", victim="ws02")
    for i in range(STORM_TIMEOUTS):
        emit(10.01 + i * 0.01, "steal.timeout", "ws01", victim="ws02")
    assert [i.kind for i in hm.incidents].count("steal-storm") == 2


def test_starvation_needs_a_holder():
    hm, emit = _wired()
    for i in range(10):
        emit(i * 0.01, "steal.refused", "ws01", victim="ws02")
    assert not hm.incidents  # nobody demonstrably holds work
    emit(0.2, "deque.depth", "ws02", deque=6)
    emit(0.21, "steal.refused", "ws01", victim="ws02")
    starved = [i for i in hm.incidents if i.kind == "starvation"]
    assert len(starved) == 1
    assert dict(starved[0].evidence)["holder"] == "ws02"
    # A successful steal clears the streak and the episode.
    emit(0.3, "steal.adopt", "ws01")
    for i in range(2):
        emit(0.31 + i * 0.01, "steal.refused", "ws01", victim="ws02")
    assert len([i for i in hm.incidents if i.kind == "starvation"]) == 1


def test_straggler_fires_on_ewma_outlier():
    hm, emit = _wired()
    for i in range(20):
        emit(i * 0.01, "task.done", f"ws0{i % 3}", deque=0, service_s=0.001)
    assert not hm.incidents
    # One slow machine among busy fast ones: its EWMA is a large
    # multiple of the cluster's, which its own rare samples move only
    # briefly (and each is compared with the cluster EWMA from before
    # it).  Its task sizes vary; a uniformly slow machine is
    # test_uniformly_slow_machine_is_a_straggler.
    for i in range(10 * STRAGGLER_MIN_TASKS + 10):
        emit(1.0 + i * 0.01, "task.done", f"ws0{i % 3}", deque=0, service_s=0.001)
        if i % 10 == 0:
            emit(1.0 + i * 0.01, "task.done", "ws09", deque=0,
                 service_s=0.5 if i % 20 == 0 else 0.1)
    stragglers = [i for i in hm.incidents if i.kind == "straggler"]
    assert [i.subject for i in stragglers] == ["ws09"]
    assert dict(stragglers[0].evidence)["tasks"] >= STRAGGLER_MIN_TASKS


@pytest.mark.parametrize("slowdown", [1, 4, 10])
def test_uniformly_slow_machine_is_a_straggler(slowdown):
    """fib(18) on four SparcStation 1s with ws03 at a tenth of the speed:
    every ws03 task is uniformly slow, and it is flagged; at 4x (under
    STRAGGLER_FACTOR) and at full speed nothing is."""
    import dataclasses

    from repro.apps.fib import fib_job
    from repro.cluster.platform import SPARCSTATION_1
    from repro.phish import run_job

    slow = dataclasses.replace(SPARCSTATION_1, mips=SPARCSTATION_1.mips / slowdown)
    registry = MetricsRegistry()
    hm = HealthMonitor(registry)
    run_job(fib_job(18), n_workers=4, seed=1, metrics=registry,
            profiles=[SPARCSTATION_1] * 3 + [slow])
    stragglers = [i.subject for i in hm.incidents if i.kind == "straggler"]
    assert stragglers == (["ws03"] if slowdown == 10 else [])


def test_retransmission_fires_at_retry_limit_once():
    hm, emit = _wired()
    for i in range(3):
        emit(i * 0.1, "arg.retry", "ws01", seq=7)
    stalls = [i for i in hm.incidents if i.kind == "partition-stall"]
    assert len(stalls) == 1
    ev = dict(stalls[0].evidence)
    assert ev["retries"] == 3 and ev["what"] == "arg"
    assert stalls[0].t_start == 0.0 and stalls[0].t_end == pytest.approx(0.2)


def test_link_drop_window():
    hm, emit = _wired()
    emit(0.0, "net.partition", "ws00", dst="ws01")
    emit(0.5, "net.partition", "ws00", dst="ws01")  # outside the first's window
    emit(0.55, "net.partition", "ws00", dst="ws01")
    assert not hm.incidents
    emit(0.58, "net.partition", "ws00", dst="ws01")
    stalls = [i for i in hm.incidents if i.kind == "partition-stall"]
    assert [i.subject for i in stalls] == ["ws00->ws01"]


def test_pulse_heartbeat_gap_and_recovery():
    hm, emit = _wired()
    emit(1.0, "ch.scan", "ws00", workers={"ws01": 0.95}, forwarders={},
         death_timeout_s=1.5, done=False)
    assert not hm.incidents
    emit(2.0, "ch.scan", "ws00", workers={"ws01": 0.95}, forwarders={},
         death_timeout_s=1.5, done=False)
    gaps = [i for i in hm.incidents if i.kind == "heartbeat-gap"]
    assert len(gaps) == 1 and gaps[0].severity == "warn"
    # Still silent: episode dedup holds.
    emit(2.2, "ch.scan", "ws00", workers={"ws01": 0.95}, forwarders={},
         death_timeout_s=1.5, done=False)
    assert len([i for i in hm.incidents if i.kind == "heartbeat-gap"]) == 1
    # A heartbeat ends the episode; renewed silence is a new incident.
    emit(2.3, "ch.heartbeat", "ws00", worker="ws01", gap_s=1.35)
    emit(4.0, "ch.scan", "ws00", workers={"ws01": 2.3}, forwarders={},
         death_timeout_s=1.5, done=False)
    assert len([i for i in hm.incidents if i.kind == "heartbeat-gap"]) == 2


def test_death_and_false_death():
    hm, emit = _wired()
    emit(1.7, "ch.worker_died", "ws00", worker="ws02", last_seen=0.1)
    emit(1.8, "ch.false_death", "ws00", worker="ws02")
    kinds = {(i.kind, i.severity) for i in hm.incidents}
    assert ("heartbeat-gap", "crit") in kinds
    assert ("false-death", "crit") in kinds


def test_watchdog_stall_respects_done_and_progress():
    hm, emit = _wired()
    emit(0.0, "ch.scan", "ws00", workers={"ws01": 0.0}, forwarders={},
         death_timeout_s=1.5, done=False)  # arms the watchdog
    emit(0.5, "task.done", "ws01", deque=0, service_s=0.01)
    emit(1.2, "ch.scan", "ws00", workers={"ws01": 1.2}, forwarders={},
         death_timeout_s=1.5, done=False)
    assert not [i for i in hm.incidents if i.kind == "stall"]
    emit(1.6, "ch.scan", "ws00", workers={"ws01": 1.6}, forwarders={},
         death_timeout_s=1.5, done=True)  # done: never a stall
    assert not [i for i in hm.incidents if i.kind == "stall"]
    hm2, emit2 = _wired()
    emit2(0.0, "ch.scan", "ws00", workers={"ws01": 0.0}, forwarders={},
          death_timeout_s=1.5, done=False)
    emit2(0.5, "task.done", "ws01", deque=0, service_s=0.01)
    emit2(1.6, "ch.scan", "ws00", workers={"ws01": 1.6}, forwarders={},
          death_timeout_s=1.5, done=False)
    stalls = [i for i in hm2.incidents if i.kind == "stall"]
    assert len(stalls) == 1 and stalls[0].t_start == 0.5


def test_slo_breach_dedups_per_job():
    hm = HealthMonitor(MetricsRegistry())
    hm.job_sojourn(10.0, 7, sojourn_s=9.0, slo_s=5.0)
    hm.job_sojourn(11.0, 7, sojourn_s=10.0, slo_s=5.0)
    hm.job_sojourn(12.0, 8, sojourn_s=1.0, slo_s=5.0)
    breaches = [i for i in hm.incidents if i.kind == "slo-breach"]
    assert [i.subject for i in breaches] == ["job7"]


# ------------------------------------------------------- memory bounding


def test_state_stays_bounded_under_flood():
    hm, emit = _wired()
    for i in range(20_000):
        t = i * 1e-4
        emit(t, "steal.timeout", f"ws{i % 8:02d}", victim="ws00")
        emit(t, "arg.retry", f"ws{i % 8:02d}", seq=i)  # unique seqs
        emit(t, "net.partition", f"ws{i % (2 * MAX_TRACKED):03d}",
             dst="ws00")  # more links than the cap
        hm.job_sojourn(t, i, sojourn_s=10.0, slo_s=1.0)   # many jobs
        emit(t, "ch.false_death", "ws00", worker=f"ws{i % 8:02d}")  # stateless
    # Every rolling structure obeys its cap: total state is O(window),
    # not O(events).  (8 workers' scalars + capped deques/dicts/sets.)
    assert hm.state_size() < 10 * MAX_TRACKED
    assert hm.ring.dropped > 0  # the ring bounded itself too
    assert len(hm.ring) == RING_CAPACITY


def test_clean_run_has_zero_state_growth_before_any_hook():
    hm = HealthMonitor(MetricsRegistry())
    assert hm.state_size() == 0
