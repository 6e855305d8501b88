"""Regressions found by the schedule-space fuzzer, pinned by seed.

Crash-buffer loss — fuzz seed 19331 of the shrink app (found by hypothesis) produced a
conservation violation: a STEAL_REPLY carrying a closure was delivered
into the victim's socket buffer while its net loop was busy inside a
blocking send, and the crash landed before the loop got back to the
buffer.  The closure died in the buffer without a ``closure.lost``
emission, so the conservation invariant saw it vanish.

The fix: a crashing worker sweeps its socket's buffered messages and
reports closures found in STEAL_REPLY and MIGRATE payloads as lost.
This test pins the exact failing schedule.
"""

import pytest

from repro.check import APPS, Perturbation, run_checked

SEED = 19331


def test_shrink_seed_19331_buffered_steal_reply_is_accounted():
    spec = APPS["shrink"]
    run = run_checked(
        spec.make(),
        n_workers=4,
        seed=SEED,
        perturbation=Perturbation.generate(SEED, 4),
        expected=spec.expected,
        worker_config=spec.worker_config,
    )
    assert run.completed, run.report.summary()
    run.require_ok()


def test_knary_seed_835_forwarder_death_is_detected():
    """Regression: a crashed forwarder deadlocked the job.

    Seed 835 at n_workers=4 (found by hypothesis) reclaims ws02, which
    departs gracefully — migrating its closures to a peer and staying
    behind as a fill forwarder — and then crashes ws02's host.  The
    Clearinghouse only watched registered workers' heartbeats, so the
    forwarder's death went undetected: a fill already in flight to it
    was dropped at the dead NIC, nobody redid the lost subtree, and the
    job hung until the liveness horizon.

    Departed-but-forwarding workers now keep heartbeating and the
    Clearinghouse keeps them under death surveillance, so the crash
    triggers the normal WORKER_DIED redo.
    """
    pert = Perturbation.generate(835, 4)
    assert pert.crashes and pert.reclaims
    assert pert.reclaims[0][0] < pert.crashes[0][0]  # depart, then die
    assert pert.crashes[0][1] == pert.reclaims[0][1]  # same machine
    spec = APPS["knary"]
    run = run_checked(
        spec.make(),
        n_workers=4,
        seed=835,
        perturbation=pert,
        expected=spec.expected,
        worker_config=spec.worker_config,
    )
    assert run.completed, run.report.summary()
    assert run.result == spec.expected
    run.require_ok()


def test_shrink_seed_36291_crash_racing_reclaim_redoes_inflight_grant():
    """Regression (bug 12): a crash racing a reclaim lost a grant's redo.

    Seed 36291 at n_workers=4 (found by hypothesis) reclaims ws03 at
    t=0.0164 and crashes its host at t=0.0169.  ws03 had a steal request
    in flight to ws00; its reclaim departure found nothing to migrate,
    so it unregistered with ``forwarding=False`` — leaving Clearinghouse
    death surveillance — just before the crash.  ws00's grant (already
    moved into ``outstanding[ws03]``) then died at the downed NIC, and
    because ws03's death was never declared, ``_on_worker_died`` never
    fired at ws00: the redo obligation was lost and the job deadlocked.

    A departing worker with an unanswered steal request now unregisters
    as a forwarder, so the crash window stays under death surveillance
    and the victim's crash redo regenerates the dropped grant.
    """
    pert = Perturbation.generate(36291, 4)
    assert pert.crashes and pert.reclaims
    assert pert.reclaims[0][0] < pert.crashes[0][0]  # reclaim, then die
    assert pert.crashes[0][1] == pert.reclaims[0][1]  # same machine
    spec = APPS["shrink"]
    run = run_checked(
        spec.make(),
        n_workers=4,
        seed=36291,
        perturbation=pert,
        expected=spec.expected,
        worker_config=spec.worker_config,
    )
    assert run.completed, run.report.summary()
    run.require_ok()


def test_knary_seed_13307_cluster_is_never_emptied():
    """Regression: perturbation generation removed every worker.

    At n_workers=2, seed 13307 (found by hypothesis) drew both a crash
    for ws01 and a reclaim for ws00.  The checked cluster has no
    enlistment path, so the job could never complete and the liveness
    check fired on an unsatisfiable scenario.  Generation now drops a
    reclaim that would empty the cluster; the crash still happens.
    """
    pert = Perturbation.generate(13307, 2)
    assert pert.crashes and not pert.reclaims
    spec = APPS["knary"]
    run = run_checked(
        spec.make(),
        n_workers=2,
        seed=13307,
        perturbation=pert,
        expected=spec.expected,
        worker_config=spec.worker_config,
    )
    assert run.completed, run.report.summary()
    assert run.result == spec.expected
    run.require_ok()


@pytest.mark.parametrize("seed", [1235, 2479, 3015, 3686, 7474, 8237, 9470])
def test_fib_crash_during_reclaim_migration_is_a_failstop(seed):
    """Regression (bug 13): a crash landing mid-departure aborted the run.

    Each seed reclaims a workstation and crashes it while the departing
    worker is still waiting for its migrate ack.  The ``machine-crash``
    Interrupt was raised out of ``_depart`` — itself running inside
    ``_run``'s Interrupt handler — so it escaped the process and took the
    whole simulation down as an unhandled exception.  It is now the
    fail-stop it is: the drained batch goes back on the ready list and is
    recorded ``closure.lost`` with the rest of the worker's state.
    """
    pert = Perturbation.generate(seed, 4)
    assert pert.crashes and pert.reclaims
    assert pert.reclaims[0][0] < pert.crashes[0][0]  # reclaim, then die
    assert pert.crashes[0][1] == pert.reclaims[0][1]  # same machine
    spec = APPS["fib"]
    run = run_checked(spec.make(), n_workers=4, seed=seed, perturbation=pert,
                      expected=spec.expected)
    assert run.completed, run.report.summary()
    run.require_ok()
    dead = run.workers[pert.crashes[0][1]]
    assert dead.exit_reason == "crashed" and dead._fill_hold is None
    (exit_ev,) = [e for e in run.trace.events()
                  if e.kind == "worker.exit.crashed" and e.source == dead.name]
    (lost,) = [e for e in run.trace.events()
               if e.kind == "closure.lost" and e.source == dead.name]
    assert len(lost.detail["cids"]) >= exit_ev.detail["deque"] + exit_ev.detail["susp"] > 0


# ---------------------------------------------------------------------------
# Bug 15: a crash Interrupt landing inside a Clearinghouse RPC was swallowed
# ---------------------------------------------------------------------------


def test_crash_during_the_heartbeat_rpc_stops_the_heartbeat_loop():
    """``Interrupt`` subclasses ``Exception``, and the heartbeat loop
    wrapped its RPC in ``except Exception: continue`` — so a crash that
    landed while the request was in flight was eaten and the loop of a
    dead machine kept running until the simulation ended."""
    import dataclasses

    from repro.apps.fib import fib_job, fib_serial
    from repro.check.harness import CHECK_WORKER

    # ws01's first heartbeat request leaves at 0.02 s (the period); the
    # crash lands 100 us later, before the reply can be back.
    cfg = dataclasses.replace(CHECK_WORKER, update_interval_s=0.02)
    run = run_checked(fib_job(18), n_workers=4, seed=3, worker_config=cfg,
                      perturbation=Perturbation(crashes=((0.0201, 1),)),
                      expected=fib_serial(18))
    dead = run.workers[1]
    assert dead.exit_reason == "crashed"
    assert not [e for e in run.trace.events()
                if e.kind == "worker.heartbeat" and e.source == "ws01"]
    assert not dead._update_proc.is_alive
    assert run.completed, run.report.summary()
    run.require_ok()


def test_crash_during_the_unregister_rpc_is_a_failstop_not_a_departure():
    """The same swallow around ``_depart``'s unregister recorded a crashed
    machine as ``worker.exit.reclaimed`` and let the departure run on on
    a dead host (bug 13's sibling)."""
    from repro.apps.fib import fib_job, fib_serial

    def go(crashes):
        return run_checked(
            fib_job(16), n_workers=4, seed=5, expected=fib_serial(16),
            perturbation=Perturbation(reclaims=((0.03, 2),), crashes=crashes))

    clean = go(())
    (landed,) = [e.time for e in clean.trace.events() if e.kind == "ch.unregister"
                 and e.detail["worker"] == "ws02"]
    (exited,) = [e.time for e in clean.trace.events()
                 if e.kind == "worker.exit.reclaimed" and e.source == "ws02"]
    assert 0.03 < landed < exited
    # Crash while the unregister's reply is on the wire.
    run = go((((landed + exited) / 2, 2),))
    dead = run.workers[2]
    exits = [e.kind for e in run.trace.events()
             if e.kind.startswith("worker.exit.") and e.source == "ws02"]
    assert exits == ["worker.exit.crashed"] and dead.exit_reason == "crashed"
    assert not dead._run_proc.is_alive and not dead._update_proc.is_alive
    assert run.completed, run.report.summary()
    run.require_ok()


# ---------------------------------------------------------------------------
# Bugs 14 and 16: a departed forwarder's migration redo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app, seed", [
    ("fib", 6835), ("shrink", 2357), ("shrink", 4905), ("shrink", 2305)])
def test_departed_forwarder_rehomes_a_dead_adopters_batch(app, seed):
    """Bug 14 (both "known open" hangs of ROADMAP item 1, and ten more
    shrink seeds in 0..9999).  ws00 is reclaimed before the jittered late
    starters have registered, migrates everything to the one peer it
    knows, and that adopter crashes.  ws00 still holds the batch
    (``Worker.migrated``) and the duty to re-home it, but drew its
    candidates from a peer set frozen at departure — empty once the
    adopter is dead — made one pass, recorded ``closure.lost
    reason=redo-no-peer`` and gave up for good, with live (or retired but
    listening) workers standing by.  Heartbeat replies now tell a
    departed worker who ever registered, and the handoff of an only copy
    is retried every update interval while the job runs."""
    spec = APPS[app]
    pert = Perturbation.generate(seed, 4)
    assert pert.crashes and pert.reclaims == ((pert.reclaims[0][0], 0),)
    assert pert.reclaims[0][0] < pert.crashes[0][0]  # depart, adopter dies
    run = run_checked(spec.make(), n_workers=4, seed=seed, perturbation=pert,
                      expected=spec.expected, worker_config=spec.worker_config)
    assert run.completed, run.report.summary()
    run.require_ok()
    adopter = f"ws{pert.crashes[0][1]:02d}"
    events = list(run.trace.events())
    (out,) = [e for e in events if e.kind == "migrate.out" and e.source == "ws00"]
    assert out.detail["target"] == adopter
    redo = next(e for e in events if e.kind == "redo" and e.source == "ws00"
                and e.detail["n"] == out.detail["n"])
    rehomed = [e for e in events if e.kind == "migrate.in" and e.time > redo.time
               and e.detail["sender"] == "ws00"]
    assert rehomed and sum(e.detail["n"] for e in rehomed) == out.detail["n"]
    assert not [e for e in events if e.kind == "closure.lost"
                and e.detail["reason"] == "redo-no-peer"]


@pytest.mark.parametrize("seed", [6877, 7290, 8552])
def test_fills_parked_during_a_handoff_survive_the_adopters_crash(seed):
    """Bug 16.  The adopter crashes within milliseconds of adopting,
    around the time the departing ws00 sees its ack.  Argument sends
    that reached ws00 during the handoff were parked, then sent on to the
    adopter — into a dead NIC — and, unlike fills relayed later through
    the forward map, were not retained for the migration redo's replay:
    the re-homed suspended closure waited forever on a slot whose value
    no longer existed anywhere."""
    spec = APPS["shrink"]
    pert = Perturbation.generate(seed, 4)
    run = run_checked(spec.make(), n_workers=4, seed=seed, perturbation=pert,
                      expected=spec.expected, worker_config=spec.worker_config)
    assert run.completed, run.report.summary()
    run.require_ok()
    events = list(run.trace.events())
    (adopted,) = [e for e in events if e.kind == "migrate.in"
                  and e.source == f"ws{pert.crashes[0][1]:02d}"]
    assert 0 < pert.crashes[0][0] - adopted.time < 5e-3
    assert run.workers[0]._forwarded  # what the redo replayed


def test_a_departing_workers_in_flight_suspended_table_is_not_audited():
    """Shrink seed 1772, found once the deque audit ran every few ms.
    ws00 is reclaimed and migrates its suspended closures to ws02; the
    ack crawls through a congestion spike, and before it lands ws02 has
    filled and run ('ws00', 2) — the same closure object ws00's table
    still holds until the ack clears it.  That table is in flight, not
    a live worker's parked ready closure."""
    spec = APPS["shrink"]
    run = run_checked(spec.make(), n_workers=4, seed=1772,
                      perturbation=Perturbation.generate(1772, 4),
                      expected=spec.expected, worker_config=spec.worker_config)
    run.require_ok()
    cid = ("ws00", 2)
    events = list(run.trace.events())
    executed = next(e.time for e in events
                    if e.kind == "closure.exec" and e.detail["cid"] == cid)
    out = next(e for e in events if e.kind == "migrate.out" and e.source == "ws00")
    assert cid in out.detail["cids"] and executed < out.time
