"""Bench ablation: idle-initiated stealing vs central queue vs
sender-initiated (Parform-style) pushing."""

from repro.experiments.ablations import SECTIONS

run_initiation_ablation, format_initiation_ablation = SECTIONS["initiation"]


def test_initiation_ablation(once, show, bench_seed):
    rows = once(run_initiation_ablation, seed=bench_seed)
    steal, central, push = rows

    assert all(r.correct for r in rows)

    # Central queue: every spawn crosses the network — orders of
    # magnitude more messages, and much slower.
    assert central.messages_sent > 50 * steal.messages_sent
    assert central.avg_time_s > 2 * steal.avg_time_s
    assert central.migrated > 1000

    # Sender-initiated: moves tasks nobody asked for and broadcasts
    # load; the idle-initiated scheduler "does not move a task unless an
    # idle machine requests work".
    assert push.messages_sent > 5 * steal.messages_sent
    assert push.migrated > 10 * max(1, steal.tasks_stolen)
    assert steal.migrated == 0

    show(format_initiation_ablation(rows))
