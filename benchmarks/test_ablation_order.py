"""Bench ablation: LIFO-exec/FIFO-steal (paper) vs the other 3 combos."""

from repro.experiments.ablations import SECTIONS

run_order_ablation, format_order_ablation = SECTIONS["order"]


def test_order_ablation(once, show, bench_seed):
    rows = once(run_order_ablation, seed=bench_seed)
    by_variant = {r.variant: r for r in rows}
    paper = by_variant["exec=lifo steal=fifo (paper)"]
    fifo_exec = by_variant["exec=fifo steal=fifo"]
    lifo_steal = by_variant["exec=lifo steal=lifo"]
    worst = by_variant["exec=fifo steal=lifo"]

    assert all(r.correct for r in rows)

    # Memory-locality claim: FIFO execution explodes the working set.
    assert fifo_exec.max_tasks_in_use > 100 * paper.max_tasks_in_use

    # Communication-locality claim: LIFO stealing multiplies steals.
    assert lifo_steal.tasks_stolen > 10 * paper.tasks_stolen
    assert lifo_steal.messages_sent > 10 * paper.messages_sent

    # And the paper's combination is the fastest of the four.
    assert paper.avg_time_s == min(r.avg_time_s for r in rows)
    assert worst.avg_time_s > 2 * paper.avg_time_s

    show(format_order_ablation(rows))
