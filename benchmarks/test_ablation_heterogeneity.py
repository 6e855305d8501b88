"""Bench ablation: heterogeneous network cuts (the paper's future work)."""

from repro.experiments.ablations import SECTIONS

run_heterogeneity_ablation, format_heterogeneity_ablation = SECTIONS["heterogeneity"]


def test_heterogeneity_ablation(once, show, bench_seed):
    rows = once(run_heterogeneity_ablation, seed=bench_seed)
    by_variant = {r.variant: r for r in rows}

    assert all(r.correct for r in rows)

    fifo_uniform = by_variant["FIFO steal, uniform LAN"]
    fifo_slow = by_variant["FIFO steal, slow backbone"]
    lifo_uniform = by_variant["LIFO steal, uniform LAN"]
    lifo_slow = by_variant["LIFO steal, slow backbone"]

    # The paper's FIFO stealing tolerates the slow cut: modest slowdown.
    fifo_penalty = fifo_slow.avg_time_s / fifo_uniform.avg_time_s
    assert fifo_penalty < 1.4

    # Leaf stealing crosses the cut constantly and pays dearly — the gap
    # the proposed locality-aware techniques would close.
    lifo_penalty = lifo_slow.avg_time_s / lifo_uniform.avg_time_s
    assert lifo_penalty > fifo_penalty

    show(format_heterogeneity_ablation(rows))
