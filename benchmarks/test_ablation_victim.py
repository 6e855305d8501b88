"""Bench ablation: random victim (paper) vs round-robin victim."""

from repro.experiments.ablations import SECTIONS

run_victim_ablation, format_victim_ablation = SECTIONS["victim"]


def test_victim_ablation(once, show, bench_seed):
    rows = once(run_victim_ablation, seed=bench_seed)
    random_row, rr_row = rows

    assert all(r.correct for r in rows)
    # The Blumofe–Leiserson point: random victims are already good —
    # the deterministic alternative buys no meaningful speed.
    assert random_row.avg_time_s < 1.15 * rr_row.avg_time_s
    assert rr_row.avg_time_s < 1.15 * random_row.avg_time_s
    # Both stay in the low-steal regime.
    for r in rows:
        assert r.tasks_stolen < 1000

    show(format_victim_ablation(rows))
