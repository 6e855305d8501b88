"""write_bench must preserve recorded history (the `pre_overhaul` and
`pre_calendar` baseline blocks) instead of clobbering it on re-record."""

import json

from repro.bench import HISTORY_KEYS, format_bench, load_bench, write_bench

PRE_OVERHAUL = {
    "kernel": {"events_per_s": 501086, "note": "seed kernel"},
}

PRE_CALENDAR = {
    "kernel": {"events_per_s": 1294745, "note": "three-mode heap kernel"},
}


def _fake_results(rate=1_000_000.0):
    return {
        "schema": 1,
        "recorded_at": "2026-01-01T00:00:00",
        "kernel": {"n_events": 10000, "repeats": 10, "best_s": 0.01,
                   "events_per_s": rate},
    }


def test_write_bench_preserves_pre_overhaul_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_kernel.json")
    first = dict(_fake_results(), pre_overhaul=PRE_OVERHAUL)
    write_bench(first, path)

    # Re-record without the historical block: it must survive.
    write_bench(_fake_results(rate=2_000_000.0), path)
    reread = load_bench(path)
    assert reread["pre_overhaul"] == PRE_OVERHAUL
    assert reread["kernel"]["events_per_s"] == 2_000_000.0
    assert reread["recorded_at"] == "2026-01-01T00:00:00"


def test_write_bench_carries_both_history_blocks_through_rerecords(tmp_path):
    """Two successive re-records: neither history block may be lost, and
    a re-record that *does* name a history key cannot overwrite it."""
    path = str(tmp_path / "BENCH_kernel.json")
    first = dict(_fake_results(), pre_overhaul=PRE_OVERHAUL,
                 pre_calendar=PRE_CALENDAR)
    write_bench(first, path)

    # Re-record #1: plain results, no history keys.
    write_bench(_fake_results(rate=2_000_000.0), path)
    # Re-record #2: partial results (a --profile timeouts run) that also
    # tries to smuggle in a bogus pre_calendar block.
    partial = {
        "schema": 1,
        "recorded_at": "2026-02-02T00:00:00",
        "timeouts": {"events_per_s": 1_500_000.0, "repeats": 10},
        "pre_calendar": {"kernel": {"events_per_s": -1, "note": "bogus"}},
    }
    write_bench(partial, path)

    reread = load_bench(path)
    assert reread["pre_overhaul"] == PRE_OVERHAUL
    assert reread["pre_calendar"] == PRE_CALENDAR  # recorded history wins
    assert reread["kernel"]["events_per_s"] == 2_000_000.0  # survived partial
    assert reread["timeouts"]["events_per_s"] == 1_500_000.0
    assert reread["recorded_at"] == "2026-02-02T00:00:00"


def test_write_bench_new_keys_win_over_existing(tmp_path):
    path = str(tmp_path / "BENCH_kernel.json")
    write_bench(_fake_results(rate=1.0), path)
    write_bench(_fake_results(rate=2.0), path)
    assert load_bench(path)["kernel"]["events_per_s"] == 2.0


def test_write_bench_fresh_file(tmp_path):
    path = str(tmp_path / "BENCH_kernel.json")
    write_bench(_fake_results(), path)
    with open(path) as fh:
        assert json.load(fh)["kernel"]["n_events"] == 10000


def test_write_bench_tolerates_corrupt_existing_file(tmp_path):
    path = str(tmp_path / "BENCH_kernel.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    write_bench(_fake_results(), path)
    assert load_bench(path)["kernel"]["n_events"] == 10000


def test_repo_baseline_still_has_pre_overhaul():
    """The recorded repo baseline keeps its seed-kernel history."""
    recorded = load_bench()
    if recorded is None:
        return  # no baseline on this machine; nothing to protect
    for key in HISTORY_KEYS:
        assert key in recorded, f"BENCH_kernel.json lost its {key} history block"
    assert format_bench(recorded)  # renders without raising
