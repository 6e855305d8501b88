"""tools/ab_pairs.py: the choosing-metrics section 8 verdict on canned runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

#: PR 13's recorded micro_fib_observed runs, rounded: parent IQR ~2.2k.
PARENT = [56.6, 55.6, 57.8, 56.0, 57.1, 55.9, 56.9, 57.5, 55.7, 56.4]


def test_a_clear_gain_is_a_gain():
    change = [p + 9.0 for p in PARENT]
    word, won, gap, iqr = ab_pairs.verdict(PARENT, change)
    assert (word, won) == ("gain", 10)
    assert gap == pytest.approx(9.0) and 0 < iqr < gap


def test_nine_of_ten_is_enough_and_eight_is_not():
    change = [p + 9.0 for p in PARENT]
    change[3] = PARENT[3] - 1.0
    assert ab_pairs.verdict(PARENT, change)[:2] == ("gain", 9)
    change[4] = PARENT[4] - 1.0
    assert ab_pairs.verdict(PARENT, change)[:2] == ("unresolved", 8)


def test_ties_count_for_neither_side():
    change = [p + 9.0 for p in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]
    assert ab_pairs.verdict(PARENT, change)[:2] == ("unresolved", 8)


def test_a_gap_inside_the_parents_own_spread_is_unresolved():
    change = [p + 0.5 for p in PARENT]  # wins every pair, by less than the IQR
    word, won, gap, iqr = ab_pairs.verdict(PARENT, change)
    assert (word, won) == ("unresolved", 10) and gap < iqr


def test_lower_is_better_flips_the_sign_and_a_loss_is_named():
    slower = [p + 9.0 for p in PARENT]
    assert ab_pairs.verdict(PARENT, slower, higher_is_better=False)[0] == "loss"
    word, won, gap, _iqr = ab_pairs.verdict(slower, PARENT, higher_is_better=False)
    assert (word, won) == ("gain", 10) and gap == pytest.approx(9.0)


def test_unpaired_or_single_runs_are_refused():
    with pytest.raises(ValueError):
        ab_pairs.verdict([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ab_pairs.verdict([1.0], [2.0])
