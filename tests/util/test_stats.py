"""Tests for the pfold histogram and the paper's speedup formula."""

import pytest

from repro.util.stats import Histogram, speedup_paper


class TestHistogram:
    def test_add_and_total(self):
        h = Histogram()
        h.add(-3)
        h.add(-3)
        h.add(0, count=5)
        assert h.total() == 7
        assert h.counts[-3] == 2

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.add(1, 2)
        b.add(1, 3)
        b.add(2, 1)
        a.merge(b)
        assert a.counts == {1: 5, 2: 1}

    def test_items_sorted(self):
        h = Histogram()
        h.add(3)
        h.add(-1)
        h.add(0)
        assert [k for k, _ in h.items()] == [-1, 0, 3]

    def test_equality_ignores_zero_bins(self):
        a, b = Histogram(), Histogram()
        a.add(1)
        a.add(2, 0)
        b.add(1)
        assert a == b

    def test_inequality(self):
        a, b = Histogram(), Histogram()
        a.add(1)
        b.add(2)
        assert a != b

    def test_eq_other_type(self):
        assert Histogram() != 5


class TestSpeedupPaper:
    def test_equal_times(self):
        # P participants all taking T1/P: perfect speedup.
        assert speedup_paper(100.0, [25.0] * 4) == pytest.approx(4.0)

    def test_formula_is_t1_over_average(self):
        times = [10.0, 20.0]
        assert speedup_paper(30.0, times) == pytest.approx(30.0 / 15.0)

    def test_single_participant(self):
        assert speedup_paper(50.0, [50.0]) == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            speedup_paper(1.0, [])

    def test_zero_times_raise(self):
        with pytest.raises(ValueError):
            speedup_paper(1.0, [0.0, 0.0])

