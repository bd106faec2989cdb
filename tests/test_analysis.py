"""Tests for repro.analysis."""

import pytest

from repro.analysis import (
    BinnedSeries,
    TextTable,
    bin_means,
    bin_shares,
    mean,
    trend_slope,
)


class TestBinMeans:
    def test_simple_binning(self):
        series = bin_means([1.0, 3.0, 5.0, 7.0], bin_size=2)
        assert series.values == [2.0, 6.0]
        assert series.counts == [2, 2]

    def test_none_values_skipped(self):
        series = bin_means([1.0, None, None, 7.0], bin_size=2)
        assert series.values == [1.0, 7.0]
        assert series.counts == [1, 1]

    def test_all_none_bin_is_zero(self):
        series = bin_means([None, None, 4.0, 6.0], bin_size=2)
        assert series.values == [0.0, 5.0]
        assert series.counts == [0, 2]

    def test_ragged_tail(self):
        series = bin_means([1.0, 1.0, 5.0], bin_size=2)
        assert series.values == [1.0, 5.0]
        assert series.counts == [2, 1]

    def test_invalid_bin_size(self):
        with pytest.raises(ValueError):
            bin_means([1.0], bin_size=0)

    def test_bin_shares(self):
        series = bin_shares([True, False, None, True], bin_size=2)
        assert series.values == [0.5, 1.0]
        assert series.counts == [2, 1]


class TestBinnedSeries:
    @pytest.fixture()
    def series(self):
        return BinnedSeries(
            label="x", bin_size=10, values=[1.0, 2.0, 3.0, 4.0],
            counts=[10, 10, 10, 10],
        )

    def test_bin_range(self, series):
        assert series.bin_range(0) == (1, 10)
        assert series.bin_range(3) == (31, 40)

    def test_head_tail_mean(self, series):
        assert series.head_mean(2) == 1.5
        assert series.tail_mean(2) == 3.5
        assert series.head_mean(100) == 2.5

    def test_weighted_mean(self):
        series = BinnedSeries("x", 10, [1.0, 3.0], counts=[30, 10])
        assert series.mean() == pytest.approx(1.5)

    def test_unweighted_mean_without_counts(self):
        series = BinnedSeries("x", 10, [1.0, 3.0])
        assert series.mean() == 2.0
        assert BinnedSeries("x", 10, []).mean() == 0.0

    def test_rows(self, series):
        rows = series.rows()
        assert rows[0] == (1, 10, 1.0)
        assert len(rows) == 4

    def test_len_and_repr(self, series):
        assert len(series) == 4
        assert "4 bins" in repr(series)


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0
        assert mean([]) == 0.0

    def test_trend_slope(self):
        assert trend_slope([1.0, 2.0, 3.0]) == pytest.approx(1.0)
        assert trend_slope([3.0, 2.0, 1.0]) == pytest.approx(-1.0)
        assert trend_slope([2.0, 2.0, 2.0]) == pytest.approx(0.0)
        assert trend_slope([1.0]) == 0.0


class TestTextTable:
    def test_render(self):
        table = TextTable(["A", "Bee"])
        table.add_row(1, 2.5)
        table.add_row("long-cell", "x")
        text = table.render()
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.5000" in text
        assert "long-cell" in text
        assert len(table) == 2

    def test_cell_count_enforced(self):
        table = TextTable(["A"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)
