"""Tests for the analysis helpers."""

import pytest

from repro.analysis import Cdf, format_table, summarize


class TestCdf:
    def test_fraction_at_or_below(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_at_or_below(0.5) == 0.0
        assert cdf.fraction_at_or_below(2.0) == 0.5
        assert cdf.fraction_at_or_below(10.0) == 1.0

    def test_percentile(self):
        cdf = Cdf(list(range(101)))
        assert cdf.percentile(0) == 0
        assert cdf.percentile(50) == 50
        assert cdf.percentile(100) == 100
        with pytest.raises(ValueError):
            cdf.percentile(101)

    def test_empty(self):
        cdf = Cdf([])
        assert cdf.fraction_at_or_below(1.0) == 0.0
        assert len(cdf) == 0
        with pytest.raises(ValueError):
            cdf.percentile(50)


class TestSummarize:
    def test_basic(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.median == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert "long-name" in lines[3]
