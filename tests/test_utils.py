"""Tests of the shared utilities (repro.utils)."""

from __future__ import annotations

from repro.utils import format_mean_std, format_table


class TestTables:
    def test_format_mean_std(self):
        assert format_mean_std(22.0, 1.0, digits=0) == "22±1"
        assert format_mean_std(3.14159, 0.2, digits=2) == "3.14±0.20"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text

