"""Tests of the shared utilities (repro.utils)."""

from __future__ import annotations

import pytest

from repro.utils import available_workers, format_mean_std, format_table, parallel_map


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


def _square(x: float) -> float:
    return x * x


class TestParallel:
    def test_available_workers_bounds(self):
        assert available_workers(1) == 1
        assert available_workers(10_000) >= 1

    def test_parallel_map_matches_serial(self):
        items = list(range(10))
        assert parallel_map(_square, items, workers=2) == [x * x for x in items]

    def test_parallel_map_single_worker(self):
        assert parallel_map(_square, [3.0], workers=1) == [9.0]

    def test_parallel_map_spawn_start_method(self):
        """Explicit spawn must work — the default on macOS (>=3.8) and Windows."""
        items = list(range(4))
        assert parallel_map(_square, items, workers=2, start_method="spawn") == [x * x for x in items]

    def test_parallel_map_unknown_start_method_raises(self):
        with pytest.raises(ValueError):
            parallel_map(_square, list(range(4)), workers=2, start_method="teleport")

    def test_fork_unavailable_falls_back(self, monkeypatch):
        """With fork missing (spawn-only platform) the preference falls to spawn."""
        from repro.utils import parallel as parallel_module

        monkeypatch.setattr(parallel_module.mp, "get_all_start_methods", lambda: ["spawn"])
        context = parallel_module._pool_context()
        assert context.get_start_method() == "spawn"

    def test_no_start_method_runs_serially(self, monkeypatch):
        """No usable start method at all → serial fallback, same results."""
        from repro.utils import parallel as parallel_module

        monkeypatch.setattr(parallel_module.mp, "get_all_start_methods", lambda: [])
        assert parallel_module._pool_context() is None
        items = list(range(6))
        assert parallel_map(_square, items, workers=3) == [x * x for x in items]
