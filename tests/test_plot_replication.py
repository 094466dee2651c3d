"""Tests for terminal plotting and multi-seed replication."""

import pytest

from repro.analysis.plot import bar_chart, series_plot, sparkline
from repro.analysis.replication import ReplicationResult, replicate_speedup
from repro.core import SimConfig


class TestBarChart:
    def test_positive_bars(self):
        text = bar_chart("T", ["a", "bb"], [1.0, 2.0], width=10, unit="%")
        assert "T" in text
        assert "2.00%" in text
        lines = text.splitlines()
        assert lines[3].count("#") > lines[2].count("#")

    def test_negative_bars_extend_left(self):
        text = bar_chart("T", ["neg", "pos"], [-1.0, 1.0], width=10)
        neg_line = next(line for line in text.splitlines() if "neg" in line)
        pos_line = next(line for line in text.splitlines() if "pos" in line)
        assert "#|" in neg_line
        assert "|#" in pos_line

    def test_empty(self):
        assert "(no data)" in bar_chart("T", [], [])

    def test_all_zero(self):
        text = bar_chart("T", ["x"], [0.0])
        assert "0.00" in text

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bar_chart("T", ["a"], [1.0, 2.0])


class TestSparkline:
    def test_monotone_series(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[0] < line[-1]  # block characters are ordered

    def test_flat_series(self):
        assert sparkline([2, 2, 2]) == "▄▄▄"

    def test_empty(self):
        assert sparkline([]) == ""


class TestSeriesPlot:
    def test_renders_markers_and_legend(self):
        text = series_plot(
            "P", ["a", "b", "c"], {"one": [1, 2, 3], "two": [3, 2, 1]}, height=5
        )
        assert "legend: * one   o two" in text
        assert "*" in text and "o" in text

    def test_empty(self):
        assert "(no data)" in series_plot("P", [], {})


class TestReplication:
    def test_statistics(self):
        result = ReplicationResult("w", [1, 2, 3], [1.0, 2.0, 3.0])
        assert result.mean == pytest.approx(2.0)
        low, high = result.confidence_interval()
        assert low < 2.0 < high

    def test_single_sample_degenerate(self):
        result = ReplicationResult("w", [1], [5.0])
        assert result.confidence_interval() == (5.0, 5.0)
        assert result.std == 0.0

    def test_significance(self):
        tight = ReplicationResult("w", [1, 2, 3, 4], [1.0, 1.1, 0.9, 1.0])
        noisy = ReplicationResult("w", [1, 2, 3, 4], [-5.0, 5.0, -4.0, 4.0])
        assert tight.significant()
        assert not noisy.significant()

    def test_replicate_speedup_runs(self):
        result = replicate_speedup(
            "fp_01",
            SimConfig(),
            SimConfig().without_uop_cache(),
            n_seeds=2,
            n_instructions=3_000,
        )
        assert len(result.speedups_pct) == 2
        assert result.seeds[0] != result.seeds[1]
        repr(result)  # formatting path

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            replicate_speedup("nope", SimConfig(), SimConfig(), n_seeds=1)

    def test_scipy_stays_out_of_cold_imports(self):
        # scipy backs only confidence_interval; the CLI, the experiment
        # drivers and the server must not pay for it at import.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys, repro.cli, repro.experiments, repro.serve.server; "
            "assert 'scipy' not in sys.modules, 'scipy imported'"
        )
        subprocess.run([sys.executable, "-c", probe], env=env, check=True)
