"""Tests for the performance layer: profiler, idle-skip, BENCH schema.

Covers the three legs of the perf tooling added with the hot-path
optimization work:

* :mod:`repro.analysis.profile` — the component rows must partition the
  run's wall time (sum + residual == total) and profiling must not
  change simulation results;
* event-driven idle-cycle skipping — on a hand-built stall-heavy
  scenario the clock must actually jump, and the skipped run must be
  bit-identical to the unskipped one;
* the ``benchmarks/perf`` BENCH_sim payload — schema validation and the
  regression-gate comparison logic.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.profile import profile_run
from repro.core.configs import SimConfig, UCPConfig
from repro.core.pipeline import Simulator, simulate
from repro.isa.instruction import BranchClass
from repro.isa.trace import Trace
from repro.workloads import load_workload

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_bench_lib():
    """Import benchmarks/perf/perf_bench_lib.py by path (not a package)."""
    path = REPO_ROOT / "benchmarks" / "perf" / "perf_bench_lib.py"
    spec = importlib.util.spec_from_file_location("perf_bench_lib", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Profiler accounting
# ----------------------------------------------------------------------


class TestProfiler:
    def test_components_partition_wall_time(self):
        trace = load_workload("int_02", 2_500).trace
        report = profile_run(trace, SimConfig())
        assert report.total_seconds > 0
        for row in report.components.values():
            assert row.seconds >= 0.0
            assert row.calls > 0
        # The rows are timed at their single call sites in Simulator.run,
        # so they can never exceed the run's wall time...
        assert report.accounted_seconds <= report.total_seconds
        # ...and with the clamped residual they sum to it exactly.
        assert report.accounted_seconds + report.other_seconds == pytest.approx(
            report.total_seconds
        )

    def test_component_rows_match_configuration(self):
        trace = load_workload("int_02", 2_000).trace
        plain = profile_run(trace, SimConfig())
        assert {"backend_commit", "backend_dispatch", "fetch", "bpu"} <= set(
            plain.components
        )
        assert "ucp_walker" not in plain.components  # no UCP engine
        assert "checker" not in plain.components  # sanitizer off

        ucp = profile_run(
            trace, SimConfig(ucp=UCPConfig(enabled=True)), check=True
        )
        assert "ucp_walker" in ucp.components
        assert "checker" in ucp.components
        assert ucp.components["ucp_walker"].calls > 0

    def test_profiling_does_not_change_results(self):
        trace = load_workload("fp_01", 2_500).trace
        config = SimConfig()
        plain = simulate(trace, config)
        profiled = profile_run(trace, config)
        assert profiled.result.cycles == plain.cycles
        assert profiled.result.window == plain.window

    def test_report_serialization_round_trips(self):
        trace = load_workload("fp_01", 1_500).trace
        report = profile_run(trace, SimConfig())
        payload = json.loads(report.to_json())
        assert payload["instructions"] == 1_500
        assert payload["cycles"] == report.result.cycles
        assert set(payload["components"]) == set(report.components)
        assert payload["instructions_per_second"] > 0
        rendered = report.render()
        assert "wall time" in rendered
        for key in report.components:
            assert key in rendered


# ----------------------------------------------------------------------
# Idle-cycle skipping on a hand-built stall scenario
# ----------------------------------------------------------------------


def _straight_line_trace(n: int, start_pc: int = 0x40_0000) -> Trace:
    """``n`` sequential non-branch instructions over never-seen code.

    Every fetch block runs cold through the L1I, so the frontend spends
    most cycles waiting on fixed-latency fills — the canonical scenario
    the idle-skip analysis is built for.
    """
    pcs = start_pc + 4 * np.arange(n, dtype=np.int64)
    classes = np.full(n, int(BranchClass.NOT_BRANCH), dtype=np.uint8)
    takens = np.zeros(n, dtype=bool)
    targets = np.zeros(n, dtype=np.int64)
    return Trace("straight-line", pcs, classes, takens, targets)


class TestIdleSkip:
    def test_skips_on_stall_heavy_trace(self):
        trace = _straight_line_trace(1_200)
        sim = Simulator(trace, SimConfig(), idle_skip=True)
        sim.run()
        assert sim.skip_events > 0
        assert sim.skipped_cycles > 0

    def test_skipped_run_is_bit_identical(self):
        trace = _straight_line_trace(1_200)
        config = SimConfig()
        skipping = Simulator(trace, config, idle_skip=True)
        with_skip = skipping.run()
        plodding = Simulator(trace, config, idle_skip=False)
        without_skip = plodding.run()
        assert plodding.skip_events == 0
        assert with_skip.cycles == without_skip.cycles
        assert with_skip.window == without_skip.window
        # The skipped run executed strictly fewer loop iterations.
        assert skipping.skipped_cycles > 0

    def test_skip_telemetry_stays_out_of_stats(self):
        """Jump counters are Simulator attributes, not windowed stats —
        results must not mention skipping in any reported counter."""
        trace = _straight_line_trace(800)
        sim = Simulator(trace, SimConfig(), idle_skip=True)
        result = sim.run()
        assert sim.skip_events > 0
        assert not any("skip" in key for key in result.window)


# ----------------------------------------------------------------------
# BENCH_sim schema and the regression gate
# ----------------------------------------------------------------------


class TestBenchSchema:
    @pytest.fixture(scope="class")
    def lib(self):
        return _load_bench_lib()

    @pytest.fixture(scope="class")
    def payload(self, lib):
        return lib.run_bench(repeats=1)

    def test_run_bench_produces_valid_payload(self, lib, payload):
        lib.validate_bench(payload)  # raises on any schema violation
        assert payload["n_instructions"] == lib.N_INSTRUCTIONS
        assert set(payload["configs"]) == set(lib.pinned_cases())
        for row in payload["configs"].values():
            assert row["instr_per_sec"] > 0
            assert row["normalized_instr_per_sec"] == pytest.approx(
                row["instr_per_sec"] / payload["calibration_ops_per_sec"]
            )

    def test_validate_rejects_malformed_payloads(self, lib, payload):
        missing = copy.deepcopy(payload)
        del missing["calibration_ops_per_sec"]
        with pytest.raises(ValueError, match="calibration_ops_per_sec"):
            lib.validate_bench(missing)

        wrong_schema = copy.deepcopy(payload)
        wrong_schema["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            lib.validate_bench(wrong_schema)

        short = copy.deepcopy(payload)
        short["configs"].popitem()
        with pytest.raises(ValueError, match="pinned subset"):
            lib.validate_bench(short)

        negative = copy.deepcopy(payload)
        key = next(iter(negative["configs"]))
        negative["configs"][key]["wall_seconds"] = 0.0
        with pytest.raises(ValueError, match="positive"):
            lib.validate_bench(negative)

    def test_compare_bench_gates_on_geomean(self, lib, payload):
        ok, report = lib.compare_bench(payload, payload)
        assert ok
        assert "geomean" in report

        slow = copy.deepcopy(payload)
        for row in slow["configs"].values():
            row["normalized_instr_per_sec"] *= 0.5
        slow["geomean_normalized"] *= 0.5
        ok, report = lib.compare_bench(payload, slow, tolerance=0.25)
        assert not ok
        assert "REGRESSION" in report

        # A regression smaller than the tolerance passes.
        mild = copy.deepcopy(payload)
        for row in mild["configs"].values():
            row["normalized_instr_per_sec"] *= 0.9
        mild["geomean_normalized"] *= 0.9
        ok, _ = lib.compare_bench(payload, mild, tolerance=0.25)
        assert ok

    def test_committed_baseline_is_valid(self, lib):
        baseline = json.loads(lib.BASELINE_PATH.read_text())
        lib.validate_bench(baseline)
