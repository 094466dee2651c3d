"""Perf-regression benchmark suite over the pinned workload subset.

Three guarantees, in dependency order:

1. **Bit identity** — with the PR 2 differential oracle armed
   (``check=True``, the ``REPRO_SIM_CHECK=1`` path), every pinned case
   retires exactly the trace-replay commit stream and reproduces the
   golden stats in ``tests/golden/`` down to the last cycle.  The
   optimized hot path is only allowed to be *faster*, never different.
2. **Telemetry** — the suite measures wall time / cycles-per-second /
   instructions-per-second for every pinned case and writes
   ``BENCH_sim.json`` (to ``REPRO_BENCH_OUT`` if set, else the pytest
   tmp dir) so every CI run leaves a throughput trajectory artifact.
3. **Regression gate** — geomean *normalized* throughput (simulated
   instr/sec over a fixed pure-Python calibration loop) must stay within
   25% of the committed ``BENCH_baseline.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import perf_bench_lib as lib
from repro.verify.differential import check_commit_stream

GOLDEN_DIR = Path(__file__).parents[2] / "tests" / "golden"

#: Exact-match integer stats from the golden fixtures.
EXACT_STATS = (
    "cycles",
    "uops_committed",
    "uops_uop",
    "uops_decode",
    "uops_mrc",
    "cond_mispredictions",
    "mode_switches",
)
#: Float stats, stored rounded to 6 places in the fixtures.
FLOAT_STATS = ("ipc", "uop_hit_rate", "cond_mpki", "switch_pki")


def _stats_from_result(result) -> dict:
    window = result.window
    return {
        "cycles": result.cycles,
        "uops_committed": result.instructions,
        "uops_uop": window.get("uops_uop", 0),
        "uops_decode": window.get("uops_decode", 0),
        "uops_mrc": window.get("uops_mrc", 0),
        "cond_mispredictions": window.get("cond_mispredictions", 0),
        "mode_switches": window.get("mode_switches", 0),
        "ipc": round(result.ipc, 6),
        "uop_hit_rate": round(result.uop_hit_rate, 6),
        "cond_mpki": round(result.cond_mpki, 6),
        "switch_pki": round(result.switch_pki, 6),
    }


@pytest.mark.parametrize("key", sorted(lib.pinned_cases()))
def test_bit_identical_vs_golden(key):
    """Oracle-checked run reproduces the pre-optimization golden stats."""
    workload, config = lib.pinned_cases()[key]
    label = key.split("/")[1]
    fixture_path = GOLDEN_DIR / f"{workload}_{label}.json"
    assert fixture_path.exists(), f"missing golden fixture {fixture_path}"
    fixture = json.loads(fixture_path.read_text())
    assert fixture["n_instructions"] == lib.N_INSTRUCTIONS

    # check=True arms the full invariant sanitizer *and* the commit-stream
    # oracle — the strictest equivalence check the repo has.
    result = check_commit_stream(
        workload, config, lib.N_INSTRUCTIONS, label=label, check=True
    )
    actual = _stats_from_result(result)
    expected = fixture["stats"]
    for stat in EXACT_STATS:
        assert actual[stat] == expected[stat], (
            f"{key}: {stat} drifted {expected[stat]} -> {actual[stat]} "
            f"(optimizations must be bit-identical)"
        )
    for stat in FLOAT_STATS:
        assert actual[stat] == pytest.approx(expected[stat], abs=1e-6), (
            f"{key}: {stat} drifted {expected[stat]} -> {actual[stat]}"
        )


@pytest.fixture(scope="session")
def bench_payload(bench_out_dir):
    """Measure the pinned subset once per session and persist BENCH_sim.json."""
    payload = lib.run_bench()
    path = bench_out_dir / "BENCH_sim.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nBENCH_sim.json -> {path}")
    return payload


def test_bench_json_schema(bench_payload):
    """The emitted BENCH_sim payload is well-formed and covers the subset."""
    lib.validate_bench(bench_payload)
    for key, row in bench_payload["configs"].items():
        assert row["instructions"] == lib.N_INSTRUCTIONS
        assert row["cycles"] > row["instructions"] / 8, key  # sanity: CPI floor


@pytest.mark.parametrize("key", sorted(lib.pinned_cases()))
def test_kernel_bit_identical_vs_golden(key):
    """The unchecked run reproduces the golden fixtures at bench scale.

    ``test_bit_identical_vs_golden`` above arms ``check=True``; this
    counterpart runs exactly what the throughput numbers time (no
    checker) and compares the same fixtures.
    """
    from repro.core.pipeline import simulate
    from repro.workloads import load_workload

    workload, config = lib.pinned_cases()[key]
    label = key.split("/")[1]
    fixture = json.loads((GOLDEN_DIR / f"{workload}_{label}.json").read_text())
    trace = load_workload(workload, lib.N_INSTRUCTIONS).trace
    result = simulate(trace, config, name=workload, check=False)
    actual = _stats_from_result(result)
    expected = fixture["stats"]
    for stat in EXACT_STATS:
        assert actual[stat] == expected[stat], (
            f"{key}: drifted {stat} {expected[stat]} -> {actual[stat]}"
        )
    for stat in FLOAT_STATS:
        assert actual[stat] == pytest.approx(expected[stat], abs=1e-6), (
            f"{key}: drifted {stat} {expected[stat]} -> {actual[stat]}"
        )


def test_no_regression_vs_baseline(bench_payload):
    """Geomean normalized throughput stays within 25% of the baseline."""
    assert lib.BASELINE_PATH.exists(), (
        "missing committed baseline benchmarks/perf/BENCH_baseline.json — "
        "generate with: python benchmarks/perf/perf_bench_lib.py run "
        f"--output {lib.BASELINE_PATH}"
    )
    baseline = json.loads(lib.BASELINE_PATH.read_text())
    ok, report = lib.compare_bench(baseline, bench_payload)
    print(f"\n{report}")
    assert ok, f"perf regression vs committed baseline:\n{report}"
