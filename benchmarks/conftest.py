"""Shared helpers for the benchmark harness.

Each benchmark regenerates one paper table/figure at the QUICK scale,
prints the rendered table, saves it under ``benchmarks/out/``, and asserts
the qualitative shape the paper reports.  Simulation results are shared
across benchmarks through the disk cache in ``.simcache/`` (relocatable
via ``REPRO_SIM_CACHE_DIR``), and every figure's simulations route
through the parallel execution engine — set ``REPRO_SIM_JOBS`` to fan
uncached runs out across worker processes (results are bit-identical to
the serial path; see ``docs/EXPERIMENT_ENGINE.md``).

Run with::

    pytest benchmarks/ --benchmark-only
    REPRO_SIM_JOBS=8 pytest benchmarks/ --benchmark-only   # parallel sims

For the full-scale reproduction (all 16 workloads, 40K instructions), set
``REPRO_BENCH_SCALE=full`` — expect a long runtime on first (uncached)
execution; ``REPRO_SIM_JOBS`` cuts that roughly by the core count.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.common import FULL, QUICK

@pytest.fixture(scope="session")
def scale():
    return FULL if os.environ.get("REPRO_BENCH_SCALE") == "full" else QUICK


@pytest.fixture(scope="session")
def bench_out_dir(tmp_path_factory) -> Path:
    """Where rendered tables and BENCH artifacts land.

    ``REPRO_BENCH_OUT`` names a directory to keep (CI sets it and uploads
    the artifacts); unset, everything goes to a pytest-managed temp dir so
    a plain ``pytest benchmarks/`` never dirties the working tree.
    """
    override = os.environ.get("REPRO_BENCH_OUT")
    out_dir = Path(override) if override else tmp_path_factory.mktemp("bench-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


@pytest.fixture()
def report(bench_out_dir):
    """Print a rendered experiment table and persist it under the out dir."""

    def _report(name: str, text: str) -> None:
        (bench_out_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _report


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
