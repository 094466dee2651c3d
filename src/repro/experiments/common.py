"""Shared experiment plumbing: scales, configurations, metrics.

The paper evaluates on the subset of CVP-1 traces showing at least a 5%
IPC improvement under an ideal µ-op cache (Section V); ``select_workloads``
applies the same criterion to our suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.parallel import ParallelRunner, SimJob
from repro.analysis.runner import run_cached, run_suite
from repro.common.stats import geomean
from repro.core.configs import SimConfig, UCPConfig
from repro.core.pipeline import SimResult
from repro.workloads.suite import SUITE


@dataclass(frozen=True)
class Scale:
    """How big an experiment run is: which workloads, how many instructions."""

    name: str
    workloads: tuple[str, ...]
    n_instructions: int


#: Benchmark-friendly scale: representative slice of every category.
QUICK = Scale(
    "quick",
    ("srv_02", "srv_04", "int_02", "int_03", "crypto_02", "fp_01"),
    20_000,
)

#: The paper-reproduction workload set at full trace length (the original
#: 16-trace suite; the extended web/db/mix workloads are available for
#: custom experiments via an explicit Scale).
FULL = Scale(
    "full",
    (
        "srv_01", "srv_02", "srv_03", "srv_04", "srv_05", "srv_06", "srv_07",
        "int_01", "int_02", "int_03", "int_04",
        "crypto_01", "crypto_02", "crypto_03",
        "fp_01", "fp_02",
    ),
    40_000,
)

#: Everything, including the extended categories.
EXTENDED = Scale("extended", tuple(SUITE), 40_000)


def baseline_config() -> SimConfig:
    """The paper's Table II baseline."""
    return SimConfig()


def no_uop_config() -> SimConfig:
    return baseline_config().without_uop_cache()


def ideal_config() -> SimConfig:
    return replace(baseline_config(), ideal_uop_cache=True)


def ucp_config(**overrides) -> SimConfig:
    """Baseline plus UCP (default: full UCP with Alt-Ind and UCP-Conf)."""
    return replace(baseline_config(), ucp=UCPConfig(enabled=True, **overrides))


def run(workload: str, config: SimConfig, scale: Scale) -> SimResult:
    return run_cached(workload, config, scale.n_instructions)


def run_all(config: SimConfig, scale: Scale, workloads=None) -> dict[str, SimResult]:
    """Run every workload of ``scale`` under ``config``.

    Routed through the parallel execution engine, with results identical
    to the serial path.
    """
    names = scale.workloads if workloads is None else workloads
    return run_suite(list(names), config, scale.n_instructions)


def run_matrix(
    configs: dict[str, SimConfig], scale: Scale, workloads=None
) -> dict[str, dict[str, SimResult]]:
    """Run a whole ``{label: config}`` × workload grid in one engine batch.

    Submitting the full cross product at once lets the engine overlap
    simulations across configurations, not just across workloads.
    """
    names = list(scale.workloads if workloads is None else workloads)
    jobs = {
        (label, name): SimJob(name, config, scale.n_instructions)
        for label, config in configs.items()
        for name in names
    }
    results = ParallelRunner().run(list(jobs.values()))
    return {
        label: {name: results[jobs[label, name].key] for name in names}
        for label in configs
    }


def select_workloads(scale: Scale, min_ideal_gain: float = 5.0) -> tuple[str, ...]:
    """Paper Section V: keep traces with >= 5% ideal-µ-op-cache headroom."""
    grid = run_matrix(
        {"base": baseline_config(), "ideal": ideal_config()}, scale
    )
    base, ideal = grid["base"], grid["ideal"]
    selected = tuple(
        name
        for name in scale.workloads
        if speedup_pct(ideal[name], base[name]) >= min_ideal_gain
    )
    # Degenerate safety: never select an empty set.
    return selected if selected else scale.workloads


def speedup_pct(fast: SimResult, slow: SimResult) -> float:
    """IPC improvement of ``fast`` over ``slow`` in percent."""
    if slow.ipc == 0:
        return 0.0
    return 100.0 * (fast.ipc / slow.ipc - 1.0)


def geomean_speedup_pct(fast: dict[str, SimResult], slow: dict[str, SimResult]) -> float:
    """Geometric-mean speedup across matching workloads, in percent."""
    ratios = [fast[name].ipc / slow[name].ipc for name in fast if name in slow]
    if not ratios:
        return 0.0
    return 100.0 * (geomean(ratios) - 1.0)
