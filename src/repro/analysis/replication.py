"""Multi-seed replication and confidence intervals.

The suite's workloads are single seeds of stochastic generators; any
speedup measured on one seed carries generator noise.  This module
replicates a workload across seeds and reports mean speedup with a
Student-t confidence interval, so experiments can state "UCP gains
X% ± Y" instead of a point estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from repro.core.configs import SimConfig
from repro.core.pipeline import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.suite import SUITE


@dataclass
class ReplicationResult:
    workload: str
    seeds: list[int]
    speedups_pct: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.speedups_pct))

    @property
    def std(self) -> float:
        return float(np.std(self.speedups_pct, ddof=1)) if len(self.speedups_pct) > 1 else 0.0

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Student-t interval for the mean speedup (needs scipy)."""
        from scipy import stats as scipy_stats

        n = len(self.speedups_pct)
        if n < 2:
            return (self.mean, self.mean)
        sem = self.std / np.sqrt(n)
        t = scipy_stats.t.ppf((1 + level) / 2, df=n - 1)
        return (self.mean - t * sem, self.mean + t * sem)

    def significant(self, level: float = 0.95) -> bool:
        """True when the CI excludes zero (the speedup is not noise)."""
        low, high = self.confidence_interval(level)
        return low > 0 or high < 0

    def __repr__(self) -> str:
        low, high = self.confidence_interval()
        return (
            f"ReplicationResult({self.workload!r}, n={len(self.seeds)}, "
            f"mean={self.mean:.2f}% CI95=[{low:.2f}, {high:.2f}])"
        )


def replicate_speedup(
    workload: str,
    config: SimConfig,
    reference: SimConfig,
    n_seeds: int = 5,
    n_instructions: int = 15_000,
) -> ReplicationResult:
    """Measure config-vs-reference speedup across generator seeds.

    Each replicate regenerates the workload's program *and* walk with a
    shifted seed, so both program structure and dynamic behaviour vary.
    """
    if workload not in SUITE:
        raise KeyError(f"unknown workload {workload!r}")
    base_config = SUITE[workload]
    seeds = [base_config.seed + 1000 * k for k in range(n_seeds)]
    speedups = []
    for seed in seeds:
        wl = dc_replace(base_config, seed=seed, n_instructions=n_instructions)
        trace = generate_trace(wl)
        fast = simulate(trace, config, name=f"{workload}@{seed}")
        slow = simulate(trace, reference, name=f"{workload}@{seed}")
        speedups.append(100.0 * (fast.ipc / slow.ipc - 1.0))
    return ReplicationResult(workload, seeds, speedups)
