"""Registry mapping experiment names to their driver modules.

:func:`run_experiment` is the canonical entry point used by the CLI and
scripting callers; it routes every driver's simulations through the
parallel execution engine (see :mod:`repro.analysis.parallel`) simply by
virtue of the drivers calling :func:`repro.experiments.common.run_all`,
and holds one worker pool for all of the driver's batches.
"""

from __future__ import annotations

import importlib
from collections import UserDict
from typing import Any


class _Drivers(UserDict):
    """Driver modules by experiment id; each is imported on first lookup,
    so running one figure imports one driver."""

    def __getitem__(self, name: str) -> Any:
        driver = self.data[name]
        if isinstance(driver, str):
            driver = self.data[name] = importlib.import_module(
                f"repro.experiments.{driver}"
            )
        return driver


#: Every paper table/figure driver, keyed by the id used in DESIGN.md.
EXPERIMENTS = _Drivers(
    fig02="fig02_uop_impact",
    fig03="fig03_hitrate_switches",
    fig04="fig04_size_sweep",
    fig05="fig05_prefetchers",
    fig06="fig06_conf_missrate",
    fig07="fig07_contributions",
    fig09="fig09_h2p",
    fig10="fig10_ucp_vs_base",
    fig11="fig11_speedup_mpki",
    fig12="fig12_variants",
    fig13="fig13_ucp_hitrate",
    fig14="fig14_prefetch_accuracy",
    fig15="fig15_threshold",
    fig16="fig16_pareto",
    taba="taba_variants",
)


def run_experiment(name: str, scale=None, *, jobs: int | None = None):
    """Run one registered experiment and return ``(result, rendered_text)``.

    ``scale`` defaults to QUICK.  Every engine batch inside the driver
    runs on one scheduler's worker slots
    (:func:`repro.analysis.parallel.pool_scope`), which are shut down
    before this returns; ``jobs`` (when given) is that scope's worker
    count.
    """
    from repro.analysis.parallel import pool_scope
    from repro.experiments.common import QUICK

    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    module = EXPERIMENTS[name]
    with pool_scope(jobs):
        result = module.run(QUICK if scale is None else scale)
    return result, module.render(result)
