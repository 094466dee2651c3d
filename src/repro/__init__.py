"""repro — Alternate Path µ-op Cache Prefetching (ISCA 2024) in Python.

A from-scratch reproduction of Singh, Perais, Jimborean & Ros's UCP:
a cycle-level decoupled-frontend simulator with a µ-op cache, the full
TAGE-SC-L/ITTAGE/BTB/RAS prediction stack, state-of-the-art L1I prefetcher
baselines, a synthetic datacenter workload suite, and the UCP engine with
every variant the paper evaluates.

Entry points
------------

>>> from repro import SimConfig, simulate, load_workload
>>> result = simulate(load_workload("srv_04", 20_000).trace, SimConfig())
>>> round(result.uop_hit_rate, 1)  # doctest: +SKIP
34.9

See ``examples/`` for walkthroughs, ``repro.experiments`` for the paper's
tables/figures, and ``python -m repro --help`` for the CLI.

The public names resolve on first access (PEP 562), so importing a
subpackage — ``repro.cli`` for ``--help``, say — does not import the
simulator.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "SimConfig": "repro.core.configs",
    "UCPConfig": "repro.core.configs",
    "SimResult": "repro.core.pipeline",
    "Simulator": "repro.core.pipeline",
    "simulate": "repro.core.pipeline",
    "SUITE": "repro.workloads.suite",
    "load_workload": "repro.workloads.suite",
    "load_suite": "repro.workloads.suite",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
