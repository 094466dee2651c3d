"""Analysis utilities: cached simulation running and table rendering.

* :mod:`repro.analysis.result_cache` — the result cache: keys,
  checksummed atomically written entries, the memory and disk tiers,
  byte/entry-bounded LRU eviction and the cache counters, so experiments
  and benchmarks sharing baselines never re-simulate them.  It imports
  neither the simulator nor :mod:`repro.serve`.
* :mod:`repro.analysis.runner` — the job body that simulates a cache
  miss and stores it (``run_cached``, ``run_suite``).
* :mod:`repro.analysis.scheduler` — the experiment engine's core: worker
  slots fed by one priority queue, with single-flight, cancellation and
  one failure policy, shared by CLI batches and the experiment server.
* :mod:`repro.analysis.parallel` — its synchronous façade for CLI
  batches (``ParallelRunner``, ``pool_scope``); results are
  bit-identical to the serial path.
* :mod:`repro.analysis.tables` — plain-text rendering of the tables and
  figure series the experiment drivers produce.
* :mod:`repro.analysis.plot` — terminal bar charts / sparklines / series
  plots for figure-style output.
* :mod:`repro.analysis.energy` — relative frontend energy accounting
  (the µ-op cache's power story, and UCP's decode overhead).
* :mod:`repro.analysis.profile` — component-level wall-time profiling of
  one simulation (``repro profile`` on the command line): per-component
  seconds summing exactly to the run's wall time, plus simulation
  throughput (instructions and cycles per second).
* :mod:`repro.analysis.replication` — multi-seed replication with
  Student-t confidence intervals.

The public names below resolve on first access (PEP 562): importing one
submodule — ``repro.analysis.runner`` in every worker, say — does not
import the profiler, the plots, the energy model or replication.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the module that defines it.
_EXPORTS = {
    "run_cached": "repro.analysis.runner",
    "run_suite": "repro.analysis.runner",
    "clear_disk_cache": "repro.analysis.result_cache",
    "clear_memory_cache": "repro.analysis.result_cache",
    "cache_stats": "repro.analysis.result_cache",
    "verify_disk_cache": "repro.analysis.result_cache",
    "ParallelRunner": "repro.analysis.parallel",
    "ParallelExecutionError": "repro.analysis.parallel",
    "SimJob": "repro.analysis.scheduler",
    "EngineStats": "repro.analysis.parallel",
    "format_table": "repro.analysis.tables",
    "format_series": "repro.analysis.tables",
    "frontend_energy": "repro.analysis.energy",
    "decode_overhead_pct": "repro.analysis.energy",
    "EnergyWeights": "repro.analysis.energy",
    "bar_chart": "repro.analysis.plot",
    "sparkline": "repro.analysis.plot",
    "series_plot": "repro.analysis.plot",
    "replicate_speedup": "repro.analysis.replication",
    "ReplicationResult": "repro.analysis.replication",
    "profile_run": "repro.analysis.profile",
    "ProfileReport": "repro.analysis.profile",
    "ProfileRow": "repro.analysis.profile",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
