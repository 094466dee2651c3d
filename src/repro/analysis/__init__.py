"""Analysis utilities: cached simulation running and table rendering.

* :mod:`repro.analysis.runner` — memoised (in-process + on-disk) execution
  of (workload, config) simulation pairs, so experiments and benchmarks
  sharing baselines never re-simulate them.  Disk entries are checksummed
  and written atomically.
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
"""

from repro.analysis.energy import EnergyWeights, decode_overhead_pct, frontend_energy
from repro.analysis.profile import ProfileReport, ProfileRow, profile_run
from repro.analysis.plot import bar_chart, series_plot, sparkline
from repro.analysis.replication import ReplicationResult, replicate_speedup
from repro.analysis.runner import (
    cache_stats,
    clear_disk_cache,
    clear_memory_cache,
    run_cached,
    run_suite,
    verify_disk_cache,
)
from repro.analysis.parallel import (
    EngineStats,
    ParallelExecutionError,
    ParallelRunner,
    SimJob,
)
from repro.analysis.tables import format_series, format_table

__all__ = [
    "run_cached",
    "run_suite",
    "clear_disk_cache",
    "clear_memory_cache",
    "cache_stats",
    "verify_disk_cache",
    "ParallelRunner",
    "ParallelExecutionError",
    "SimJob",
    "EngineStats",
    "format_table",
    "format_series",
    "frontend_energy",
    "decode_overhead_pct",
    "EnergyWeights",
    "bar_chart",
    "sparkline",
    "series_plot",
    "replicate_speedup",
    "ReplicationResult",
    "profile_run",
    "ProfileReport",
    "ProfileRow",
]
