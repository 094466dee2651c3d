"""Per-trace precomputation the simulator's hot components read.

* :mod:`~repro.core.kernel.stream` — the recorded TAGE-SC-L/ITTAGE
  branch stream (one pass per trace × predictor config), the BPU's only
  predictor input;
* :mod:`~repro.core.kernel.columns` — the backend's PC-hash latency and
  dependency-distance columns (one numpy pass per trace × backend
  config).

Both are pure functions of the trace and config, cached per live trace
object, and bit-identical to computing the same values inline; the
pinned digests in ``tests/golden/sim_digests.json`` hold the simulator
to that.
"""

from __future__ import annotations

from repro.core.kernel.columns import (
    KernelColumns,
    backend_columns,
    build_columns,
    columns_key,
    get_columns,
)
from repro.core.kernel.stream import PredictionStream, get_stream, record_stream, stream_key

__all__ = [
    "KernelColumns",
    "PredictionStream",
    "backend_columns",
    "build_columns",
    "columns_key",
    "get_columns",
    "get_stream",
    "record_stream",
    "stream_key",
]
