"""Per-trace precomputed backend columns.

The backend's per-dispatch PC hash (execution latency and synthetic
dependency distance, see :meth:`repro.core.backend.Backend.dispatch`) is
a pure function of the instruction's PC and the backend config scalars,
so it is computed for a whole trace in one vectorized numpy pass.

Columns are materialised as plain Python lists (per-element numpy
indexing is slower than list indexing at simulator scale, see
``Trace.list_columns``); every value is a small int, so a list costs one
pointer per instruction.  They are cached per live trace object in a
weak-key map, so repeated simulations of the same trace — the perf
harness, the experiment matrix, served jobs — pay the precompute once.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.configs import BackendConfig, SimConfig
from repro.isa.trace import Trace

#: Cache key: every config scalar the column formulas consume.
ColumnsKey = tuple[int, int, int, int, int, int]


class KernelColumns:
    """Precomputed per-instruction columns for one (trace, backend) pair."""

    __slots__ = ("latency", "distance")

    def __init__(self, latency: list[int], distance: list[int]) -> None:
        #: Execution latency per non-branch instruction (PC-hash formula).
        self.latency = latency
        #: Synthetic dependency distance per non-branch instruction.
        self.distance = distance


def columns_key(backend: BackendConfig) -> ColumnsKey:
    """The backend config scalars the column formulas depend on."""
    return (
        backend.load_hash_mod,
        backend.long_load_every,
        backend.long_load_latency,
        backend.load_latency,
        backend.simple_latency,
        backend.dep_window,
    )


def build_columns(trace: Trace, backend: BackendConfig) -> KernelColumns:
    """One vectorized pass over the trace's PCs (no caching)."""
    # Backend PC hash, vectorized — must match Backend.dispatch bit for bit.
    h = trace.pcs >> 2
    h = h ^ (h >> 7)
    h = h ^ (h >> 13)
    h = h & 0xFFFF
    is_load = (h % backend.load_hash_mod) == 0
    is_long = ((h >> 8) % backend.long_load_every) == 0
    latency = np.where(
        is_load,
        np.where(is_long, backend.long_load_latency, backend.load_latency),
        backend.simple_latency,
    )
    distance = 1 + ((h >> 4) % backend.dep_window)
    return KernelColumns(latency.tolist(), distance.tolist())


_CACHE: weakref.WeakKeyDictionary[Trace, dict[ColumnsKey, KernelColumns]] = (
    weakref.WeakKeyDictionary()
)


def backend_columns(trace: Trace, backend: BackendConfig) -> KernelColumns:
    """Cached :func:`build_columns` (weakly keyed by the trace object)."""
    per_trace = _CACHE.get(trace)
    if per_trace is None:
        per_trace = {}
        _CACHE[trace] = per_trace
    key = columns_key(backend)
    columns = per_trace.get(key)
    built = columns is None
    if columns is None:
        columns = per_trace[key] = build_columns(trace, backend)
    from repro.observe import telemetry

    tel = telemetry.maybe()
    if tel is not None:
        tel.counter(
            "repro_kernel_columns_total",
            "Kernel column lookups: built fresh vs reused from the "
            "per-trace cache.",
            labels=("outcome",),
        ).inc(outcome="built" if built else "reused")
    return columns


def get_columns(trace: Trace, config: SimConfig) -> KernelColumns:
    """The backend columns a simulation of ``trace`` under ``config`` reads."""
    return backend_columns(trace, config.backend)
