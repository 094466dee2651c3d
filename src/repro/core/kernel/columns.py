"""Per-trace precomputed backend columns.

The backend's per-dispatch PC hash (execution latency and synthetic
dependency distance, read by
:meth:`repro.core.backend.Backend.dispatch_ready`) is a pure function of
the instruction's PC and the backend config scalars, so it is computed
for a whole trace in one vectorized numpy pass.

Columns are materialised as flat buffers (per-element numpy indexing
is slower than list or buffer indexing at simulator scale, see
``Trace.list_columns``): :func:`~repro.isa.trace.narrow_column` stores
each in the narrowest one — latency as ``array('H')`` (a long load takes
300 cycles), distance as ``bytes`` — 3 bytes per instruction instead of
two list pointers.  They are cached per live trace object in a weak-key
map, so repeated simulations of the same trace — the perf harness, the
experiment matrix, served jobs — pay the precompute once.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence

import numpy as np

from repro.core.configs import BackendConfig, SimConfig
from repro.isa.trace import Trace, narrow_column

#: Cache key: every config scalar the column formulas consume.
ColumnsKey = tuple[int, int, int, int, int, int]


class KernelColumns:
    """Precomputed per-instruction columns for one (trace, backend) pair."""

    __slots__ = ("latency", "distance")

    def __init__(self, latency: Sequence[int], distance: Sequence[int]) -> None:
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
    # Backend PC hash, vectorized (Backend.dispatch_ready reads the
    # result).  In-place steps on a 16-bit hash, one column narrowed at a
    # time, keep the build's transient near two int64 columns.
    wide = trace.pcs >> 2
    wide ^= wide >> 7
    wide ^= wide >> 13
    h = (wide & 0xFFFF).astype(np.int32)
    del wide
    is_load = h % backend.load_hash_mod == 0
    latency = np.where(is_load, backend.load_latency, backend.simple_latency)
    latency[is_load & ((h >> 8) % backend.long_load_every == 0)] = backend.long_load_latency
    compact_latency = narrow_column(latency)
    del latency, is_load
    h >>= 4
    h %= backend.dep_window
    h += 1  # the dependency distance
    return KernelColumns(compact_latency, narrow_column(h))


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
