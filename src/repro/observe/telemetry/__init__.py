"""Service-wide telemetry: metrics registry, job spans, flight recorder.

Gating follows the PR 2 / PR 4 convention exactly (compare
:func:`repro.observe.trace_level`): the environment variable
``REPRO_SIM_TELEMETRY`` is read **at call time, never at import time**
(SIM003), unset / ``""`` / ``"0"`` mean *off*, and when off every
``maybe*()`` accessor returns ``None`` — so an instrumentation site
costs exactly one pointer test::

    tel = telemetry.maybe()
    if tel is not None:
        tel.counter("repro_cache_hits_total", labels=("tier",)).inc(tier="disk")

Telemetry must never influence simulation results: it is invisible to
``SimConfig``/cache keys, and the bit-identity differential test in
``tests/test_telemetry.py`` pins SimResult equality on vs. off.

The process-wide singletons (registry, span sink, flight recorder) are
created lazily on first enabled access and survive for the process;
:func:`reset` swaps in fresh ones (test isolation only).
"""

from __future__ import annotations

import os
import threading

from repro.observe.telemetry.recorder import DEFAULT_RING_EVENTS, FlightRecorder
from repro.observe.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
)
from repro.observe.telemetry.spans import (
    Span,
    SpanContext,
    SpanSink,
    new_span_id,
    new_trace_id,
    span_tree,
    spans_to_perfetto,
)

__all__ = [
    "Counter",
    "CounterFamily",
    "DEFAULT_BUCKETS",
    "DEFAULT_RING_EVENTS",
    "FlightRecorder",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "SpanSink",
    "maybe",
    "maybe_recorder",
    "maybe_spans",
    "new_span_id",
    "new_trace_id",
    "registry",
    "reset",
    "span_tree",
    "spans",
    "spans_to_perfetto",
    "recorder",
    "telemetry_enabled",
    "telemetry_level",
]

_lock = threading.Lock()
_registry: MetricsRegistry | None = None
_spans: SpanSink | None = None
_recorder: FlightRecorder | None = None


def telemetry_level() -> int:
    """Current telemetry level from ``REPRO_SIM_TELEMETRY``.

    Read at call time, never cached at import (SIM003): 0 when the
    variable is unset, empty, or ``"0"``; otherwise 1.
    """
    raw = os.environ.get("REPRO_SIM_TELEMETRY", "")
    if raw in ("", "0"):
        return 0
    return 1


def telemetry_enabled(override: bool | None = None) -> bool:
    """Is the telemetry plane on? ``override`` wins when not None."""
    if override is not None:
        return override
    return telemetry_level() > 0


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (created on first use).

    Unconditional accessor for exposition endpoints and tests; hot
    paths must go through :func:`maybe` so the off state stays a single
    pointer test.
    """
    global _registry
    if _registry is None:
        with _lock:
            if _registry is None:
                _registry = MetricsRegistry()
    return _registry


def spans() -> SpanSink:
    """The process-wide span sink (created on first use)."""
    global _spans
    if _spans is None:
        with _lock:
            if _spans is None:
                _spans = SpanSink()
    return _spans


def recorder() -> FlightRecorder:
    """The process-wide flight recorder (created on first use)."""
    global _recorder
    if _recorder is None:
        with _lock:
            if _recorder is None:
                _recorder = FlightRecorder()
    return _recorder


def maybe(override: bool | None = None) -> MetricsRegistry | None:
    """The registry when telemetry is on, else None (the one-pointer gate)."""
    if not telemetry_enabled(override):
        return None
    return registry()


def maybe_spans(override: bool | None = None) -> SpanSink | None:
    """The span sink when telemetry is on, else None."""
    if not telemetry_enabled(override):
        return None
    return spans()


def maybe_recorder(override: bool | None = None) -> FlightRecorder | None:
    """The flight recorder when telemetry is on, else None."""
    if not telemetry_enabled(override):
        return None
    return recorder()


def reset() -> None:
    """Discard the process singletons (test isolation only)."""
    global _registry, _spans, _recorder
    with _lock:
        _registry = None
        _spans = None
        _recorder = None
