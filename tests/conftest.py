"""Shared fixtures for the test suite.

Centralises the helpers that had grown up independently in
``test_champsim_io.py`` / ``test_runner_cache.py`` / ``test_textio.py``:
tiny hand-built traces, a redirected result-cache directory, and a
redirected ingested-trace store.
"""

from __future__ import annotations

import pytest

from repro.isa import BranchClass, Trace, TraceEntry


def build_sample_trace() -> Trace:
    """Six-entry call/return/conditional trace (the classic textio sample)."""
    return Trace.from_entries(
        "sample",
        [
            TraceEntry(0x1000),
            TraceEntry(0x1004, BranchClass.CALL_DIRECT, True, 0x2000),
            TraceEntry(0x2000),
            TraceEntry(0x2004, BranchClass.RETURN, True, 0x1008),
            TraceEntry(0x1008, BranchClass.COND_DIRECT, False, 0),
            TraceEntry(0x100C),
        ],
    )


def build_branchy_trace() -> Trace:
    """Twelve-entry canonical trace exercising every :class:`BranchClass`."""
    return Trace.from_entries(
        "branchy",
        [
            TraceEntry(0x1000),
            TraceEntry(0x1004, BranchClass.COND_DIRECT, True, 0x1010),
            TraceEntry(0x1010, BranchClass.CALL_DIRECT, True, 0x2000),
            TraceEntry(0x2000),
            TraceEntry(0x2004, BranchClass.RETURN, True, 0x1014),
            TraceEntry(0x1014, BranchClass.COND_DIRECT, False, 0),
            TraceEntry(0x1018, BranchClass.UNCOND_DIRECT, True, 0x1020),
            TraceEntry(0x1020, BranchClass.CALL_INDIRECT, True, 0x3000),
            TraceEntry(0x3000, BranchClass.RETURN, True, 0x1024),
            TraceEntry(0x1024, BranchClass.INDIRECT, True, 0x1030),
            TraceEntry(0x1030),
            TraceEntry(0x1034),
        ],
    )


@pytest.fixture()
def sample_trace() -> Trace:
    return build_sample_trace()


@pytest.fixture()
def branchy_trace() -> Trace:
    trace = build_branchy_trace()
    trace.validate()
    return trace


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    """Redirect the result disk cache to a fresh directory, clear memory."""
    import repro.analysis.result_cache as result_cache

    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SIM_CACHE", "1")
    result_cache._memory_cache.clear()
    yield tmp_path
    result_cache._memory_cache.clear()


@pytest.fixture()
def trace_store(tmp_path, monkeypatch):
    """Redirect the ingested-trace store to a fresh directory."""
    from repro.workloads.suite import _cached_ingested

    store = tmp_path / "simtraces"
    monkeypatch.setenv("REPRO_TRACE_DIR", str(store))
    _cached_ingested.cache_clear()
    yield store
    _cached_ingested.cache_clear()
