"""Property and CLI tests for the result cache's LRU eviction bounds.

The eviction policy (:mod:`repro.analysis.result_cache`) operates on
synthetic cache directories here — real payloads are irrelevant to the
policy; what matters is which files survive a prune.
"""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.result_cache as result_cache
from repro.cli import main

# ----------------------------------------------------------------------
# Synthetic cache directories
# ----------------------------------------------------------------------


def _populate(directory, specs):
    """Create fake entries: {key: (size_bytes, age_seconds)}."""
    directory.mkdir(parents=True, exist_ok=True)
    now = time.time()
    for key, (size, age) in specs.items():
        path = directory / f"{key}.pkl"
        path.write_bytes(b"x" * size)
        os.utime(path, (now - age, now - age))


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SIM_CACHE", "1")
    monkeypatch.delenv("REPRO_SIM_CACHE_MAX_BYTES", raising=False)
    monkeypatch.delenv("REPRO_SIM_CACHE_MAX_ENTRIES", raising=False)
    return tmp_path


entry_specs = st.dictionaries(
    keys=st.text(alphabet="abcdef0123456789", min_size=4, max_size=12),
    values=st.tuples(
        st.integers(min_value=1, max_value=4096),  # size
        st.integers(min_value=60, max_value=86_400),  # age (past grace)
    ),
    min_size=0,
    max_size=12,
)


# ----------------------------------------------------------------------
# Eviction properties
# ----------------------------------------------------------------------


class TestPruneProperties:
    @settings(max_examples=30, deadline=None)
    @given(specs=entry_specs, max_entries=st.integers(min_value=0, max_value=12))
    def test_prune_meets_entry_bound(self, tmp_path_factory, specs, max_entries):
        directory = tmp_path_factory.mktemp("prune")
        _populate(directory, specs)
        report = result_cache.prune(
            max_entries=max_entries or None, directory=directory
        )
        survivors = result_cache.scan_entries(directory)
        if max_entries:
            assert len(survivors) <= max_entries
        assert report.kept_entries == len(survivors)
        assert report.scanned == len(specs)
        # Survivors are the *newest* entries in prune's LRU order —
        # oldest (largest age) first, mtime ties broken by key ascending.
        removed = set(report.removed)
        if removed and survivors:
            def lru_rank(key):
                return (-specs[key][1], key)  # == ascending (mtime, key)

            last_removed = max(lru_rank(key) for key in removed)
            assert all(lru_rank(e.key) >= last_removed for e in survivors)

    @settings(max_examples=30, deadline=None)
    @given(specs=entry_specs, max_bytes=st.integers(min_value=1, max_value=32_768))
    def test_prune_meets_byte_bound(self, tmp_path_factory, specs, max_bytes):
        directory = tmp_path_factory.mktemp("prune")
        _populate(directory, specs)
        report = result_cache.prune(max_bytes=max_bytes, directory=directory)
        survivors = result_cache.scan_entries(directory)
        assert sum(e.size for e in survivors) <= max_bytes or not report.removed
        assert report.freed_bytes == sum(specs[key][0] for key in report.removed)

    @settings(max_examples=30, deadline=None)
    @given(specs=entry_specs)
    def test_protected_keys_always_survive(self, tmp_path_factory, specs):
        directory = tmp_path_factory.mktemp("prune")
        _populate(directory, specs)
        shielded = set(list(specs)[: len(specs) // 2])
        result_cache.prune(
            max_entries=0 or None,
            max_bytes=1,  # evict as much as allowed
            protect_keys=shielded,
            directory=directory,
        )
        survivors = {e.key for e in result_cache.scan_entries(directory)}
        assert shielded <= survivors

    @settings(max_examples=20, deadline=None)
    @given(specs=entry_specs)
    def test_dry_run_deletes_nothing(self, tmp_path_factory, specs):
        directory = tmp_path_factory.mktemp("prune")
        _populate(directory, specs)
        report = result_cache.prune(max_bytes=1, directory=directory, dry_run=True)
        assert report.dry_run
        assert {e.key for e in result_cache.scan_entries(directory)} == set(specs)


class TestEvictionRegistry:
    def test_grace_window_shields_young_entries(self, tmp_path):
        _populate(tmp_path, {"old1": (100, 600)})
        young = tmp_path / "young1.pkl"
        young.write_bytes(b"y" * 100)  # mtime = now
        report = result_cache.prune(
            max_entries=1, directory=tmp_path, min_age_seconds=60.0
        )
        assert report.removed == ("old1",)
        assert young.exists()

    def test_maybe_evict_is_noop_without_bounds(self, cache_dir):
        _populate(cache_dir, {"abcd": (100, 300)})
        assert result_cache.maybe_evict(directory=cache_dir) is None
        assert (cache_dir / "abcd.pkl").exists()

    def test_maybe_evict_honours_env_bound(self, cache_dir, monkeypatch):
        _populate(cache_dir, {"old2": (100, 600), "new2": (100, 100)})
        monkeypatch.setenv("REPRO_SIM_CACHE_MAX_ENTRIES", "1")
        report = result_cache.maybe_evict(directory=cache_dir, min_age_seconds=0.0)
        assert report is not None and report.removed == ("old2",)

    def test_resolve_bounds_ignore_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE_MAX_BYTES", "not-a-number")
        monkeypatch.setenv("REPRO_SIM_CACHE_MAX_ENTRIES", "-3")
        assert result_cache.resolve_max_bytes() is None
        assert result_cache.resolve_max_entries() is None
        assert result_cache.resolve_max_bytes(512) == 512
        assert result_cache.resolve_max_entries(0) is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCacheCli:
    def test_stats_reports_bounds_and_snapshot(self, cache_dir, monkeypatch, capsys):
        _populate(cache_dir, {"abcd": (128, 300)})
        monkeypatch.setenv("REPRO_SIM_CACHE_MAX_BYTES", "4096")
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "disk entries   1" in out
        assert "disk bytes     128 (max 4096)" in out
        assert "snapshot" not in out
        stats = result_cache.cache_stats()
        assert stats["max_bytes"] == 4096
        assert stats["max_entries"] is None

    def test_prune_without_bound_is_usage_error(self, cache_dir, capsys):
        assert main(["cache", "prune"]) == 2
        assert "no bound given" in capsys.readouterr().err

    def test_prune_enforces_entry_bound(self, cache_dir, capsys):
        _populate(cache_dir, {"old3": (10, 600), "new3": (10, 100)})
        assert main(["cache", "prune", "--max-entries", "1"]) == 0
        assert "evicted 1 of 2" in capsys.readouterr().out
        assert {e.key for e in result_cache.scan_entries(cache_dir)} == {"new3"}

    def test_prune_dry_run(self, cache_dir, capsys):
        _populate(cache_dir, {"old4": (10, 600), "new4": (10, 100)})
        assert main(["cache", "prune", "--max-entries", "1", "--dry-run"]) == 0
        assert "would evict" in capsys.readouterr().out
        assert len(result_cache.scan_entries(cache_dir)) == 2
