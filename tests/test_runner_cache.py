"""Hardened result-cache tests: corruption recovery, atomicity, accounting.

The disk cache must never return a wrong result: any truncated, stale,
bit-flipped, or mis-keyed entry has to fail the envelope check and be
re-simulated.  These tests corrupt entries in every way a killed or
misbehaving writer could and assert ``run_cached`` recovers.
"""

from __future__ import annotations

import pickle
import threading

import repro.analysis.runner as runner
from repro.core import SimConfig

# The `cache_dir` fixture (redirected disk cache + cleared memory cache)
# is shared via tests/conftest.py.


def _simulate_once(n: int = 2_000):
    return runner.run_cached("fp_01", SimConfig(), n)


def _entry_file(cache_dir):
    files = list(cache_dir.glob("*.pkl"))
    assert len(files) == 1
    return files[0]


class TestCorruptionRecovery:
    def test_garbage_file_resimulated(self, cache_dir):
        good = _simulate_once()
        path = _entry_file(cache_dir)
        path.write_bytes(b"not a pickle at all")
        runner._memory_cache.clear()
        again = _simulate_once()
        assert again.ipc == good.ipc
        # The bad file was replaced by a valid entry.
        assert runner.verify_disk_cache() == {"ok": 1, "corrupt": []}

    def test_truncated_file_resimulated(self, cache_dir):
        good = _simulate_once()
        path = _entry_file(cache_dir)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        runner._memory_cache.clear()
        assert _simulate_once().ipc == good.ipc
        assert runner.verify_disk_cache() == {"ok": 1, "corrupt": []}

    def test_checksum_mismatch_rejected(self, cache_dir):
        """A loadable pickle whose payload doesn't match its digest is
        treated as corrupt — the 'loadable-but-wrong' case."""
        good = _simulate_once()
        path = _entry_file(cache_dir)
        version, key, digest, payload = pickle.loads(path.read_bytes())
        tampered = payload[:-1] + bytes([payload[-1] ^ 0xFF])
        path.write_bytes(pickle.dumps((version, key, digest, tampered)))
        runner._memory_cache.clear()
        assert _simulate_once().ipc == good.ipc
        assert runner.verify_disk_cache()["corrupt"] == []

    def test_stale_version_rejected(self, cache_dir):
        _simulate_once()
        path = _entry_file(cache_dir)
        version, key, digest, payload = pickle.loads(path.read_bytes())
        path.write_bytes(pickle.dumps((version - 1, key, digest, payload)))
        assert runner._load_disk(path.stem) is None
        assert not path.exists()  # quarantined on load

    def test_wrong_key_rejected(self, cache_dir):
        """An entry renamed (or hash-collided) onto another key is refused."""
        _simulate_once()
        path = _entry_file(cache_dir)
        other = path.with_name("0" * 32 + ".pkl")
        path.rename(other)
        assert runner._load_disk(other.stem) is None

    def test_legacy_plain_pickle_rejected(self, cache_dir):
        """Pre-engine caches stored bare SimResult pickles; they must not
        load as valid entries."""
        good = _simulate_once()
        path = _entry_file(cache_dir)
        path.write_bytes(pickle.dumps(good))
        assert runner._load_disk(path.stem) is None


class TestAtomicity:
    def test_write_goes_through_temp_and_replace(self, cache_dir, monkeypatch):
        """If the final rename never happens, the final path is untouched —
        i.e. a writer killed mid-write cannot leave a partial entry."""

        def exploding_replace(src, dst):
            raise OSError("killed mid-write")

        monkeypatch.setattr(runner.os, "replace", exploding_replace)
        _simulate_once()
        assert list(cache_dir.glob("*.pkl")) == []
        assert list(cache_dir.glob(".*.tmp")) == []  # temp cleaned up

    def test_interrupted_writer_leaves_old_value_visible(
        self, cache_dir, monkeypatch
    ):
        good = _simulate_once()
        path = _entry_file(cache_dir)
        original = path.read_bytes()
        monkeypatch.setattr(
            runner.os, "replace", lambda s, d: (_ for _ in ()).throw(OSError())
        )
        runner._memory_cache.clear()
        runner._store_disk(path.stem, good)
        assert path.read_bytes() == original

    def test_stray_temp_files_ignored_and_cleared(self, cache_dir):
        _simulate_once()
        (cache_dir / ".deadbeef.12345.tmp").write_bytes(b"partial")
        runner._memory_cache.clear()
        assert _simulate_once() is not None
        assert runner.cache_stats()["temp_files"] == 1
        assert runner.clear_disk_cache() == 1  # counts entries, wipes temps
        assert list(cache_dir.iterdir()) == []


class TestBypassAndAccounting:
    def test_cache_env_zero_bypasses_disk(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", "0")
        _simulate_once()
        assert list(cache_dir.glob("*.pkl")) == []
        assert runner.cache_stats()["disk_enabled"] is False

    def test_cache_dir_env_read_at_call_time(self, tmp_path, monkeypatch):
        runner._memory_cache.clear()
        first = tmp_path / "first"
        second = tmp_path / "second"
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(first))
        _simulate_once()
        assert list(first.glob("*.pkl"))
        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(second))
        runner._memory_cache.clear()
        runner.run_cached("fp_01", SimConfig(), 2_500)
        assert list(second.glob("*.pkl"))
        runner._memory_cache.clear()

    def test_clear_disk_cache_reports_accurate_counts(self, cache_dir):
        assert runner.clear_disk_cache() == 0
        runner.run_cached("fp_01", SimConfig(), 2_000)
        runner.run_cached("fp_02", SimConfig(), 2_000)
        runner.run_cached("fp_01", SimConfig().without_uop_cache(), 2_000)
        assert runner.cache_stats()["disk_entries"] == 3
        assert runner.clear_disk_cache() == 3
        assert runner.clear_disk_cache() == 0

    def test_clear_memory_cache_counts(self, cache_dir):
        _simulate_once()
        assert runner.clear_memory_cache() == 1
        assert runner.clear_memory_cache() == 0

    def test_verify_fix_deletes_corrupt_entries(self, cache_dir):
        _simulate_once()
        bad = cache_dir / ("1" * 32 + ".pkl")
        bad.write_bytes(b"junk")
        report = runner.verify_disk_cache(fix=False)
        assert report["ok"] == 1 and report["corrupt"] == [bad.name]
        assert bad.exists()
        report = runner.verify_disk_cache(fix=True)
        assert not bad.exists()
        assert runner.verify_disk_cache() == {"ok": 1, "corrupt": []}


class TestSingleFlight:
    def test_concurrent_requests_simulate_once(self, cache_dir, monkeypatch):
        calls = []
        real_simulate = runner.simulate

        def counting_simulate(trace, config, name=None):
            calls.append(name)
            return real_simulate(trace, config, name=name)

        monkeypatch.setattr(runner, "simulate", counting_simulate)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(_simulate_once(3_000))
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert len(results) == 4
        assert all(r is results[0] for r in results)

    def test_caller_between_store_and_publish_gets_the_same_object(
        self, cache_dir, monkeypatch
    ):
        """A caller that probes after the owner's disk store but before it
        publishes in memory promotes the stored entry; the owner must then
        return that one object instead of overwriting it with its own."""
        real_store = runner._store_disk
        inside: list = []

        def store_then_race(key, result):
            real_store(key, result)
            racer = threading.Thread(target=lambda: inside.append(_simulate_once(3_000)))
            racer.start()
            racer.join()

        monkeypatch.setattr(runner, "_store_disk", store_then_race)
        owner = _simulate_once(3_000)
        assert len(inside) == 1
        assert inside[0] is owner
        assert runner._memory_cache[runner.cache_key("fp_01", 3_000, SimConfig())] is owner
