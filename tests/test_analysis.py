"""Tests for the cached runner and table rendering."""

from repro.analysis.runner import clear_disk_cache, run_cached
from repro.analysis.tables import format_series, format_table
from repro.core import SimConfig


class TestRunner:
    def test_memoises_in_process(self):
        a = run_cached("fp_01", SimConfig(), 3_000)
        b = run_cached("fp_01", SimConfig(), 3_000)
        assert a is b

    def test_different_configs_not_conflated(self):
        a = run_cached("fp_01", SimConfig(), 3_000)
        b = run_cached("fp_01", SimConfig().without_uop_cache(), 3_000)
        assert a is not b
        assert a.window != b.window

    def test_cache_keys_are_pinned(self):
        """Keys stay byte-identical, so every existing disk entry stays a
        hit; the second call reads the shared config's serialised form."""
        from repro.analysis.runner import CACHE_VERSION, cache_key
        from repro.core.configs import config_from_spec

        assert CACHE_VERSION == 7
        assert cache_key("fp_01", 5_000, SimConfig()) == (
            "7f5ab7c054cc97b32746446c3b594df9"
        )
        config = config_from_spec({"uop_kops": 16, "ucp": True})
        for _ in range(2):
            assert cache_key("srv_05", 6_500, config) == (
                "4eaf01e358448fba6d3fcd208df3a90f"
            )

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        import repro.analysis.runner as runner

        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SIM_CACHE", "1")
        runner._memory_cache.clear()
        first = runner.run_cached("fp_01", SimConfig(), 2_000)
        assert list(tmp_path.glob("*.pkl"))
        runner._memory_cache.clear()
        second = runner.run_cached("fp_01", SimConfig(), 2_000)
        assert second.ipc == first.ipc
        assert runner.clear_disk_cache() >= 1

    def test_disk_cache_disable(self, tmp_path, monkeypatch):
        import repro.analysis.runner as runner

        monkeypatch.setenv("REPRO_SIM_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SIM_CACHE", "0")
        runner._memory_cache.clear()
        runner.run_cached("fp_01", SimConfig(), 2_000)
        assert not list(tmp_path.glob("*.pkl"))


class TestTables:
    def test_format_table_alignment(self):
        text = format_table("Title", ["a", "bb"], [["x", 1.5], ["yy", 2.0]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "1.50" in text and "2.00" in text

    def test_format_table_empty(self):
        text = format_table("Empty", ["col"], [])
        assert "Empty" in text
        assert "col" in text

    def test_format_series(self):
        text = format_series(
            "S", {"one": [1.0, 2.0], "two": [3.0, 4.0]}, x_labels=["p", "q"]
        )
        assert "one" in text and "two" in text
        assert "p" in text and "q" in text
        assert "4.00" in text

    def test_format_series_unequal_lengths(self):
        text = format_series("S", {"a": [1.0, 2.0], "b": [3.0]})
        assert "2.00" in text
