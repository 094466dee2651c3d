"""Tests for the ``repro.lint`` static-analysis engine and its rules.

Each rule gets a known-bad fixture it must fire on and a known-good
fixture it must stay silent on; the engine-level tests cover suppression
comments, syntax-error handling, the reporters, the mypy ratchet, and —
the self-check the whole PR hangs on — a clean run over the shipped tree.
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    Finding,
    LintEngine,
    module_name,
    parse_suppressions,
    render_json,
    render_text,
)
from repro.lint import ratchet
from repro.lint.reporters import REPORT_SCHEMA

REPO = Path(__file__).resolve().parents[1]


def lint_file(tmp_path, relpath, code, schema_path=None):
    """Write ``code`` at ``tmp_path/relpath`` and lint just that file."""
    file = tmp_path / relpath
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(code))
    engine = LintEngine(schema_path=schema_path or tmp_path / "schema.json")
    return engine.lint_paths([file])


def rules_fired(report):
    return {finding.rule for finding in report.findings}


class TestCatalog:
    def test_all_eight_rules_registered(self):
        assert sorted(RULES) == [f"SIM{i:03d}" for i in range(1, 9)]

    def test_rule_codes_match_convention(self):
        for code, rule in RULES.items():
            assert re.fullmatch(r"SIM\d{3}", code)
            assert rule.code == code
            assert rule.title
            assert rule.rationale

    def test_explain_includes_examples(self):
        for rule in RULES.values():
            text = rule.explain()
            assert rule.code in text
            assert "bad:" in text
            assert "good:" in text


class TestSim001UnseededRandom:
    def test_global_random_call_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
        )
        assert rules_fired(report) == {"SIM001"}

    def test_numpy_global_state_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import numpy as np

            def noise(n):
                np.random.seed(0)
                return np.random.rand(n)
            """,
        )
        assert report.counts_by_rule() == {"SIM001": 2}

    def test_from_import_of_global_fn_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            from random import shuffle

            def mix(items):
                shuffle(items)
            """,
        )
        assert "SIM001" in rules_fired(report)

    def test_seeded_instances_are_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import random

            import numpy as np

            def make(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random() + float(gen.random())
            """,
        )
        assert report.clean


class TestSim002WallClock:
    def test_time_read_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert rules_fired(report) == {"SIM002"}

    def test_from_time_import_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            from time import perf_counter

            def measure():
                return perf_counter()
            """,
        )
        assert "SIM002" in rules_fired(report)

    def test_profile_module_is_exempt(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/analysis/profile.py",
            """
            import time

            def measure():
                return time.perf_counter()
            """,
        )
        assert report.clean

    def test_benchmarks_path_is_exempt(self, tmp_path):
        report = lint_file(
            tmp_path,
            "benchmarks/bench_sim.py",
            """
            import time

            def measure():
                return time.perf_counter()
            """,
        )
        assert report.clean


class TestSim003ImportTimeEnv:
    def test_module_scope_read_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import os

            DEBUG = os.environ.get("REPRO_DEBUG", "")
            """,
        )
        assert rules_fired(report) == {"SIM003"}

    def test_class_body_read_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import os

            class Config:
                level = int(os.getenv("LEVEL", "0"))
            """,
        )
        assert rules_fired(report) == {"SIM003"}

    def test_call_time_read_is_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import os

            def check_level():
                return os.environ.get("REPRO_SIM_CHECK", "")
            """,
        )
        assert report.clean


class TestSim004HookGating:
    BAD = """
    class FTQ:
        def push(self, block):
            self.observer.emit("ftq_enqueue", count=block.count)
    """

    def test_ungated_hook_fires_in_core(self, tmp_path):
        report = lint_file(tmp_path, "src/repro/core/ftq.py", self.BAD)
        assert rules_fired(report) == {"SIM004"}

    def test_outside_pipeline_packages_not_checked(self, tmp_path):
        report = lint_file(tmp_path, "src/repro/analysis/ftq.py", self.BAD)
        assert report.clean

    def test_hoisted_pointer_gate_is_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/ftq.py",
            """
            class FTQ:
                def push(self, block):
                    observer = self.observer
                    if observer is not None:
                        observer.emit("ftq_enqueue", count=block.count)
            """,
        )
        assert report.clean

    def test_early_exit_gate_is_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/ftq.py",
            """
            class FTQ:
                def push(self, block):
                    if self.observer is None:
                        return
                    self.observer.emit("ftq_enqueue", count=block.count)
            """,
        )
        assert report.clean

    def test_and_chain_gate_is_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/ftq.py",
            """
            class FTQ:
                def push(self, block):
                    if self.checker is not None and self.checker.armed:
                        self.checker.check(block)
            """,
        )
        assert report.clean

    def test_gate_on_other_object_still_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/ftq.py",
            """
            class FTQ:
                def push(self, block):
                    if block is not None:
                        self.observer.emit("ftq_enqueue")
            """,
        )
        assert rules_fired(report) == {"SIM004"}


class TestSim005FloatCounters:
    def test_ratio_into_counter_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            class Fetch:
                def tick(self, served, asked):
                    self.stats.add("service_ratio", served / asked)
            """,
        )
        assert rules_fired(report) == {"SIM005"}

    def test_float_literal_set_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            class Fetch:
                def reset(self):
                    self.stats.set("weight", 1.5)
            """,
        )
        assert rules_fired(report) == {"SIM005"}

    def test_float_typed_statblock_field_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/common/stats2.py",
            """
            class StatBlock:
                def add(self, key: str, amount: float = 1) -> None:
                    pass
            """,
        )
        assert rules_fired(report) == {"SIM005"}

    def test_integer_counts_are_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            class Fetch:
                def tick(self, served, asked):
                    self.stats.add("uops_served", served)
                    self.stats.add("uops_asked", asked)
            """,
        )
        assert report.clean


class TestSim006SetIteration:
    def test_for_over_set_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            def drain(stats):
                pending = {4, 8, 15}
                out = []
                for line in pending:
                    out.append(line)
                return out
            """,
        )
        assert rules_fired(report) == {"SIM006"}

    def test_annotated_set_param_fires(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            def drain(pending, stats):
                lines: set[int] = pending
                return [line for line in lines]
            """,
        )
        assert rules_fired(report) == {"SIM006"}

    def test_sorted_iteration_is_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            def drain(stats):
                pending = {4, 8, 15}
                return [line for line in sorted(pending)]
            """,
        )
        assert report.clean

    def test_order_free_reductions_are_clean(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            def summarize(pending):
                seen = {4, 8, 15}
                total = sum(x for x in seen)
                return len(seen), total, any(x > 3 for x in seen), max(seen)
            """,
        )
        assert report.clean


SIM007_CACHE = """
CACHE_VERSION = 7
"""

SIM007_PIPELINE = """
class SimResult:
    SCHEMA = 1

    def __init__(self, name):
        self.name = name

    def to_dict(self):
        return {"schema": self.SCHEMA, "name": self.name}
"""

SIM007_STATS = """
class StatBlock:
    SCHEMA = 1

    def __init__(self, name=""):
        self.name = name

    def to_dict(self):
        return {"schema": self.SCHEMA, "name": self.name, "counters": {}}
"""


class TestSim007CacheSchema:
    def write_tree(self, tmp_path, cache=SIM007_CACHE, pipeline=SIM007_PIPELINE):
        for relpath, code in (
            ("src/repro/analysis/result_cache.py", cache),
            ("src/repro/core/pipeline.py", pipeline),
            ("src/repro/common/stats.py", SIM007_STATS),
        ):
            file = tmp_path / relpath
            file.parent.mkdir(parents=True, exist_ok=True)
            file.write_text(textwrap.dedent(code))
        return tmp_path / "src"

    def test_missing_snapshot_fires(self, tmp_path):
        src = self.write_tree(tmp_path)
        engine = LintEngine(schema_path=tmp_path / "schema.json")
        report = engine.lint_paths([src])
        assert rules_fired(report) == {"SIM007"}
        assert "--write-schema" in report.findings[0].message

    def test_snapshot_roundtrip_is_clean(self, tmp_path):
        src = self.write_tree(tmp_path)
        engine = LintEngine(schema_path=tmp_path / "schema.json")
        snapshot = engine.write_schema_snapshot([src])
        assert snapshot["cache_version"] == 7
        assert engine.lint_paths([src]).clean

    def test_shape_change_without_bump_fires(self, tmp_path):
        src = self.write_tree(tmp_path)
        engine = LintEngine(schema_path=tmp_path / "schema.json")
        engine.write_schema_snapshot([src])
        grown = SIM007_PIPELINE.replace(
            '"name": self.name}', '"name": self.name, "power_w": 0}'
        )
        self.write_tree(tmp_path, pipeline=grown)
        report = engine.lint_paths([src])
        assert rules_fired(report) == {"SIM007"}
        assert "CACHE_VERSION" in report.findings[0].message

    def test_version_bump_with_stale_snapshot_fires(self, tmp_path):
        src = self.write_tree(tmp_path)
        engine = LintEngine(schema_path=tmp_path / "schema.json")
        engine.write_schema_snapshot([src])
        self.write_tree(tmp_path, cache="CACHE_VERSION = 8\n")
        report = engine.lint_paths([src])
        assert rules_fired(report) == {"SIM007"}
        assert "stale" in report.findings[0].message

    def test_bump_plus_refresh_is_clean(self, tmp_path):
        src = self.write_tree(tmp_path)
        engine = LintEngine(schema_path=tmp_path / "schema.json")
        engine.write_schema_snapshot([src])
        grown = SIM007_PIPELINE.replace(
            '"name": self.name}', '"name": self.name, "power_w": 0}'
        )
        self.write_tree(tmp_path, cache="CACHE_VERSION = 8\n", pipeline=grown)
        engine.write_schema_snapshot([src])
        assert engine.lint_paths([src]).clean

    def test_partial_run_skips_the_rule(self, tmp_path):
        report = lint_file(tmp_path, "src/repro/core/other.py", "X = 1\n")
        assert report.clean


class TestSuppressions:
    def test_line_suppression(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import random

            def pick(items):
                return random.choice(items)  # lint-ok: SIM001 fixture needs global RNG
            """,
        )
        assert report.clean
        assert report.suppressed == 1

    def test_file_suppression(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            # lint-ok-file: SIM002
            import time

            def a():
                return time.time()

            def b():
                return time.monotonic()
            """,
        )
        assert report.clean
        assert report.suppressed == 2

    def test_suppression_is_rule_specific(self, tmp_path):
        report = lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import random

            def pick(items):
                return random.choice(items)  # lint-ok: SIM002 wrong code
            """,
        )
        assert rules_fired(report) == {"SIM001"}
        assert report.suppressed == 0

    def test_parse_multiple_codes(self):
        sup = parse_suppressions("x = 1  # lint-ok: SIM001, SIM005 both fine\n")
        assert sup.by_line[1] == frozenset({"SIM001", "SIM005"})
        assert not sup.whole_file


class TestEngine:
    def test_syntax_error_becomes_sim000(self, tmp_path):
        report = lint_file(tmp_path, "src/repro/core/broken.py", "def f(:\n")
        assert rules_fired(report) == {"SIM000"}

    def test_findings_are_sorted(self, tmp_path):
        src = tmp_path / "src" / "repro" / "core"
        src.mkdir(parents=True)
        (src / "b.py").write_text("import time\nT = time.time()\n")
        (src / "a.py").write_text("import time\nT = time.time()\n")
        engine = LintEngine(schema_path=tmp_path / "schema.json")
        report = engine.lint_paths([tmp_path / "src"])
        paths = [finding.path for finding in report.findings]
        assert paths == sorted(paths)

    def test_module_name_anchors_on_repro(self):
        assert module_name(Path("src/repro/core/ucp.py")) == "repro.core.ucp"
        assert module_name(Path("/tmp/x/src/repro/common/__init__.py")) == (
            "repro.common"
        )
        assert module_name(Path("scripts/tool.py")) == "tool"


class TestReporters:
    def make_report(self, tmp_path):
        return lint_file(
            tmp_path,
            "src/repro/core/mod.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )

    def test_text_format(self, tmp_path):
        report = self.make_report(tmp_path)
        text = render_text(report)
        finding = report.findings[0]
        assert f"{finding.path}:{finding.line}:{finding.col}: SIM002" in text
        assert "1 finding(s)" in text

    def test_json_format(self, tmp_path):
        report = self.make_report(tmp_path)
        payload = json.loads(render_json(report))
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["clean"] is False
        assert payload["counts_by_rule"] == {"SIM002": 1}
        assert payload["findings"][0]["rule"] == "SIM002"
        assert set(payload["findings"][0]) == {"path", "line", "col", "rule", "message"}

    def test_report_schema_is_v3(self):
        assert REPORT_SCHEMA == 3


class TestRatchet:
    OUTPUT = textwrap.dedent(
        """\
        src/repro/core/pipeline.py:10: error: Incompatible types  [assignment]
        src/repro/core/pipeline.py:22: error: Missing annotation  [no-untyped-def]
        src/repro/core/ucp.py:5: error: Bad thing  [misc]
        Found 3 errors in 2 files (checked 100 source files)
        """
    )

    def test_count_errors(self):
        counts = ratchet.count_errors(self.OUTPUT)
        assert counts == {
            "src/repro/core/pipeline.py": 2,
            "src/repro/core/ucp.py": 1,
        }

    def test_check_flags_unlisted_files(self):
        ok, messages = ratchet.check(
            {"src/repro/core/new.py": 1}, {"src/repro/core/pipeline.py": 2}
        )
        assert not ok
        assert any("not in the ratchet" in message for message in messages)

    def test_check_flags_budget_regressions(self):
        ok, _ = ratchet.check(
            {"src/repro/core/pipeline.py": 3}, {"src/repro/core/pipeline.py": 2}
        )
        assert not ok

    def test_check_tolerates_null_pins(self):
        ok, messages = ratchet.check(
            {"src/repro/core/pipeline.py": 9}, {"src/repro/core/pipeline.py": None}
        )
        assert ok
        assert any("unpinned" in message for message in messages)

    def test_update_lowers_and_pins(self):
        budget, _ = ratchet.update(
            {"src/repro/core/a.py": 1},
            {"src/repro/core/a.py": 5, "src/repro/core/b.py": None},
        )
        assert budget == {"src/repro/core/a.py": 1, "src/repro/core/b.py": 0}

    def test_update_refuses_raises_without_force(self):
        with pytest.raises(ValueError):
            ratchet.update(
                {"src/repro/core/a.py": 9}, {"src/repro/core/a.py": 1}
            )
        budget, _ = ratchet.update(
            {"src/repro/core/a.py": 9}, {"src/repro/core/a.py": 1}, force=True
        )
        assert budget["src/repro/core/a.py"] == 9

    def test_repo_ratchet_file_is_valid(self):
        budget = ratchet.load_ratchet(REPO / "mypy-ratchet.json")
        assert budget
        for path, pin in budget.items():
            assert (REPO / path).exists(), f"stale ratchet entry {path}"
            assert pin is None or pin >= 0
        # The strict packages must be pinned at zero, not merely tracked
        # (repro.lint joined the trio: the analyzer passes its own bar).
        for prefix in (
            "src/repro/common/",
            "src/repro/isa/",
            "src/repro/observe/",
            "src/repro/lint/",
        ):
            pins = [pin for path, pin in budget.items() if path.startswith(prefix)]
            assert pins and all(pin == 0 for pin in pins)


class TestSelfCheck:
    def test_shipped_tree_is_clean(self):
        """`repro lint src/` over this repository must exit clean."""
        report = LintEngine().lint_paths([REPO / "src"])
        assert report.clean, render_text(report)

    def test_schema_snapshot_is_committed_and_current(self):
        engine = LintEngine()
        assert engine.schema_path.exists()
        snapshot = json.loads(engine.schema_path.read_text())
        assert snapshot["schema"] == 1
        assert snapshot["cache_version"] >= 7

    def test_known_suppressions_are_the_telemetry_sites(self):
        report = LintEngine().lint_paths([REPO / "src"])
        # Every suppression is a SIM002 wall-clock read: run telemetry in
        # parallel.py (2), queue timing in scheduler.py (2), the job body's
        # timing in analysis/runner.py (2), the eviction grace-window clock
        # in analysis/result_cache.py (1), and the span/flight-recorder timestamps
        # in observe/telemetry (4).
        assert report.suppressed == 11
        # No suppression comment outlives its rule (the linter's own
        # docstrings quote examples, so its package is skipped).
        codes: set[str] = set()
        for file in (REPO / "src").rglob("*.py"):
            if "lint" in file.parts:
                continue
            found = parse_suppressions(file.read_text(encoding="utf-8"))
            codes |= found.whole_file.union(*found.by_line.values())
        assert codes == {"SIM002"}

    def test_finding_ordering_is_total(self):
        a = Finding("a.py", 1, 1, "SIM001", "x")
        b = Finding("a.py", 2, 1, "SIM001", "x")
        assert a < b

    def test_rule_selfcheck_passes(self):
        """Every selfcheckable rule catches its own bad example and
        passes its good one (mirrors the CI mutation-style step)."""
        from repro.lint import selfcheck

        assert selfcheck.main([]) == 0
