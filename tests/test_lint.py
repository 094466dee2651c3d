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
    def test_all_thirteen_rules_registered(self):
        assert sorted(RULES) == [f"SIM{i:03d}" for i in range(1, 14)]

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


SIM007_RUNNER = """
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
    def write_tree(self, tmp_path, runner=SIM007_RUNNER, pipeline=SIM007_PIPELINE):
        for relpath, code in (
            ("src/repro/analysis/runner.py", runner),
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
        self.write_tree(tmp_path, runner="CACHE_VERSION = 8\n")
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
        self.write_tree(tmp_path, runner="CACHE_VERSION = 8\n", pipeline=grown)
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
        # Schema v2: every finding carries effects/call_path (empty lists
        # for per-file findings) so consumers need no presence checks.
        assert set(payload["findings"][0]) == {
            "path",
            "line",
            "col",
            "rule",
            "message",
            "effects",
            "call_path",
        }
        assert payload["findings"][0]["effects"] == []
        assert payload["findings"][0]["call_path"] == []

    def test_report_schema_is_v2(self):
        assert REPORT_SCHEMA == 2


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
        # Wall-clock telemetry + timeout-deadline bookkeeping in
        # parallel.py (7), worker/queue timing in serve/scheduler.py (4),
        # the eviction grace-window clock in serve/eviction.py (1), and the
        # span/flight-recorder timestamps in observe/telemetry (4).  The SIM009/SIM010 lint-ok comments added
        # with the interprocedural pass are effect cuts: they remove the
        # effect before any finding is generated, so they do not increment
        # this counter.
        assert report.suppressed == 16

    def test_finding_ordering_is_total(self):
        a = Finding("a.py", 1, 1, "SIM001", "x")
        b = Finding("a.py", 2, 1, "SIM001", "x")
        assert a < b

    def test_rule_selfcheck_passes(self):
        """Every selfcheckable rule catches its own bad example and
        passes its good one (mirrors the CI mutation-style step)."""
        from repro.lint import selfcheck

        assert selfcheck.main([]) == 0


def lint_tree(tmp_path, files):
    """Write a multi-file src tree and lint it whole; returns
    (report, engine) so tests can inspect ``engine.analysis``."""
    for relpath, code in files:
        file = tmp_path / relpath
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(code))
    engine = LintEngine(schema_path=tmp_path / "schema.json")
    return engine.lint_paths([tmp_path / "src"]), engine


class TestCallGraph:
    def test_direct_and_method_edges(self, tmp_path):
        _, engine = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/core/mod.py",
                    """
                    class Engine:
                        def run(self) -> None:
                            self.step()

                        def step(self) -> None:
                            helper()

                    def helper() -> None:
                        pass
                    """,
                )
            ],
        )
        graph = engine.analysis.graph
        callees = {
            edge.caller: edge.callee for edge in graph.edges
        }
        assert callees["repro.core.mod.Engine.run"] == "repro.core.mod.Engine.step"
        assert callees["repro.core.mod.Engine.step"] == "repro.core.mod.helper"

    def test_cross_module_import_edge(self, tmp_path):
        _, engine = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/core/helpers.py",
                    """
                    def load() -> int:
                        return 1
                    """,
                ),
                (
                    "src/repro/core/mod.py",
                    """
                    from repro.core.helpers import load

                    def boot() -> int:
                        return load()
                    """,
                ),
            ],
        )
        graph = engine.analysis.graph
        assert any(
            edge.caller == "repro.core.mod.boot"
            and edge.callee == "repro.core.helpers.load"
            for edge in graph.edges
        )

    def test_unresolvable_calls_make_no_edge(self, tmp_path):
        _, engine = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/core/mod.py",
                    """
                    def run(callback) -> None:
                        callback()
                        getattr(callback, "close")()
                    """,
                )
            ],
        )
        assert not engine.analysis.graph.edges

    def test_payload_shape(self, tmp_path):
        from repro.lint import CALLGRAPH_SCHEMA

        _, engine = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/core/mod.py",
                    """
                    def a() -> None:
                        b()

                    def b() -> None:
                        pass
                    """,
                )
            ],
        )
        payload = engine.analysis.to_payload()
        # Round-trips through JSON (this is the CI artifact).
        payload = json.loads(json.dumps(payload))
        assert payload["schema"] == CALLGRAPH_SCHEMA
        entry = next(
            f for f in payload["functions"] if f["qname"] == "repro.core.mod.a"
        )
        assert set(entry) == {
            "qname",
            "module",
            "name",
            "class",
            "line",
            "async",
            "effects",
            "intrinsic",
        }
        assert any(
            e["caller"] == "repro.core.mod.a" and e["callee"] == "repro.core.mod.b"
            for e in payload["edges"]
        )


class TestEffects:
    def test_effect_propagates_up_the_chain(self, tmp_path):
        from repro.lint.effects import WALL_CLOCK

        _, engine = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/analysis/profile.py",
                    """
                    import time

                    def now() -> float:
                        return time.time()

                    def outer() -> float:
                        return now()
                    """,
                )
            ],
        )
        effects = engine.analysis.effects
        assert WALL_CLOCK in effects.effects_of("repro.analysis.profile.now")
        assert WALL_CLOCK in effects.effects_of("repro.analysis.profile.outer")
        path, site = effects.trace("repro.analysis.profile.outer", WALL_CLOCK)
        assert path == [
            "repro.analysis.profile.outer",
            "repro.analysis.profile.now",
        ]
        assert site.detail == "time.time()"

    def test_suppression_cuts_the_edge(self, tmp_path):
        from repro.lint.effects import WALL_CLOCK

        _, engine = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/analysis/profile.py",
                    """
                    import time

                    def now() -> float:
                        return time.time()

                    def outer() -> float:
                        return now()  # lint-ok: SIM002 profiling wrapper

                    def unaudited() -> float:
                        return now()
                    """,
                )
            ],
        )
        effects = engine.analysis.effects
        # The suppressed edge is cut; the unsuppressed one still taints.
        assert WALL_CLOCK not in effects.effects_of(
            "repro.analysis.profile.outer"
        )
        assert WALL_CLOCK in effects.effects_of(
            "repro.analysis.profile.unaudited"
        )


class TestSim009AsyncBlocking:
    def test_direct_blocking_call_fires(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/serve/mod.py",
                    """
                    import time

                    async def handle() -> None:
                        time.sleep(0.05)
                    """,
                )
            ],
        )
        assert rules_fired(report) == {"SIM009"}

    def test_indirect_blocking_call_fires_with_path(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/serve/mod.py",
                    """
                    async def handle() -> str:
                        return probe()

                    def probe() -> str:
                        return load()

                    def load() -> str:
                        with open("state.json") as fh:
                            return fh.read()
                    """,
                )
            ],
        )
        assert rules_fired(report) == {"SIM009"}
        finding = report.findings[0]
        assert finding.call_path == (
            "repro.serve.mod.handle",
            "repro.serve.mod.probe",
            "repro.serve.mod.load",
        )
        assert "blocking" in finding.message

    def test_executor_hop_is_clean(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/serve/mod.py",
                    """
                    import asyncio

                    async def handle() -> None:
                        await asyncio.to_thread(warm)

                    def warm() -> None:
                        with open("cache.bin", "rb") as fh:
                            fh.read()
                    """,
                )
            ],
        )
        assert rules_fired(report) == set()

    def test_blocking_outside_async_scope_is_clean(self, tmp_path):
        # Same shape, but in repro.analysis: no event loop, no SIM009.
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/analysis/mod.py",
                    """
                    async def handle() -> str:
                        return load()

                    def load() -> str:
                        with open("state.json") as fh:
                            return fh.read()
                    """,
                )
            ],
        )
        assert rules_fired(report) == set()


class TestSim010AsyncLock:
    def test_threading_lock_in_async_fires(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/serve/mod.py",
                    """
                    import threading

                    _lock = threading.Lock()

                    async def handle() -> None:
                        with _lock:
                            pass
                    """,
                )
            ],
        )
        assert "SIM010" in rules_fired(report)

    def test_indirect_lock_anchored_at_acquire_site(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/serve/mod.py",
                    """
                    import threading

                    _lock = threading.Lock()

                    async def handle() -> None:
                        protect()

                    def protect() -> None:
                        with _lock:
                            pass
                    """,
                )
            ],
        )
        sim010 = [f for f in report.findings if f.rule == "SIM010"]
        assert len(sim010) == 1
        # Anchored at the acquire (`with _lock:`) so one suppression
        # there covers every async route.
        assert sim010[0].line == 10
        assert sim010[0].call_path == (
            "repro.serve.mod.handle",
            "repro.serve.mod.protect",
        )

    def test_cross_await_mutation_fires(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/serve/mod.py",
                    """
                    class Tracker:
                        def __init__(self) -> None:
                            self.active = 0

                        async def track(self, job) -> None:
                            self.active = self.active + 1
                            await job.run()
                            self.active = self.active - 1
                    """,
                )
            ],
        )
        assert rules_fired(report) == {"SIM010"}
        assert "both sides of an await" in report.findings[0].message

    def test_asyncio_lock_is_clean(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/serve/mod.py",
                    """
                    import asyncio

                    class Tracker:
                        def __init__(self) -> None:
                            self.active = 0
                            self.lock = asyncio.Lock()

                        async def track(self, job) -> None:
                            async with self.lock:
                                self.active = self.active + 1
                                await job.run()
                                self.active = self.active - 1
                    """,
                )
            ],
        )
        assert rules_fired(report) == set()


class TestSim011LockAcrossAwait:
    def test_with_lock_around_await_fires(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/analysis/mod.py",
                    """
                    import threading

                    _lock = threading.Lock()

                    async def refresh(source) -> None:
                        with _lock:
                            await source.fetch()
                    """,
                )
            ],
        )
        assert "SIM011" in rules_fired(report)

    def test_manual_acquire_across_await_fires(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/analysis/mod.py",
                    """
                    async def refresh(cache_lock, source) -> None:
                        cache_lock.acquire()
                        await source.fetch()
                        cache_lock.release()
                    """,
                )
            ],
        )
        assert "SIM011" in rules_fired(report)

    def test_async_with_is_clean(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/analysis/mod.py",
                    """
                    import asyncio

                    _lock = asyncio.Lock()

                    async def refresh(source) -> None:
                        async with _lock:
                            await source.fetch()
                    """,
                )
            ],
        )
        assert rules_fired(report) == set()

    def test_sync_critical_section_is_clean(self, tmp_path):
        # Near-miss: the lock guards only sync work; the await is outside.
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/analysis/mod.py",
                    """
                    import threading

                    _lock = threading.Lock()
                    _state = {}

                    async def refresh(source) -> None:
                        data = await source.fetch()
                        with _lock:
                            _state.update(data)
                    """,
                )
            ],
        )
        assert rules_fired(report) == set()


class TestSim012ProcessBoundary:
    def test_open_handle_into_submit_fires(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/analysis/mod.py",
                    """
                    from concurrent.futures import ProcessPoolExecutor

                    def run_jobs(jobs) -> None:
                        pool = ProcessPoolExecutor()
                        log = open("run.log", "w")
                        for job in jobs:
                            pool.submit(execute, job, log)

                    def execute(job, log) -> None:
                        log.write(str(job))
                    """,
                )
            ],
        )
        assert "SIM012" in rules_fired(report)

    def test_lambda_into_submit_fires(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/serve/mod.py",
                    """
                    def run(pool, job) -> None:
                        pool.submit(lambda: job.execute())
                    """,
                )
            ],
        )
        assert "SIM012" in rules_fired(report)

    def test_plain_data_payload_is_clean(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/analysis/mod.py",
                    """
                    from concurrent.futures import ProcessPoolExecutor

                    def run_jobs(jobs) -> None:
                        pool = ProcessPoolExecutor()
                        for job in jobs:
                            pool.submit(execute, job, "run.log")

                    def execute(job, log_path: str) -> None:
                        with open(log_path, "a") as fh:
                            fh.write(str(job))
                    """,
                )
            ],
        )
        assert rules_fired(report) == set()


class TestSim013StatFeedDeterminism:
    def test_wall_clock_behind_helper_fires(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/core/mod.py",
                    """
                    import time

                    class Retire:
                        def commit(self, uops_stats) -> None:
                            uops_stats.add("retired", self._stamp())

                        def _stamp(self) -> int:
                            return int(time.time())
                    """,
                )
            ],
        )
        fired = rules_fired(report)
        # SIM002 anchors on the read itself; SIM013 on the counter feed.
        assert "SIM013" in fired
        sim013 = next(f for f in report.findings if f.rule == "SIM013")
        assert "wall-clock" in sim013.effects
        assert "pure function" in sim013.message

    def test_pure_counter_feed_is_clean(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/core/mod.py",
                    """
                    class Retire:
                        def commit(self, uops_stats, cycle: int) -> None:
                            uops_stats.add("retired_cycle", cycle)
                    """,
                )
            ],
        )
        assert rules_fired(report) == set()

    def test_effectful_function_without_stats_feed_is_clean(self, tmp_path):
        # Near-miss: wall-clock effect but nothing feeds a StatBlock —
        # SIM002 still anchors the read, but SIM013 stays silent.
        report, _ = lint_tree(
            tmp_path,
            [
                (
                    "src/repro/core/mod.py",
                    """
                    import time

                    def stamp() -> int:
                        return int(time.time())
                    """,
                )
            ],
        )
        assert "SIM013" not in rules_fired(report)


class TestInterproceduralRegressions:
    """The acceptance case: indirect SIM002/SIM003 violations that the
    per-file engine provably misses and only the call-graph pass catches."""

    PROFILE = """
    import time

    def now() -> float:
        return time.time()  # allowed here: profiling module is exempt
    """
    CALLER = """
    from repro.analysis.profile import now

    def tick() -> float:
        return now()
    """

    def test_per_file_engine_misses_indirect_wall_clock(self, tmp_path):
        # Linting the caller alone (the per-file view): the wall-clock
        # read is invisible — it lives behind an import the single-file
        # run cannot resolve.
        report = lint_file(tmp_path, "src/repro/core/mod.py", self.CALLER)
        assert rules_fired(report) == set()

    def test_project_run_catches_indirect_wall_clock(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                ("src/repro/analysis/profile.py", self.PROFILE),
                ("src/repro/core/mod.py", self.CALLER),
            ],
        )
        assert rules_fired(report) == {"SIM002"}
        finding = report.findings[0]
        assert finding.path.endswith("core/mod.py")
        assert finding.call_path[-1] == "repro.analysis.profile.now"
        assert "wall-clock" in finding.effects

    KNOB = """
    import os

    def knob() -> str:
        return os.environ.get("REPRO_LIMIT", "8")  # call-time read: fine
    """
    IMPORTER = """
    from repro.serve.helpers import knob

    LIMIT = knob()
    """

    def test_per_file_engine_misses_indirect_env_read(self, tmp_path):
        report = lint_file(tmp_path, "src/repro/serve/mod.py", self.IMPORTER)
        assert rules_fired(report) == set()

    def test_project_run_catches_indirect_env_read(self, tmp_path):
        report, _ = lint_tree(
            tmp_path,
            [
                ("src/repro/serve/helpers.py", self.KNOB),
                ("src/repro/serve/mod.py", self.IMPORTER),
            ],
        )
        assert rules_fired(report) == {"SIM003"}
        finding = report.findings[0]
        assert finding.path.endswith("serve/mod.py")
        assert "import-time call" in finding.message
