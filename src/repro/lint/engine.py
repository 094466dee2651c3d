"""The lint engine: file discovery → parse → rules → suppressed-filtered
report.

The engine is deliberately dependency-free (stdlib ``ast`` only) so the
contract checks run anywhere the simulator runs — no plugin loading, no
entry points.  Rules self-register into :data:`repro.lint.rules.RULES`
when their module imports; this module imports all rule modules at the
bottom, so constructing a :class:`LintEngine` is enough to get the full
rule set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.rules import RULES, ProjectRule
from repro.lint.source import SourceModule, iter_source_files, load_module

#: Rule code attached to files the parser rejects.
SYNTAX_ERROR_CODE = "SIM000"

#: Default location of the committed cache-schema snapshot.
DEFAULT_SCHEMA_PATH = Path(__file__).parent / "cache_schema.json"


class LintInternalError(Exception):
    """The linter itself failed (exit code 2, never a finding)."""


@dataclass
class LintReport:
    """Outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


class LintEngine:
    """Runs every registered rule over a set of paths."""

    def __init__(self, schema_path: Path | None = None) -> None:
        self.schema_path = schema_path or DEFAULT_SCHEMA_PATH

    # -- running --------------------------------------------------------

    def lint_paths(self, paths: list[Path]) -> LintReport:
        report = LintReport()
        modules: dict[str, SourceModule] = {}
        for file in iter_source_files(paths):
            report.files_checked += 1
            try:
                module = load_module(file)
            except SyntaxError as error:
                report.findings.append(
                    Finding(
                        path=str(file),
                        line=error.lineno or 1,
                        col=(error.offset or 0) + 1,
                        rule=SYNTAX_ERROR_CODE,
                        message=f"syntax error: {error.msg}",
                    )
                )
                continue
            modules[module.module] = module
            self._run_file_rules(module, report)
        self._run_project_rules(modules, report)
        report.findings.sort()
        return report

    def _run_file_rules(self, module: SourceModule, report: LintReport) -> None:
        for rule in RULES.values():
            try:
                found = rule.check(module)
            except Exception as error:  # a rule bug is an internal error
                raise LintInternalError(
                    f"rule {rule.code} crashed on {module.path}: {error!r}"
                ) from error
            self._collect(module, found, report)

    def _run_project_rules(
        self, modules: dict[str, SourceModule], report: LintReport
    ) -> None:
        by_path = {module.display_path: module for module in modules.values()}
        for rule in RULES.values():
            if not isinstance(rule, ProjectRule):
                continue
            try:
                found = rule.check_project(modules, self)
            except Exception as error:
                raise LintInternalError(
                    f"project rule {rule.code} crashed: {error!r}"
                ) from error
            for finding in found:
                self._collect(by_path[finding.path], [finding], report)

    def _collect(
        self, module: SourceModule, found: list[Finding], report: LintReport
    ) -> None:
        for finding in found:
            if module.suppressions.covers(finding):
                report.suppressed += 1
            else:
                report.findings.append(finding)

    # -- schema snapshot maintenance ------------------------------------

    def write_schema_snapshot(self, paths: list[Path]) -> dict[str, object]:
        """Regenerate the cache-schema snapshot from the current sources."""
        from repro.lint.rules_schema import (
            RESULT_MODULE,
            RUNNER_MODULE,
            STATS_MODULE,
            extract_schema,
        )

        modules: dict[str, SourceModule] = {}
        for file in iter_source_files(paths):
            try:
                module = load_module(file)
            except SyntaxError:
                continue
            modules[module.module] = module
        missing = [
            name
            for name in (RUNNER_MODULE, RESULT_MODULE, STATS_MODULE)
            if name not in modules
        ]
        if missing:
            raise LintInternalError(
                f"cannot extract cache schema: {', '.join(missing)} not in the "
                "linted paths (run over src/)"
            )
        snapshot = extract_schema(modules)
        self.schema_path.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return snapshot


# Rule modules self-register on import; importing them here makes the
# registry complete for anyone who imports the engine.
from repro.lint import (  # noqa: E402,F401
    rules_contracts,
    rules_determinism,
    rules_schema,
)
