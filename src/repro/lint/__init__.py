"""repro.lint — simulator-aware static analysis.

A dependency-free (stdlib ``ast``) lint pass enforcing the contracts the
simulator's correctness rests on: seeded randomness, no wall-clock
nondeterminism, call-time environment reads, zero-cost-when-off hook
gating, integer counters, order-stable iteration, and cache-schema
versioning.  Every rule reads one file at a time, except SIM007, which
compares three modules against a committed snapshot.  Run it via
``repro lint src/`` or programmatically::

    from repro.lint import LintEngine
    report = LintEngine().lint_paths([Path("src")])
"""

from repro.lint.engine import (
    DEFAULT_SCHEMA_PATH,
    LintEngine,
    LintInternalError,
    LintReport,
)
from repro.lint.findings import Finding, Suppressions, parse_suppressions
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import RULES, ProjectRule, Rule
from repro.lint.source import SourceModule, iter_source_files, load_module, module_name

__all__ = [
    "DEFAULT_SCHEMA_PATH",
    "Finding",
    "LintEngine",
    "LintInternalError",
    "LintReport",
    "ProjectRule",
    "RULES",
    "Rule",
    "SourceModule",
    "Suppressions",
    "iter_source_files",
    "load_module",
    "module_name",
    "parse_suppressions",
    "render_json",
    "render_text",
]
