"""Rule base classes, the rule registry, and shared AST helpers.

Every rule is a singleton registered by :func:`register`; the engine runs
the per-file rules over each parsed module and the project rule (SIM007)
once over the whole run set.  A rule carries its own documentation — title,
rationale, and a known-bad / known-good example pair — which backs both
``repro lint --explain CODE`` and the fixture tests (each rule's examples
must actually fire / pass, see ``tests/test_lint.py``).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Any

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.engine import LintEngine
    from repro.lint.source import SourceModule


class Rule:
    """One static check, applied per file."""

    code: str = ""
    title: str = ""
    #: Why the contract exists (shown by ``--explain``).
    rationale: str = ""
    #: A minimal snippet the rule must flag.
    bad_example: str = ""
    #: The corrected form of the bad example; must lint clean.
    good_example: str = ""
    #: Where the selfcheck writes the examples — rules scope by module
    #: name / path, so each rule declares a path inside its own scope.
    example_path: str = "src/repro/core/mod.py"
    #: Rules whose examples are self-contained single files take part in
    #: the mutation-style selfcheck (``python -m repro.lint.selfcheck``).
    selfchecked: bool = True

    def check(self, module: "SourceModule") -> list[Finding]:
        raise NotImplementedError

    def finding(self, module: "SourceModule", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
        )

    def explain(self) -> str:
        lines = [f"{self.code}: {self.title}", "", self.rationale.strip(), ""]
        if self.bad_example:
            lines += ["bad:", _indent(self.bad_example), ""]
        if self.good_example:
            lines += ["good:", _indent(self.good_example), ""]
        lines.append("suppress with `# lint-ok: " + self.code + " <reason>` on the line.")
        return "\n".join(lines)


class ProjectRule(Rule):
    """A rule that needs the whole run set (cross-file contracts)."""

    def check(self, module: "SourceModule") -> list[Finding]:
        return []

    def check_project(
        self, modules: dict[str, "SourceModule"], engine: "LintEngine"
    ) -> list[Finding]:
        raise NotImplementedError


#: Registry: code -> rule singleton, populated at import time.
RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return cls


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.strip().splitlines())


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def guard_targets_positive(test: ast.expr) -> set[str]:
    """Receivers proven non-None/truthy when ``test`` is true.

    Handles the gating idioms this codebase uses: ``x``, ``x is not
    None``, ``not x`` (negated), and ``and`` chains.
    """
    if isinstance(test, (ast.Name, ast.Attribute)):
        name = dotted_name(test)
        return {name} if name else set()
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if isinstance(test.ops[0], ast.IsNot) and _is_none(test.comparators[0]):
            name = dotted_name(test.left)
            return {name} if name else set()
        return set()
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        found: set[str] = set()
        for value in test.values:
            found |= guard_targets_positive(value)
        return found
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return guard_targets_negative(test.operand)
    return set()


def guard_targets_negative(test: ast.expr) -> set[str]:
    """Receivers proven non-None when ``test`` is *false* (else-branch /
    early-exit guards like ``if x is None: return``)."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        if isinstance(test.ops[0], ast.Is) and _is_none(test.comparators[0]):
            name = dotted_name(test.left)
            return {name} if name else set()
        return set()
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return guard_targets_positive(test.operand)
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        # The else-branch of `a is None or b is None` proves both non-None.
        found: set[str] = set()
        for value in test.values:
            found |= guard_targets_negative(value)
        return found
    return set()


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def terminates(stmt: ast.stmt) -> bool:
    """Does ``stmt`` unconditionally leave the enclosing block?"""
    return isinstance(stmt, (ast.Return, ast.Raise, ast.Continue, ast.Break))


def call_args(node: ast.Call) -> list[ast.expr]:
    return list(node.args) + [kw.value for kw in node.keywords]


class ScopedVisitor(ast.NodeVisitor):
    """A visitor that tracks whether traversal is inside a deferred scope
    (function/lambda body — *not* executed at import time).

    Default argument values, decorators, and annotations of a ``def`` at
    module or class scope are evaluated when the ``def`` runs, i.e. at
    import time — they are visited *outside* the deferred scope.
    """

    def __init__(self) -> None:
        self.depth = 0

    @property
    def at_import_time(self) -> bool:
        return self.depth == 0

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self._visit_eager_args(node.args)
        if node.returns is not None:
            self.visit(node.returns)
        self.depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.depth -= 1

    def _visit_eager_args(self, args: ast.arguments) -> None:
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            self.visit(default)
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                self.visit(arg.annotation)
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is not None:
                self.visit(vararg.annotation)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> Any:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> Any:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> Any:
        self._visit_eager_args(node.args)
        self.depth += 1
        self.visit(node.body)
        self.depth -= 1
