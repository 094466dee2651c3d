"""Findings and suppression comments for :mod:`repro.lint`.

A :class:`Finding` is one rule violation anchored to a source location.
Suppressions are in-source comments:

* ``# lint-ok: SIM002`` — suppress the named rule(s) on this line
  (``# lint-ok: SIM002, SIM005`` for several; trailing prose after the
  codes documents *why* and is strongly encouraged);
* ``# lint-ok-file: SIM002`` — suppress the named rule(s) for the whole
  file (use sparingly; a module-wide exemption should usually become an
  engine-level scope rule instead).

A finding is suppressed when a matching ``lint-ok`` sits on the line the
finding anchors to (for a multi-line statement: the line of the construct
the rule points at, which is what the reporter prints).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: Matches the code list of a suppression comment.
_SUPPRESS_RE = re.compile(
    r"#\s*lint-ok(?P<scope>-file)?:\s*(?P<codes>[A-Z]{2,8}\d{3}(?:\s*,\s*[A-Z]{2,8}\d{3})*)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppressions:
    """Parsed ``lint-ok`` directives of one source file."""

    by_line: dict[int, frozenset[str]]
    whole_file: frozenset[str]

    def covers(self, finding: Finding) -> bool:
        if finding.rule in self.whole_file:
            return True
        return finding.rule in self.by_line.get(finding.line, frozenset())


def parse_suppressions(text: str) -> Suppressions:
    """Scan source ``text`` for ``lint-ok`` / ``lint-ok-file`` comments.

    Parsing is line-based on purpose: a directive inside a string literal
    would also count, but that false-accept is harmless and keeps the
    scanner independent of tokenization (it must work even on files the
    AST parser rejects).
    """
    by_line: dict[int, frozenset[str]] = {}
    whole_file: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "lint-ok" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = frozenset(code.strip() for code in match.group("codes").split(","))
        if match.group("scope"):
            whole_file |= codes
        else:
            by_line[lineno] = by_line.get(lineno, frozenset()) | codes
    return Suppressions(by_line=by_line, whole_file=frozenset(whole_file))
