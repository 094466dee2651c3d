"""Text and JSON reporters for lint reports.

The text form is the classic one-finding-per-line ``path:line:col: CODE
message`` that editors and CI log scrapers understand.  The JSON form is
the machine-readable artifact CI uploads; its ``schema`` field gates
future shape changes (the linter practises what SIM007 preaches).
"""

from __future__ import annotations

import json

from repro.lint.engine import LintReport

#: Schema version of the JSON report format.  v3: findings no longer
#: carry v2's ``effects`` and ``call_path`` (the call-graph pass is gone).
REPORT_SCHEMA = 3


def render_text(report: LintReport) -> str:
    """Human-readable report; one line per finding plus a summary line."""
    lines = [finding.render() for finding in report.findings]
    if report.findings:
        by_rule = ", ".join(
            f"{rule}: {count}" for rule, count in report.counts_by_rule().items()
        )
        lines.append(
            f"{len(report.findings)} finding(s) in {report.files_checked} "
            f"file(s) ({by_rule}); {report.suppressed} suppressed"
        )
    else:
        lines.append(
            f"clean: {report.files_checked} file(s), 0 findings, "
            f"{report.suppressed} suppressed"
        )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable report (the CI artifact)."""
    payload = {
        "schema": REPORT_SCHEMA,
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "clean": report.clean,
        "counts_by_rule": report.counts_by_rule(),
        "findings": [finding.as_dict() for finding in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
