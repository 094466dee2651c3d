"""SIM007 — cache-payload shape changes require a ``CACHE_VERSION`` bump.

The result cache pickles ``(config, SimResult.to_dict())`` under a
``CACHE_VERSION``-salted key.  If the payload shape changes while the
version stays put, old cache entries deserialize into the new code with
missing/renamed fields — the PR 1 corruption class the checksummed
envelope cannot catch, because the bytes are valid, just semantically
stale.  This rule extracts the shape *statically* (the ``to_dict`` key
sets of ``SimResult`` and ``StatBlock``, their ``SCHEMA`` numbers, and
``CACHE_VERSION`` itself) and compares it against a committed snapshot,
``src/repro/lint/cache_schema.json``.  Any drift fails the lint until the
snapshot is regenerated (``repro lint --write-schema``) — and
regenerating without bumping ``CACHE_VERSION`` when the shape moved is
still a finding, so the bump cannot be forgotten.
"""

from __future__ import annotations

import ast
import json
from typing import TYPE_CHECKING

from repro.lint.findings import Finding
from repro.lint.rules import ProjectRule, register
from repro.lint.source import SourceModule

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import LintEngine

#: Snapshot file format version.
SNAPSHOT_SCHEMA = 1

#: Modules the shape is extracted from (all three must be in the run set
#: for the rule to apply).
CACHE_MODULE = "repro.analysis.result_cache"
RESULT_MODULE = "repro.core.pipeline"
STATS_MODULE = "repro.common.stats"


class SchemaExtractionError(Exception):
    """The expected definitions were not found where the contract says."""


def _class_def(module: SourceModule, name: str) -> ast.ClassDef:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise SchemaExtractionError(f"class {name} not found in {module.module}")


def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise SchemaExtractionError(f"method {cls.name}.{name} not found")


def _int_literal(body: list[ast.stmt], name: str, owner: str) -> tuple[int, ast.AST]:
    """The ``NAME = <int literal>`` statement of ``body`` (e.g. ``SCHEMA = 1``)."""
    for node in body:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)):
            continue
        if isinstance(node.value.value, int) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value.value, node
    raise SchemaExtractionError(f"{owner}.{name} int literal not found")


def _cache_version(cache: SourceModule) -> tuple[int, ast.AST]:
    return _int_literal(cache.tree.body, "CACHE_VERSION", cache.module)


def _to_dict_keys(method: ast.FunctionDef) -> list[str]:
    """String keys of the dict literal(s) returned by a ``to_dict``."""
    keys: list[str] = []
    for node in ast.walk(method):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.append(key.value)
    if not keys:
        raise SchemaExtractionError(
            f"{method.name} does not return a literal dict — the payload "
            "shape must stay statically extractable"
        )
    return sorted(set(keys))


def extract_schema(modules: dict[str, SourceModule]) -> dict[str, object]:
    """Build the current shape description from the parsed run set."""
    cache = modules[CACHE_MODULE]
    pipeline = modules[RESULT_MODULE]
    stats = modules[STATS_MODULE]
    cache_version, _node = _cache_version(cache)
    sim_result = _class_def(pipeline, "SimResult")
    stat_block = _class_def(stats, "StatBlock")
    return {
        "schema": SNAPSHOT_SCHEMA,
        "cache_version": cache_version,
        "simresult": {
            "schema": _int_literal(sim_result.body, "SCHEMA", sim_result.name)[0],
            "to_dict_keys": _to_dict_keys(_method(sim_result, "to_dict")),
        },
        "statblock": {
            "schema": _int_literal(stat_block.body, "SCHEMA", stat_block.name)[0],
            "to_dict_keys": _to_dict_keys(_method(stat_block, "to_dict")),
        },
    }


@register
class CacheSchemaRule(ProjectRule):
    code = "SIM007"
    title = "cache payload shape changes require a CACHE_VERSION bump"
    # The examples above are illustrative fragments, not a self-contained
    # module: the rule compares cache/result/stats modules against the
    # cache_schema.json snapshot, which no single scratch file can set up.
    selfchecked = False
    rationale = """\
The result cache stores `(config, SimResult.to_dict())` under keys salted
with `CACHE_VERSION`.  Changing the payload shape (`SimResult.to_dict`
keys, `StatBlock.to_dict` keys, or their `SCHEMA` numbers) without
bumping the version makes byte-valid but semantically stale entries
deserialize into new code — silent wrong results, the worst failure mode
a reproduction can have.  The shipped shape is snapshotted in
`src/repro/lint/cache_schema.json`; on any drift, bump `CACHE_VERSION`
in `repro.analysis.result_cache` and refresh the snapshot with
`repro lint --write-schema` (the snapshot diff then shows reviewers the
shape change and the bump side by side)."""
    bad_example = """\
# SimResult.to_dict grows a key...
return {"schema": self.SCHEMA, "name": self.name, "power_w": self.power_w}
# ...while repro/analysis/result_cache.py still says CACHE_VERSION = 7
"""
    good_example = """\
# repro/analysis/result_cache.py
CACHE_VERSION = 8  # payload gained power_w
# and `repro lint --write-schema` refreshed cache_schema.json
"""

    def check_project(
        self, modules: dict[str, SourceModule], engine: "LintEngine"
    ) -> list[Finding]:
        required = (CACHE_MODULE, RESULT_MODULE, STATS_MODULE)
        if not all(name in modules for name in required):
            # Partial run (e.g. linting one file): contract not checkable.
            return []
        current = extract_schema(modules)
        snapshot_path = engine.schema_path
        if not snapshot_path.exists():
            cache = modules[CACHE_MODULE]
            _version, node = _cache_version(cache)
            return [
                self.finding(
                    cache,
                    node,
                    f"no cache-schema snapshot at {snapshot_path}; create it "
                    "with `repro lint --write-schema`",
                )
            ]
        snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
        if current == snapshot:
            return []
        return self._diff_findings(modules, snapshot, current)

    def _diff_findings(
        self,
        modules: dict[str, SourceModule],
        snapshot: dict[str, object],
        current: dict[str, object],
    ) -> list[Finding]:
        findings: list[Finding] = []
        shape_moved = any(
            snapshot.get(part) != current.get(part) for part in ("simresult", "statblock")
        )
        version_moved = snapshot.get("cache_version") != current.get("cache_version")
        cache = modules[CACHE_MODULE]
        _version, version_node = _cache_version(cache)
        if shape_moved and not version_moved:
            for part, module_name, cls, method in (
                ("simresult", RESULT_MODULE, "SimResult", "to_dict"),
                ("statblock", STATS_MODULE, "StatBlock", "to_dict"),
            ):
                if snapshot.get(part) == current.get(part):
                    continue
                module = modules[module_name]
                node = _method(_class_def(module, cls), method)
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{cls}.{method} payload shape changed but CACHE_VERSION "
                        f"is still {current.get('cache_version')} — bump it in "
                        f"{CACHE_MODULE} and run `repro lint --write-schema`",
                    )
                )
        else:
            # Version bumped (with or without a shape change), or a
            # version-only edit: the committed snapshot is stale either way.
            findings.append(
                self.finding(
                    cache,
                    version_node,
                    "cache schema snapshot is stale "
                    f"(snapshot v{snapshot.get('cache_version')} vs source "
                    f"v{current.get('cache_version')}); refresh it with "
                    "`repro lint --write-schema` so the diff is reviewed",
                )
            )
        return findings
