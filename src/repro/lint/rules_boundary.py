"""Boundary rules: SIM012 (unpicklable payloads into process-pool
submits) and SIM013 (wall-clock/RNG effects feeding StatBlock counters).

Both consume the interprocedural effect pass: SIM012 follows the
``unpicklable-capture`` effect into `ProcessPoolExecutor.submit` call
sites (`repro.analysis.parallel`, `repro.serve.scheduler`), and SIM013
re-proves — statically, project-wide — the determinism contract that the
pinned result digests check dynamically: nothing derived from host time
or global RNG may reach a simulated counter.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint.effects import (
    UNPICKLABLE_CAPTURE,
    UNSEEDED_RNG,
    WALL_CLOCK,
    ProjectAnalysis,
    external_name,
)
from repro.lint.findings import Finding
from repro.lint.rules import ProjectRule, call_args, dotted_name, register
from repro.lint.rules_contracts import _is_stats_receiver

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.callgraph import FunctionNode
    from repro.lint.engine import LintEngine
    from repro.lint.source import SourceModule

#: Packages whose pools cross a pickle boundary.
POOL_SCOPES: tuple[str, ...] = ("repro.analysis", "repro.serve")

#: Packages whose counters are the simulation results.
STAT_SCOPES: tuple[str, ...] = ("repro.core", "repro.isa")

#: Constructors whose product definitely cannot be pickled.
_UNPICKLABLE_CTORS = frozenset(
    {
        "open",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "asyncio.Lock",
        "asyncio.Event",
        "asyncio.Condition",
        "asyncio.Queue",
        "socket.socket",
        "socket.create_connection",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
    }
)

_TELEMETRY_PREFIX = "repro.observe.telemetry"
_TELEMETRY_FACTORIES = frozenset({"maybe", "maybe_spans", "maybe_recorder"})


def _in_scopes(module: str, scopes: tuple[str, ...]) -> bool:
    return any(module == s or module.startswith(s + ".") for s in scopes)


def _analysis(engine: "LintEngine") -> ProjectAnalysis:
    assert engine.analysis is not None
    return engine.analysis


def _is_unpicklable_ctor(expr: ast.expr, bindings: dict[str, str]) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    name = dotted_name(expr.func)
    if name is None:
        return False
    resolved = external_name(name, bindings)
    if resolved in _UNPICKLABLE_CTORS:
        return True
    return (
        resolved.startswith(_TELEMETRY_PREFIX)
        and resolved.split(".")[-1] in _TELEMETRY_FACTORIES
    )


def _is_poolish(receiver: ast.expr) -> bool:
    """Does the submit receiver look like an executor pool?  Matches the
    repo's idioms: a name/attr whose last segment mentions "pool"
    (``pool``, ``self._pool``) or a call to one (``self.pool()``)."""
    expr = receiver
    if isinstance(expr, ast.Call):
        expr = expr.func
    name = dotted_name(expr)
    if name is None:
        return False
    return "pool" in name.split(".")[-1].lower()


@register
class ProcessBoundaryRule(ProjectRule):
    code = "SIM012"
    title = "no unpicklable objects into ProcessPoolExecutor.submit payloads"
    rationale = """\
Worker-pool payloads cross a pickle boundary: open handles, locks,
asyncio primitives, live sockets, and telemetry handles
(registries/sinks from `telemetry.maybe*()`) either crash the submit
with an opaque `TypeError: cannot pickle` at runtime or — worse —
smuggle loop-bound state into a worker process.  Job entries must be
module-level functions and payloads must be plain data (the SimJob /
dict shapes `repro.analysis.parallel` and `repro.serve.scheduler`
already use).  Lambdas and nested functions cannot be pickled at all."""
    bad_example = """\
from concurrent.futures import ProcessPoolExecutor

def run_jobs(jobs) -> None:
    pool = ProcessPoolExecutor()
    log = open("run.log", "w")
    for job in jobs:
        pool.submit(execute, job, log)

def execute(job, log) -> None:
    log.write(str(job))
"""
    good_example = """\
from concurrent.futures import ProcessPoolExecutor

def run_jobs(jobs) -> None:
    pool = ProcessPoolExecutor()
    for job in jobs:
        pool.submit(execute, job, "run.log")

def execute(job, log_path: str) -> None:
    with open(log_path, "a") as fh:
        fh.write(str(job))
"""
    example_path = "src/repro/analysis/mod.py"

    def check_project(
        self, modules: dict[str, "SourceModule"], engine: "LintEngine"
    ) -> list[Finding]:
        analysis = _analysis(engine)
        findings: list[Finding] = []
        for fn in sorted(
            analysis.graph.functions.values(), key=lambda f: f.qname
        ):
            if not _in_scopes(fn.module, POOL_SCOPES) or fn.is_module_body:
                continue
            module = analysis.graph.modules[fn.module]
            bindings = analysis.graph.bindings[fn.module]
            unpicklable_locals = self._unpicklable_locals(fn, bindings)
            nested_defs = {
                sub.name
                for sub in ast.walk(fn.node)
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub is not fn.node
            }
            for node in ast.walk(fn.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "submit"
                    and _is_poolish(node.func.value)
                ):
                    continue
                findings.extend(
                    self._check_submit(
                        node,
                        fn,
                        module.display_path,
                        bindings,
                        unpicklable_locals,
                        nested_defs,
                        analysis,
                    )
                )
        return findings

    def _unpicklable_locals(
        self, fn: "FunctionNode", bindings: dict[str, str]
    ) -> dict[str, str]:
        """Local name -> offending constructor, for names assigned an
        unpicklable object anywhere in the function (flow-insensitive)."""
        out: dict[str, str] = {}
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Assign) and _is_unpicklable_ctor(
                sub.value, bindings
            ):
                assert isinstance(sub.value, ast.Call)
                ctor = dotted_name(sub.value.func) or "?"
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        out[target.id] = ctor
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    if item.optional_vars is None:
                        continue
                    if _is_unpicklable_ctor(item.context_expr, bindings):
                        assert isinstance(item.context_expr, ast.Call)
                        ctor = dotted_name(item.context_expr.func) or "?"
                        if isinstance(item.optional_vars, ast.Name):
                            out[item.optional_vars.id] = ctor
        return out

    def _check_submit(
        self,
        node: ast.Call,
        fn: "FunctionNode",
        path: str,
        bindings: dict[str, str],
        unpicklable_locals: dict[str, str],
        nested_defs: set[str],
        analysis: ProjectAnalysis,
    ) -> list[Finding]:
        findings: list[Finding] = []

        def flag(arg: ast.expr, why: str) -> None:
            findings.append(
                Finding(
                    path=path,
                    line=getattr(arg, "lineno", node.lineno),
                    col=getattr(arg, "col_offset", node.col_offset) + 1,
                    rule=self.code,
                    message=(
                        f"{why} flows into a process-pool submit in "
                        f"`{fn.name}`; payloads must be plain picklable data "
                        "and entry points module-level functions"
                    ),
                    effects=(UNPICKLABLE_CAPTURE,),
                    call_path=(fn.qname,),
                )
            )

        for index, arg in enumerate(call_args(node)):
            if isinstance(arg, ast.Lambda):
                flag(arg, "a lambda (unpicklable)")
                continue
            if index == 0 and isinstance(arg, ast.Name) and arg.id in nested_defs:
                flag(arg, f"nested function `{arg.id}` (unpicklable)")
                continue
            if isinstance(arg, ast.Name) and arg.id in unpicklable_locals:
                flag(
                    arg,
                    f"`{arg.id}` (created by `{unpicklable_locals[arg.id]}`)",
                )
                continue
            if _is_unpicklable_ctor(arg, bindings):
                assert isinstance(arg, ast.Call)
                flag(arg, f"`{dotted_name(arg.func)}(...)` (unpicklable)")
                continue
            if isinstance(arg, ast.Call):
                # A call into a project function that captures
                # unpicklable state returns a poisoned payload.
                for edge in analysis.graph.out_edges(fn.qname):
                    if (
                        edge.line == arg.lineno
                        and edge.col == arg.col_offset
                        and UNPICKLABLE_CAPTURE
                        in analysis.effects.edge_effects(edge)
                    ):
                        flag(
                            arg,
                            f"result of `{edge.callee}` (captures "
                            "unpicklable state)",
                        )
                        break
        return findings


@register
class StatFeedDeterminismRule(ProjectRule):
    code = "SIM013"
    title = "no wall-clock/RNG effect reachable from functions feeding StatBlock counters"
    rationale = """\
Simulated counters must be a pure function of (workload, config, seed):
the result cache keys on exactly that triple, and the pinned result
digests compare counters bit-for-bit across runs, hosts and processes.  A function in `repro.core` / `repro.isa`
that feeds a `StatBlock` and — anywhere below it in the call graph —
reads host time or global RNG makes counters depend on the host, which
the per-file wall-clock rule (SIM002) cannot see once the read hides
behind a helper.  This is the static twin of the dynamic determinism
check: a digest test catches a divergence when it runs; this rule proves
the code shape cannot diverge."""
    bad_example = """\
import time

class Retire:
    def commit(self, uops_stats) -> None:
        uops_stats.add("retired", self._stamp())

    def _stamp(self) -> int:
        return int(time.time())
"""
    good_example = """\
class Retire:
    def commit(self, uops_stats, cycle: int) -> None:
        uops_stats.add("retired_cycle", cycle)
"""
    example_path = "src/repro/core/mod.py"

    def check_project(
        self, modules: dict[str, "SourceModule"], engine: "LintEngine"
    ) -> list[Finding]:
        analysis = _analysis(engine)
        findings: list[Finding] = []
        for fn in sorted(
            analysis.graph.functions.values(), key=lambda f: f.qname
        ):
            if not _in_scopes(fn.module, STAT_SCOPES) or fn.is_module_body:
                continue
            tainted = analysis.effects.effects_of(fn.qname) & {
                WALL_CLOCK,
                UNSEEDED_RNG,
            }
            if not tainted:
                continue
            module = analysis.graph.modules[fn.module]
            for node in ast.walk(fn.node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("add", "set")
                    and _is_stats_receiver(node.func.value)
                ):
                    continue
                effect = sorted(tainted)[0]
                path, site = analysis.effects.trace(fn.qname, effect)
                leaf = f" (`{site.detail}`)" if site else ""
                findings.append(
                    Finding(
                        path=module.display_path,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule=self.code,
                        message=(
                            f"`{fn.name}` feeds a StatBlock counter but has "
                            f"`{effect}` effect{leaf}; counters must be a pure "
                            "function of (workload, config, seed)"
                        ),
                        effects=tuple(sorted(tainted)),
                        call_path=tuple(path),
                    )
                )
        return findings
