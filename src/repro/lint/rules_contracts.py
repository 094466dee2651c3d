"""Simulator-contract rules: SIM004 (hook gating), SIM005 (integer
counters), SIM006 (order-stable iteration), SIM008 (telemetry-handle
gating).

These encode contracts the runtime sanitizer cannot see: SIM004 is the
PR 2/4 zero-cost-when-off promise (instrumentation must cost exactly one
pointer test when disabled), SIM005 keeps `StatBlock` counters exact
integers (float accumulation drifts across summation orders), SIM006
forbids iteration orders that depend on hash seeding from feeding
anything observable, and SIM008 extends the SIM004 promise to the
service-telemetry handles (`telemetry.maybe*()` returns None when off).
"""

from __future__ import annotations

import ast
from typing import Callable

from repro.lint.findings import Finding
from repro.lint.rules import (
    Rule,
    call_args,
    dotted_name,
    guard_targets_negative,
    guard_targets_positive,
    register,
    terminates,
)
from repro.lint.source import SourceModule

# ---------------------------------------------------------------------------
# SIM004 — observe/verify hooks must sit behind one pointer test
# ---------------------------------------------------------------------------

#: Attribute segments that identify an instrumentation hook receiver.
_HOOK_SEGMENTS = frozenset({"observer", "checker"})


def _hook_receiver(recv: ast.expr) -> str | None:
    """The dotted receiver when it is an observe/verify hook, else None."""
    name = dotted_name(recv)
    if name is None:
        return None
    if _HOOK_SEGMENTS & set(name.split(".")):
        return name
    return None


def _guard_candidates(receiver: str) -> set[str]:
    """Expressions whose non-None-ness gates calls through ``receiver``.

    For ``self.observer.taxonomy`` both ``self.observer`` (the hook
    pointer) and the full receiver count as valid guards.
    """
    parts = receiver.split(".")
    candidates = {receiver}
    for i, part in enumerate(parts):
        if part in _HOOK_SEGMENTS:
            candidates.add(".".join(parts[: i + 1]))
    return candidates


class _GatingVisitor(ast.NodeVisitor):
    """Tracks which receivers are proven non-None on the current path.

    Shared by SIM004 and SIM008: ``matcher`` decides which call
    receivers are nullable handles (hook attributes vs. telemetry
    locals), the guard bookkeeping is identical.
    """

    def __init__(
        self,
        rule: Rule,
        module: SourceModule,
        matcher: Callable[[ast.expr], str | None] = _hook_receiver,
        message: str = "hook call through `{receiver}` is not gated by a "
        "pointer test (`if {receiver} is not None:`) — the "
        "off-path must cost exactly one attribute test",
    ) -> None:
        self.rule = rule
        self.module = module
        self.matcher = matcher
        self.message = message
        self.findings: list[Finding] = []
        self._guards: list[set[str]] = [set()]

    # -- guard bookkeeping ---------------------------------------------

    def _guarded(self, receiver: str) -> bool:
        candidates = _guard_candidates(receiver)
        return any(candidates & frame for frame in self._guards)

    def _with_guards(self, extra: set[str], nodes: list[ast.stmt]) -> None:
        self._guards.append(set(extra))
        self._visit_body(nodes)
        self._guards.pop()

    def _visit_body(self, body: list[ast.stmt]) -> None:
        """Visit a statement list, accumulating early-exit guards:
        ``if x is None: return`` proves ``x`` for the rest of the list,
        as does ``assert x is not None``."""
        self._guards.append(set())
        for stmt in body:
            self.visit(stmt)
            if (
                isinstance(stmt, ast.If)
                and not stmt.orelse
                and stmt.body
                and terminates(stmt.body[-1])
            ):
                self._guards[-1] |= guard_targets_negative(stmt.test)
            elif isinstance(stmt, ast.Assert):
                self._guards[-1] |= guard_targets_positive(stmt.test)
        self._guards.pop()

    # -- structural visits ---------------------------------------------

    def visit_If(self, node: ast.If | ast.While) -> None:
        self.visit(node.test)
        self._with_guards(guard_targets_positive(node.test), node.body)
        self._with_guards(guard_targets_negative(node.test), node.orelse)

    visit_While = visit_If

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self.visit(node.test)
        self._guards.append(guard_targets_positive(node.test))
        self.visit(node.body)
        self._guards.pop()
        self._guards.append(guard_targets_negative(node.test))
        self.visit(node.orelse)
        self._guards.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function(node)

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        # A fresh function body starts with no path guards.
        outer = self._guards
        self._guards = [set()]
        self._visit_body(node.body)
        self._guards = outer

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        # `x is not None and x.emit(...)` — later operands of an `and` are
        # guarded by the earlier ones.
        if isinstance(node.op, ast.And):
            acquired: set[str] = set()
            for value in node.values:
                self._guards.append(set(acquired))
                self.visit(value)
                self._guards.pop()
                acquired |= guard_targets_positive(value)
        else:
            self.generic_visit(node)

    # -- the check ------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            receiver = self.matcher(node.func.value)
            if receiver is not None and not self._guarded(receiver):
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        self.message.format(receiver=receiver),
                    )
                )
        self.generic_visit(node)


@register
class UngatedHookRule(Rule):
    code = "SIM004"
    title = "observe/verify hook calls must be gated by one pointer test"
    rationale = """\
The observability and sanitizer layers promise zero cost when off: every
component holds `self.observer = None` / `self.checker = None` and each
emit site pays exactly one pointer test.  An ungated call crashes when
the layer is off (`None.emit`), and a *clever* gate (walrus tricks,
try/except AttributeError) breaks the one-pointer-test cost model that
the PR 3 performance gate assumes.  Calls through any `observer`/
`checker` receiver in the pipeline packages (`repro.core`,
`repro.frontend`, `repro.caches`) must appear under an
`if <receiver> is not None:` (or an equivalent early-exit/`and` guard)."""
    bad_example = """\
class FTQ:
    def push(self, block) -> None:
        self.observer.emit("ftq_enqueue", count=block.count)
"""
    good_example = """\
class FTQ:
    def push(self, block) -> None:
        observer = self.observer
        if observer is not None:
            observer.emit("ftq_enqueue", count=block.count)
"""

    #: Package prefixes whose hook sites the rule audits.
    SCOPES = ("repro.core", "repro.frontend", "repro.caches")

    def check(self, module: SourceModule) -> list[Finding]:
        if not module.module.startswith(self.SCOPES):
            return []
        visitor = _GatingVisitor(self, module)
        visitor._visit_body(list(module.tree.body))
        return visitor.findings


# ---------------------------------------------------------------------------
# SIM008 — telemetry maybe-handles must sit behind one None test
# ---------------------------------------------------------------------------

#: The nullable-handle factories of ``repro.observe.telemetry``.
_TELEMETRY_FACTORIES = frozenset({"maybe", "maybe_spans", "maybe_recorder"})


def _telemetry_handle_names(tree: ast.AST) -> set[str]:
    """Names assigned from a ``telemetry.maybe*()`` call, module-wide.

    Scope-insensitive on purpose: in this codebase the handle names
    (``tel``/``sink``/``rec``) are conventional, and treating them as
    tainted everywhere keeps the rule simple while still proving every
    real site.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        called = dotted_name(node.value.func)
        if called is None or called.split(".")[-1] not in _TELEMETRY_FACTORIES:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


@register
class UngatedTelemetryRule(Rule):
    code = "SIM008"
    title = "telemetry maybe-handles must be gated by one None test"
    rationale = """\
`repro.observe.telemetry.maybe()` / `maybe_spans()` / `maybe_recorder()`
return None whenever `REPRO_SIM_TELEMETRY` is off — that None *is* the
zero-cost-when-off mechanism, exactly like the SIM004 observer/checker
pointers.  A method call through an unguarded handle crashes every
default-configuration run (`None.counter`), and wrapping it in
try/except instead of a None test hides the cost model the perf gate
assumes.  Every call through a maybe-assigned handle in the service
layers (`repro.serve`, `repro.analysis`, `repro.core`) must appear
under `if <handle> is not None:` (or an equivalent early-exit/`and`/
conditional-expression guard)."""
    bad_example = """\
def record_hit(tier: str) -> None:
    tel = telemetry.maybe()
    tel.counter("repro_cache_hits_total", "Cache hits.", labels=("tier",)).inc(
        tier=tier
    )
"""
    good_example = """\
def record_hit(tier: str) -> None:
    tel = telemetry.maybe()
    if tel is not None:
        tel.counter(
            "repro_cache_hits_total", "Cache hits.", labels=("tier",)
        ).inc(tier=tier)
"""

    #: Package prefixes whose telemetry sites the rule audits.
    SCOPES = ("repro.serve", "repro.analysis", "repro.core")
    #: The telemetry package itself manages its own internals.
    SKIP = ("repro.observe.telemetry",)

    def check(self, module: SourceModule) -> list[Finding]:
        if not module.module.startswith(self.SCOPES):
            return []
        if module.module.startswith(self.SKIP):
            return []
        handles = _telemetry_handle_names(module.tree)
        if not handles:
            return []

        def matcher(recv: ast.expr) -> str | None:
            name = dotted_name(recv)
            return name if name in handles else None

        visitor = _GatingVisitor(
            self,
            module,
            matcher=matcher,
            message="call through telemetry handle `{receiver}` is not gated "
            "by a None test (`if {receiver} is not None:`) — maybe*() "
            "returns None when REPRO_SIM_TELEMETRY is off",
        )
        visitor._visit_body(list(module.tree.body))
        return visitor.findings


# ---------------------------------------------------------------------------
# SIM005 — StatBlock counters stay integers
# ---------------------------------------------------------------------------


def _is_floatish(node: ast.expr) -> bool:
    """Conservative: expressions that *definitely* produce a float."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("float", "percent", "per_kilo", "amean", "geomean")
    return False


def _is_stats_receiver(recv: ast.expr) -> bool:
    name = dotted_name(recv)
    if name is None:
        return False
    last = name.split(".")[-1]
    return last in ("stats", "_stats") or last.endswith("_stats")


@register
class FloatCounterRule(Rule):
    code = "SIM005"
    title = "StatBlock counters must stay integers"
    rationale = """\
`StatBlock` counters are exact event counts; every consumer (the warm-up
window differencing, the cache envelope, golden-stat checksums, interval
deltas) assumes integer semantics.  A float slipped into `add`/`set`
accumulates rounding error whose value depends on summation order, which
idle-skip and the parallel engine both change — the bit-identity
contracts then fail unreproducibly.  Derived ratios belong in reporting
code (`SimResult` properties), never in the counter store."""
    bad_example = """\
class Fetch:
    def tick(self, served: int, asked: int) -> None:
        self.stats.add("service_ratio", served / asked)
"""
    good_example = """\
class Fetch:
    def tick(self, served: int, asked: int) -> None:
        self.stats.add("uops_served", served)
        self.stats.add("uops_asked", asked)  # ratio computed at report time
"""

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in ("add", "set"):
                    continue
                if not _is_stats_receiver(node.func.value):
                    continue
                for arg in call_args(node)[1:]:
                    if _is_floatish(arg):
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"float-valued `{node.func.attr}` into a StatBlock "
                                "counter; counters are exact integers — move the "
                                "ratio to reporting code",
                            )
                        )
            elif isinstance(node, ast.ClassDef) and node.name == "StatBlock":
                findings.extend(self._check_statblock_def(module, node))
        return findings

    def _check_statblock_def(
        self, module: SourceModule, node: ast.ClassDef
    ) -> list[Finding]:
        """Inside the StatBlock definition itself: counter storage and the
        `add`/`set` signatures must be int-typed."""
        findings: list[Finding] = []
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.AnnAssign) and "float" in ast.unparse(
                stmt.annotation
            ):
                findings.append(
                    self.finding(
                        module, stmt, "float-typed field inside StatBlock"
                    )
                )
            elif isinstance(stmt, ast.arg) and stmt.annotation is not None:
                if ast.unparse(stmt.annotation) == "float":
                    findings.append(
                        self.finding(
                            module,
                            stmt,
                            f"StatBlock method parameter `{stmt.arg}` typed float; "
                            "counter amounts must be int",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# SIM006 — iteration over sets must be order-stabilized
# ---------------------------------------------------------------------------

#: Callables that consume an iterable order-insensitively.
_ORDER_FREE_CALLS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset", "bool"}
)

#: Set methods that return another set.
_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


class _SetTracker(ast.NodeVisitor):
    """Collects names/attributes that are statically known to hold sets."""

    def __init__(self) -> None:
        self.known: set[str] = set()

    def _note_target(self, target: ast.expr, is_set: bool) -> None:
        name = dotted_name(target)
        if name is None:
            return
        if is_set:
            self.known.add(name)
        else:
            self.known.discard(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_target(target, _is_set_expr(node.value, self.known))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        value_is_set = node.value is not None and _is_set_expr(node.value, self.known)
        self._note_target(node.target, _is_set_annotation(node.annotation) or value_is_set)
        self.generic_visit(node)

    def _visit_params(self, args: ast.arguments) -> None:
        # Parameters annotated `set[...]` are sets too — the rule's own
        # bad example is a set-typed parameter.
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None and _is_set_annotation(arg.annotation):
                self.known.add(arg.arg)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_params(node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_params(node.args)
        self.generic_visit(node)


def _is_set_annotation(annotation: ast.expr) -> bool:
    text = ast.unparse(annotation)
    return text in ("set", "frozenset") or text.startswith(("set[", "frozenset["))


def _is_set_expr(node: ast.expr, known: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_RETURNING_METHODS
            and _is_set_expr(node.func.value, known)
        ):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left, known) or _is_set_expr(node.right, known)
    name = dotted_name(node)
    return name is not None and name in known


@register
class UnstableSetIterRule(Rule):
    code = "SIM006"
    title = "iteration over a set must be order-stabilized"
    rationale = """\
Set (and hash-seed-dependent) iteration order varies between processes,
so any set iteration whose order can reach stats, emitted events, or a
tie-break (first match wins) silently breaks cross-process determinism —
the parallel engine runs jobs in worker processes and compares against
serial runs bit for bit.  Iterate `sorted(the_set)` (or keep an
insertion-ordered dict/list instead).  Order-insensitive reductions
(`len`/`sum`/`min`/`max`/`any`/`all`, membership tests, building another
set) are exempt because no ordering escapes them."""
    bad_example = """\
def drain(pending: set[int], stats) -> None:
    for line in pending:
        stats.add("drained")
        emit(line)  # emission order depends on the hash seed
"""
    good_example = """\
def drain(pending: set[int], stats) -> None:
    for line in sorted(pending):
        stats.add("drained")
        emit(line)
"""

    def check(self, module: SourceModule) -> list[Finding]:
        tracker = _SetTracker()
        tracker.visit(module.tree)
        known = tracker.known
        findings: list[Finding] = []

        def flag(iter_expr: ast.expr, context: str) -> None:
            if _is_set_expr(iter_expr, known):
                findings.append(
                    self.finding(
                        module,
                        iter_expr,
                        f"{context} iterates a set in hash order; wrap it in "
                        "sorted(...) or use an insertion-ordered structure",
                    )
                )

        # A genexp consumed whole by an order-free reduction leaks no
        # ordering: `any(f(x) for x in someset)` is fine.
        order_free_genexps: set[int] = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_FREE_CALLS
            ):
                for arg in node.args:
                    if isinstance(arg, ast.GeneratorExp):
                        order_free_genexps.add(id(arg))

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For):
                flag(node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                # A SetComp output is itself unordered — exempt.
                if id(node) in order_free_genexps:
                    continue
                for comp in node.generators:
                    flag(comp.iter, "comprehension")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    if func.id in _ORDER_FREE_CALLS:
                        continue
                    if func.id in ("list", "tuple", "iter", "enumerate") and node.args:
                        flag(node.args[0], f"{func.id}(...)")
                elif isinstance(func, ast.Attribute) and func.attr == "join":
                    if node.args:
                        flag(node.args[0], "str.join(...)")
        return findings
