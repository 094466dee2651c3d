"""Determinism rules: SIM001 (seeded RNG), SIM002 (wall clock), SIM003
(call-time environment reads).

Bit-identical replay is the foundation every other layer stands on — the
result cache, the differential oracle, the golden-stat fixtures, and the
idle-skip equivalence proofs all assume that the same (workload, config,
seed) triple produces the same counters on every run, in every process.
These rules reject the three classic ways simulators lose that property.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.rules import Rule, ScopedVisitor, dotted_name, register
from repro.lint.source import SourceModule

#: ``random`` module functions that use the hidden global Mersenne state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "getstate",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` names that are fine: explicitly seeded constructors.
_NUMPY_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
     "Philox", "MT19937", "SFC64", "RandomState"}
)

#: Wall-clock reading functions of the ``time`` module.
_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: Wall-clock ``datetime`` entry points (dotted suffixes).
_DATETIME_FNS = frozenset(
    {"datetime.now", "datetime.utcnow", "datetime.today", "date.today"}
)


@register
class UnseededRandomRule(Rule):
    code = "SIM001"
    title = "no unseeded global-state RNG (`random.*` / `numpy.random.*`)"
    rationale = """\
Module-level RNG functions (`random.random`, `numpy.random.rand`, ...)
draw from hidden global state shared across the whole process.  Any code
path that touches it — in any import order, from any worker — perturbs
every later draw, so results stop being a function of (workload, config,
seed) and the result cache, the differential oracle, and cross-process
determinism tests all silently break.  Draw from an explicitly seeded
`random.Random(seed)` / `numpy.random.default_rng(seed)` instance that is
owned by the component using it."""
    bad_example = """\
import random

def jitter() -> float:
    return random.random()  # global Mersenne state
"""
    good_example = """\
import random

def jitter(rng: random.Random) -> float:
    return rng.random()  # caller-owned, seeded generator
"""

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                banned: frozenset[str] | None = None
                if node.module == "random":
                    banned = _GLOBAL_RANDOM_FNS
                elif node.module in ("numpy.random", "np.random"):
                    banned = frozenset()  # everything except the OK list
                if banned is None:
                    continue
                for alias in node.names:
                    if alias.name in _NUMPY_RANDOM_OK:
                        continue
                    if node.module == "random" and alias.name not in banned:
                        continue
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"`from {node.module} import {alias.name}` binds "
                            "global-state RNG; use a seeded "
                            "random.Random / numpy.random.default_rng instance",
                        )
                    )
            elif isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name is None:
                    continue
                if name.startswith("random.") and name.split(".")[1] in _GLOBAL_RANDOM_FNS:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"`{name}` uses the process-global RNG; draw from a "
                            "seeded random.Random instance instead",
                        )
                    )
                elif (
                    name.startswith(("numpy.random.", "np.random."))
                    and name.split(".")[2] not in _NUMPY_RANDOM_OK
                ):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"`{name}` uses numpy's global RNG; use "
                            "numpy.random.default_rng(seed) instead",
                        )
                    )
        return findings


@register
class WallClockRule(Rule):
    code = "SIM002"
    title = "no wall-clock reads outside profiling/benchmark modules"
    rationale = """\
`time.time` / `perf_counter` / `datetime.now` values differ run to run,
so anything derived from them is nondeterministic by construction.  In a
simulator the only legitimate clock is the simulated cycle counter;
wall-clock reads are reserved for the profiling layer
(`repro.analysis.profile`) and the benchmark harness (`benchmarks/`),
which exist to measure the simulator rather than the simulated machine.
Timing telemetry elsewhere (e.g. the parallel engine's job timing) must
be explicitly suppressed so every wall-clock read is an audited,
deliberate decision."""
    bad_example = """\
import time

def stamp(stats) -> None:
    stats.set("finished_at", int(time.time()))
"""
    good_example = """\
def stamp(stats, cycle: int) -> None:
    stats.set("finished_at_cycle", cycle)  # simulated time only
"""

    #: Modules whose whole purpose is wall-clock measurement.
    ALLOWED_MODULES = frozenset({"repro.analysis.profile"})
    ALLOWED_PATH_PARTS = frozenset({"benchmarks"})

    def check(self, module: SourceModule) -> list[Finding]:
        if module.module in self.ALLOWED_MODULES:
            return []
        if self.ALLOWED_PATH_PARTS & set(module.path.parts):
            return []
        findings: list[Finding] = []
        clock_names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _TIME_FNS:
                        clock_names.add(alias.asname or alias.name)
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"`from time import {alias.name}` brings a "
                                "wall-clock source into a simulator module",
                            )
                        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name is None:
                    continue
                if name.startswith("time.") and name.split(".", 1)[1] in _TIME_FNS:
                    findings.append(
                        self.finding(
                            module, node, f"wall-clock read `{name}` in simulator code"
                        )
                    )
                elif any(name.endswith(suffix) for suffix in _DATETIME_FNS):
                    findings.append(
                        self.finding(
                            module, node, f"wall-clock read `{name}` in simulator code"
                        )
                    )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in clock_names
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"wall-clock call `{node.func.id}()` in simulator code",
                    )
                )
        return findings


class _EnvScopeVisitor(ScopedVisitor):
    def __init__(self, rule: "ImportTimeEnvRule", module: SourceModule) -> None:
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: list[Finding] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.at_import_time and dotted_name(node) == "os.environ":
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    "`os.environ` read at import/class-body scope freezes the "
                    "value at first-import time; read it inside the function "
                    "that needs it",
                )
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.at_import_time and dotted_name(node.func) == "os.getenv":
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    "`os.getenv` call at import/class-body scope freezes the "
                    "value at first-import time; read it inside the function "
                    "that needs it",
                )
            )
        self.generic_visit(node)


@register
class ImportTimeEnvRule(Rule):
    code = "SIM003"
    title = "environment variables must be read at call time, not import time"
    rationale = """\
A module-level `os.environ.get(...)` snapshots the variable once, when the
module first happens to be imported; tests, the CLI and worker processes
that set the variable later silently operate on the stale value.  This is
exactly the PR 1 cache-dir bug class (`REPRO_SIM_CACHE_DIR` read at import
time ignored per-test overrides).  Every knob — `REPRO_SIM_CHECK`,
`REPRO_SIM_TRACE`, `REPRO_SIM_JOBS`, ... — follows the call-time contract:
a small accessor function reads the environment on each call.  Default
argument values and decorators of module-level `def`s evaluate at import
time and count as import scope."""
    bad_example = """\
import os

CACHE_DIR = os.environ.get("REPRO_SIM_CACHE_DIR", ".simcache")

def cache_dir() -> str:
    return CACHE_DIR
"""
    good_example = """\
import os

def cache_dir() -> str:
    return os.environ.get("REPRO_SIM_CACHE_DIR", ".simcache")
"""

    def check(self, module: SourceModule) -> list[Finding]:
        visitor = _EnvScopeVisitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
