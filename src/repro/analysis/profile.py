"""Component-level wall-time profiler for the simulator hot path.

:func:`profile_run` executes one simulation with the per-cycle component
entry points (backend commit/dispatch, fetch, BPU generation, L1I
prefetch issue, the UCP walker, the idle-skip scan, and the optional
invariant checker) wrapped in ``perf_counter`` closures, and reports how
the run's wall time splits across them.  The wrappers only *measure* —
the simulation itself is bit-identical to an unprofiled run.

Accounting identity
-------------------

The top-level component rows partition the main loop: every row is timed
at its single call site in :meth:`Simulator.run`, so the rows never
overlap and

    sum(component seconds) + other == total wall seconds

holds exactly (``other`` is the clamped non-negative residual: loop
bookkeeping, warm-up snapshotting, and the wrappers' own overhead).
Nested detail rows (µ-op cache lookups, FTQ pushes/pops) are timed
*inside* a top-level component and therefore reported separately — they
are a drill-down, not part of the partition.
"""

from __future__ import annotations

import json
from time import perf_counter

from repro.core.configs import SimConfig
from repro.core.pipeline import SimResult, Simulator
from repro.isa.trace import Trace

#: (row key, simulator attribute holding the component, method name).
#: A ``None`` attribute means the method lives on the Simulator itself.
#: Every entry is called from exactly one site in ``Simulator.run`` —
#: that is what makes the rows a partition of the main loop.
_TOP_LEVEL: list[tuple[str, str | None, str]] = [
    ("idle_skip", None, "_idle_until"),
    ("backend_commit", "backend", "commit"),
    ("backend_dispatch", "backend", "dispatch_ready"),
    ("fetch", "fetch", "tick"),
    ("l1i_prefetch", "hierarchy", "tick_prefetch"),
    ("bpu", "bpu", "generate"),
    ("ucp_walker", "ucp", "tick"),
    ("checker", "checker", "on_cycle"),
]

#: Detail rows timed inside a top-level component (excluded from the
#: sum-to-total identity; pure drill-down).
_DETAIL: list[tuple[str, str, str]] = [
    ("uop_cache_lookup", "uop_cache", "lookup"),
    ("uop_cache_probe", "uop_cache", "probe"),
    ("uop_cache_insert", "uop_cache", "insert"),
    ("ftq_push", "ftq", "push"),
    ("ftq_pop", "ftq", "pop"),
]


class ProfileRow:
    """Accumulated wall time and call count for one wrapped entry point."""

    __slots__ = ("key", "seconds", "calls")

    def __init__(self, key: str) -> None:
        self.key = key
        self.seconds = 0.0
        self.calls = 0

    def as_dict(self) -> dict:
        return {"seconds": self.seconds, "calls": self.calls}

    def __repr__(self) -> str:
        return f"ProfileRow({self.key!r}, {self.seconds:.4f}s, {self.calls} calls)"


class ProfileReport:
    """Wall-time split of one simulation across pipeline components."""

    def __init__(
        self,
        result: SimResult,
        total_seconds: float,
        components: dict[str, ProfileRow],
        details: dict[str, ProfileRow],
        skipped_cycles: int,
        skip_events: int,
    ) -> None:
        self.result = result
        self.total_seconds = total_seconds
        self.components = components
        self.details = details
        self.skipped_cycles = skipped_cycles
        self.skip_events = skip_events

    @property
    def accounted_seconds(self) -> float:
        return sum(row.seconds for row in self.components.values())

    @property
    def other_seconds(self) -> float:
        """Residual main-loop time: clamped so the partition always sums up."""
        return max(0.0, self.total_seconds - self.accounted_seconds)

    @property
    def instructions_per_second(self) -> float:
        if self.total_seconds <= 0.0:
            return 0.0
        return self.result.instructions / self.total_seconds

    @property
    def cycles_per_second(self) -> float:
        if self.total_seconds <= 0.0:
            return 0.0
        return self.result.cycles / self.total_seconds

    def as_dict(self) -> dict:
        return {
            "name": self.result.name,
            "total_seconds": self.total_seconds,
            "instructions": self.result.instructions,
            "cycles": self.result.cycles,
            "instructions_per_second": self.instructions_per_second,
            "cycles_per_second": self.cycles_per_second,
            "skipped_cycles": self.skipped_cycles,
            "skip_events": self.skip_events,
            "components": {key: row.as_dict() for key, row in self.components.items()},
            "other_seconds": self.other_seconds,
            "details": {key: row.as_dict() for key, row in self.details.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [
            f"profile: {self.result.name}",
            f"  wall time        {self.total_seconds:.3f}s",
            f"  instructions     {self.result.instructions}"
            f"  ({self.instructions_per_second:,.0f}/s)",
            f"  cycles           {self.result.cycles}"
            f"  ({self.cycles_per_second:,.0f}/s)",
            f"  skipped cycles   {self.skipped_cycles}"
            f"  ({self.skip_events} jumps)",
            "",
            f"  {'component':<18s} {'seconds':>9s} {'share':>7s} {'calls':>10s}",
        ]
        total = self.total_seconds or 1.0
        rows = sorted(
            self.components.values(), key=lambda row: row.seconds, reverse=True
        )
        for row in rows:
            lines.append(
                f"  {row.key:<18s} {row.seconds:>9.4f} "
                f"{100.0 * row.seconds / total:>6.1f}% {row.calls:>10d}"
            )
        lines.append(
            f"  {'other':<18s} {self.other_seconds:>9.4f} "
            f"{100.0 * self.other_seconds / total:>6.1f}% {'-':>10s}"
        )
        if self.details:
            lines.append("")
            lines.append(f"  {'detail (nested)':<18s} {'seconds':>9s} {'':>7s} {'calls':>10s}")
            for key in sorted(self.details):
                row = self.details[key]
                lines.append(
                    f"  {row.key:<18s} {row.seconds:>9.4f} {'':>7s} {row.calls:>10d}"
                )
        return "\n".join(lines)


def _wrap(owner: object, method: str, row: ProfileRow) -> None:
    """Shadow ``owner.method`` with a timing closure on the instance."""
    unwrapped = getattr(owner, method)

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return unwrapped(*args, **kwargs)
        finally:
            row.seconds += perf_counter() - start
            row.calls += 1

    setattr(owner, method, timed)


def profile_run(
    trace: Trace,
    config: SimConfig,
    name: str | None = None,
    check: bool | None = None,
    idle_skip: bool | None = None,
) -> ProfileReport:
    """Simulate ``trace`` under ``config`` with component timing enabled.

    Semantics are identical to :func:`repro.core.simulate` — the wrappers
    observe, they do not alter — so profiling a run is always safe.
    """
    sim = Simulator(trace, config, name=name, check=check, idle_skip=idle_skip)

    components: dict[str, ProfileRow] = {}
    for key, attribute, method in _TOP_LEVEL:
        owner = sim if attribute is None else getattr(sim, attribute)
        if owner is None:  # e.g. no UCP engine / checker disabled
            continue
        row = components.setdefault(key, ProfileRow(key))
        _wrap(owner, method, row)

    details: dict[str, ProfileRow] = {}
    for key, attribute, method in _DETAIL:
        owner = getattr(sim, attribute)
        if owner is None:
            continue
        row = details.setdefault(key, ProfileRow(key))
        _wrap(owner, method, row)

    start = perf_counter()
    result = sim.run()
    total = perf_counter() - start

    return ProfileReport(
        result=result,
        total_seconds=total,
        components=components,
        details=details,
        skipped_cycles=sim.skipped_cycles,
        skip_events=sim.skip_events,
    )
