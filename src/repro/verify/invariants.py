"""Runtime invariant checking over a live :class:`~repro.core.pipeline.Simulator`.

The checker walks a registry of named invariants once per cycle (or per
``stride`` cycles).  Each invariant is a small function over the
simulator object graph; structural checks live as ``check_invariants``
methods on the structures themselves (FTQ, fetch engine, µ-op cache,
caches, RAS, backend) so they stay next to the state they validate, and
the functions here mostly dispatch to them plus a few cross-structure
conservation laws only the simulator can see.

Violations raise :class:`SimCheckError` — an ``AssertionError`` subclass
carrying the invariant name and the cycle, so both pytest and the fault
harness can attribute a detection precisely.

Adding an invariant::

    from repro.verify.invariants import register_invariant

    @register_invariant("my-check")
    def _my_check(checker, cycle):
        assert something_about(checker.sim), "what went wrong"

``every=N`` runs it on every N-th checked cycle (for expensive deep
scans), ``stride_one_only=True`` restricts it to per-cycle checking
(for checks comparing adjacent-cycle deltas), ``on_finish=True``
defers it to end-of-run, and ``on_walk_start=True`` runs it at each UCP
walk start instead of per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import length_hint
from typing import Callable


class SimCheckError(AssertionError):
    """One invariant or oracle violation, attributed to a cycle."""

    def __init__(self, invariant: str, sim_name: str, cycle: int, detail: str) -> None:
        self.invariant = invariant
        self.sim_name = sim_name
        self.cycle = cycle
        self.detail = detail
        super().__init__(f"[{invariant}] {sim_name} @ cycle {cycle}: {detail}")


@dataclass(frozen=True)
class Invariant:
    name: str
    check: Callable[["SimChecker", int], None]
    every: int = 1
    stride_one_only: bool = False
    on_finish: bool = False
    on_walk_start: bool = False


#: Name -> Invariant.  Ordered; earlier entries report first on a cycle
#: with multiple simultaneous violations.
INVARIANTS: dict[str, Invariant] = {}


def register_invariant(
    name: str,
    *,
    every: int = 1,
    stride_one_only: bool = False,
    on_finish: bool = False,
    on_walk_start: bool = False,
):
    """Register ``fn(checker, cycle)`` under ``name`` (decorator)."""

    def decorator(fn: Callable[["SimChecker", int], None]):
        if name in INVARIANTS:
            raise ValueError(f"invariant {name!r} already registered")
        INVARIANTS[name] = Invariant(
            name,
            fn,
            every=every,
            stride_one_only=stride_one_only,
            on_finish=on_finish,
            on_walk_start=on_walk_start,
        )
        return fn

    return decorator


class SimChecker:
    """Attached to one Simulator; validates it as it runs.

    Construction installs the shadow oracles (reference L1I contents,
    reference RAS) on the live structures; :meth:`on_cycle` then runs the
    per-cycle invariants and :meth:`on_finish` the end-of-run ones.
    """

    def __init__(self, sim, stride: int = 1) -> None:
        self.sim = sim
        self.stride = max(1, stride)
        self.cycles_checked = 0
        self.checks_run = 0
        self._prev_committed = 0
        self._prev_sources: tuple[int, int, int] | None = None
        #: Built at the first walk start (see ``ucp-alt-history``).
        self._alt_states = None
        self._attach_shadows()

    # ------------------------------------------------------------------
    # Shadow oracle installation
    # ------------------------------------------------------------------

    def _attach_shadows(self) -> None:
        from repro.verify.oracles import RefRAS, RefSetAssocCache

        sim = self.sim
        l1i = sim.hierarchy.l1i
        l1i.shadow = RefSetAssocCache(l1i.config.n_sets, l1i.config.ways)
        sim.bpu.ras.shadow = RefRAS(sim.bpu.ras.capacity)
        if sim.ucp is not None:
            sim.ucp.alt_ras.shadow = RefRAS(sim.ucp.alt_ras.capacity)
            sim.ucp.checker = self

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def on_cycle(self, cycle: int) -> None:
        if cycle % self.stride:
            return
        self.cycles_checked += 1
        for invariant in INVARIANTS.values():
            if invariant.on_finish or invariant.on_walk_start:
                continue
            if invariant.stride_one_only and self.stride != 1:
                continue
            if invariant.every > 1 and self.cycles_checked % invariant.every:
                continue
            self._run(invariant, cycle)

    def on_finish(self, cycle: int) -> None:
        for invariant in INVARIANTS.values():
            if invariant.on_finish:
                self._run(invariant, cycle)

    def on_walk_start(self, cycle: int) -> None:
        """UCP has just started a walk (from a copy of its Alt-BP
        register)."""
        for invariant in INVARIANTS.values():
            if invariant.on_walk_start:
                self._run(invariant, cycle)

    def _run(self, invariant: Invariant, cycle: int) -> None:
        try:
            invariant.check(self, cycle)
        except SimCheckError:
            raise
        except AssertionError as error:
            raise SimCheckError(
                invariant.name, self.sim.name, cycle, str(error) or "assertion failed"
            ) from None
        self.checks_run += 1


# ----------------------------------------------------------------------
# Built-in invariant catalog (see docs/VALIDATION.md)
# ----------------------------------------------------------------------


@register_invariant("ftq-order")
def _ftq_order(checker: SimChecker, cycle: int) -> None:
    """FTQ FIFO accounting, trace-order contiguity, stall-block position."""
    checker.sim.ftq.check_invariants()


@register_invariant("fetch-queue")
def _fetch_queue(checker: SimChecker, cycle: int) -> None:
    """Fetch mode exclusivity; µ-op queue bounds and index sequencing."""
    checker.sim.fetch.check_invariants()


@register_invariant("uop-cache-bounds")
def _uop_cache_bounds(checker: SimChecker, cycle: int) -> None:
    """µ-op cache per-set occupancy never exceeds the configured ways."""
    cache = checker.sim.uop_cache
    if cache is None:
        return
    ways = cache.config.ways
    for index, entries in enumerate(cache._sets):
        assert len(entries) <= ways, (
            f"uop cache set {index} holds {len(entries)} entries > {ways} ways"
        )


@register_invariant("uop-cache-entries", every=64)
def _uop_cache_entries(checker: SimChecker, cycle: int) -> None:
    """Deep scan: entry shape, set mapping, region-boundary rules."""
    cache = checker.sim.uop_cache
    if cache is not None:
        cache.check_invariants()


@register_invariant("l1i-shadow")
def _l1i_shadow(checker: SimChecker, cycle: int) -> None:
    """L1I geometry bounds + content/classification agreement with the
    reference functional cache oracle."""
    hierarchy = checker.sim.hierarchy
    hierarchy.l1i.check_invariants()
    assert (
        hierarchy.prefetch_queue_occupancy <= hierarchy.config.prefetch_queue_entries
    ), (
        f"prefetch queue holds {hierarchy.prefetch_queue_occupancy} > "
        f"{hierarchy.config.prefetch_queue_entries} entries"
    )


@register_invariant("bpu-ras")
def _bpu_ras(checker: SimChecker, cycle: int) -> None:
    """RAS depth bounds + reference-RAS agreement."""
    checker.sim.bpu.ras.check_invariants()


@register_invariant("bpu-stream")
def _bpu_stream(checker: SimChecker, cycle: int) -> None:
    """BPU cursor bounds; the stream cursor brackets the generation cursor
    (every recorded branch behind it processed, none ahead of it)."""
    checker.sim.bpu.check_invariants()


@register_invariant("commit-conservation")
def _commit_conservation(checker: SimChecker, cycle: int) -> None:
    """The ROB window [committed, dispatched) is within its capacity and
    nothing behind the commit cursor retired before it completed."""
    checker.sim.backend.check_invariants()


@register_invariant("commit-monotonic")
def _commit_monotonic(checker: SimChecker, cycle: int) -> None:
    """The commit counter never decreases and never outruns commit width."""
    backend = checker.sim.backend
    committed = backend.committed
    previous = checker._prev_committed
    assert committed >= previous, (
        f"commit counter went backwards: {previous} -> {committed}"
    )
    limit = backend.config.commit_width * checker.stride
    assert committed - previous <= limit, (
        f"committed {committed - previous} µ-ops in {checker.stride} "
        f"cycle(s), exceeding commit width {backend.config.commit_width}"
    )
    checker._prev_committed = committed


@register_invariant("queue-dispatch-seam")
def _queue_dispatch_seam(checker: SimChecker, cycle: int) -> None:
    """The oldest queued µ-op is exactly the next one to dispatch."""
    queue = checker.sim.fetch.uop_queue
    if queue:
        dispatched = checker.sim.backend.dispatched
        assert queue[0][0] == dispatched, (
            f"µ-op queue head index {queue[0][0]} != dispatch cursor "
            f"{dispatched} — µ-ops lost or duplicated at the seam"
        )


@register_invariant("source-exclusive", stride_one_only=True)
def _source_exclusive(checker: SimChecker, cycle: int) -> None:
    """Build/stream/MRC mode exclusivity: µ-ops come from at most one
    supply path per cycle."""
    stats = checker.sim.stats
    sources = (stats["uops_uop"], stats["uops_decode"], stats["uops_mrc"])
    previous = checker._prev_sources
    if previous is not None:
        grew = sum(1 for now, before in zip(sources, previous) if now > before)
        assert grew <= 1, (
            f"multiple µ-op sources delivered in one cycle: "
            f"uop/decode/mrc went {previous} -> {sources}"
        )
    checker._prev_sources = sources


@register_invariant("ucp-queues")
def _ucp_queues(checker: SimChecker, cycle: int) -> None:
    """UCP Alt-FTQ / alternate decode queue bounds; Alt-RAS agreement."""
    ucp = checker.sim.ucp
    if ucp is None:
        return
    assert len(ucp.alt_ftq) <= ucp.ucp.alt_ftq_entries, (
        f"Alt-FTQ holds {len(ucp.alt_ftq)} > {ucp.ucp.alt_ftq_entries} entries"
    )
    assert len(ucp.decode_queue) <= ucp.ucp.alt_decode_entries, (
        f"alt decode queue holds {len(ucp.decode_queue)} > "
        f"{ucp.ucp.alt_decode_entries} entries"
    )
    ucp.alt_ras.check_invariants()


@register_invariant("ucp-alt-history", on_walk_start=True)
def _ucp_alt_history(checker: SimChecker, cycle: int) -> None:
    """At a walk start, the Alt-BP row cursor has read exactly the rows
    of the conditionals up to the trigger, and the predicted-path register
    the walk copied is the numpy-built row state after the trigger's own
    push (folded lanes, raw bits and path)."""
    from repro.common.history import history_rows
    from repro.core.kernel.stream import branch_pushes
    from repro.isa.instruction import BranchClass

    sim = checker.sim
    ucp = sim.ucp
    register = ucp.alt_bp.histories
    direction = register.direction
    if checker._alt_states is None:
        pcs, bits, classes = branch_pushes(sim.trace)
        lanes, path = history_rows(pcs, bits, direction.geometry, register.path.bits)
        conds_through = (classes == BranchClass.COND_DIRECT).cumsum()
        branch_at = sim.trace.branch_classes.nonzero()[0]
        checker._alt_states = (branch_at, bits, lanes, path, conds_through)
    branch_at, bits, lanes, path, conds_through = checker._alt_states
    trigger = ucp.trigger_index
    ordinal = int(branch_at.searchsorted(trigger))
    assert branch_at[ordinal] == trigger, f"walk trigger {trigger} is not a branch"
    rows_read = int(conds_through[-1]) - length_hint(ucp.cond_rows)
    assert rows_read == conds_through[ordinal], (
        f"Alt-BP row cursor has read {rows_read} rows, but the walk trigger "
        f"(trace index {trigger}) is conditional number {conds_through[ordinal]}"
    )
    # The state after the trigger's own push.
    state = ordinal + 1
    newest = bits[max(0, state - direction.capacity) : state].tolist()
    expected = (
        int.from_bytes(lanes[:, state].tobytes(), "little"),
        int("".join(map(str, newest)) or "0", 2),
        int(path[state]),
    )
    live = (direction.packed, direction.value(direction.capacity), register.path.value)
    differing = [
        part
        for part, ours, theirs in zip(("folded lanes", "raw bits", "path"), live, expected)
        if ours != theirs
    ]
    assert not differing, (
        f"Alt-BP predicted-path register at the walk start for trace index "
        f"{trigger} differs from the row state in {', '.join(differing)}"
    )


@register_invariant("final-conservation", on_finish=True)
def _final_conservation(checker: SimChecker, cycle: int) -> None:
    """End of run: every trace instruction was delivered through exactly
    one supply path, dispatched once, and committed once."""
    sim = checker.sim
    n = len(sim.trace)
    assert sim.backend.committed == n, (
        f"run finished with {sim.backend.committed} committed != {n}"
    )
    assert sim.backend.rob_occupancy == 0, (
        f"run finished with {sim.backend.rob_occupancy} µ-ops left in the ROB"
    )
    assert not sim.fetch.uop_queue, (
        f"run finished with {len(sim.fetch.uop_queue)} µ-ops left queued"
    )
    stats = sim.stats
    delivered = stats["uops_uop"] + stats["uops_decode"] + stats["uops_mrc"]
    assert delivered == n, (
        f"{delivered} µ-ops delivered across all supply paths != {n} "
        f"trace instructions — conservation across flushes broken"
    )
    if sim.uop_cache is not None:
        sim.uop_cache.check_invariants()
    sim.hierarchy.l2.check_invariants()
    sim.hierarchy.llc.check_invariants()
