"""Abstract occupancy-limited backend.

The paper's phenomena live in the frontend; the backend's job here is to
(a) consume µ-ops at a realistic, dependency-limited rate, (b) resolve
branches after a realistic depth, and (c) fill/drain the ROB so that
frontend supply gaps show up as commit stalls.  Three mechanisms provide
that:

* per-instruction execution latency by class (simple / load-like / branch),
  with load-likeness decided by a PC hash;
* a synthetic dependency: each instruction depends on an instruction a
  hashed distance (1..dep_window) earlier in program order and cannot
  complete before it — this bounds sustainable ILP the way real dependency
  chains do, so a wider µ-op supply only helps when the pipeline is
  refilling (exactly the paper's observation in Section III-C);
* in-order commit with a bounded ROB.

Branches resolve at their completion time, which the simulator uses to
schedule misprediction redirects.
"""

from __future__ import annotations

from array import array
from collections import deque

from repro.common.stats import StatBlock
from repro.core.configs import BackendConfig
from repro.core.kernel.columns import backend_columns
from repro.isa.trace import Trace


class Backend:
    """Dispatch → (dependency-limited) execute → in-order commit.

    µ-ops dispatch and commit in trace order, so the ROB is the window
    ``[committed, dispatched)`` of trace positions over one completion
    buffer: there is no per-entry ROB storage.
    """

    def __init__(self, config: BackendConfig, trace: Trace, stats: StatBlock) -> None:
        self.config = config
        self.trace = trace
        self.stats = stats
        # Hot-path flattening: dispatch_ready() runs every dispatching
        # cycle, so the per-instruction latency and dependency distance
        # come from the trace's precomputed PC-hash columns, and the
        # config scalars are bound to the instance instead of being
        # chased through two attribute hops per µ-op.
        columns = backend_columns(trace, config)
        self._latency = columns.latency
        self._distance = columns.distance
        _pcs, self._classes, _takens, _targets, _next_pcs = trace.list_columns()
        self._branch_latency = config.branch_latency
        self._issue_width = config.issue_width
        self._commit_width = config.commit_width
        self._rob_entries = config.rob_entries
        #: Completion cycle by trace index, 8 bytes per instruction and no
        #: int object per µ-op; only the first ``_dispatched`` entries are
        #: meaningful.  Kept for the whole run: it doubles as the
        #: dependency-lookup table, and other components read it through
        #: :meth:`completion_of`.
        self._completion = array("q", [0]) * len(trace)
        self._n_instructions = len(trace)
        #: The ROB is ``[committed, _dispatched)``: trace positions
        #: dispatched and not yet retired.
        self._dispatched = 0
        self.committed = 0
        #: Cycle of the last :meth:`commit` call (sanitizer bookkeeping).
        self._commit_cycle = -1
        #: Completions booked per cycle (virtual execution ports).  Only
        #: cycles after the current one are ever booked, so a µ-op's slot
        #: is dropped when it retires: the map holds at most one slot per
        #: ROB entry instead of one per simulated cycle.
        self._exec_busy: dict[int, int] = {}
        #: Optional callback invoked with each retired trace index, in
        #: commit order — the differential harness's commit-stream tap.
        #: Set it before the run: while it is armed, the trace index the
        #: frontend delivered into each ROB slot is kept in
        #: ``_slot_indices`` and reported at retirement, so a µ-op
        #: delivered twice shows in the retired stream.
        self.commit_hook = None
        self._slot_indices: deque[int] = deque()
        #: repro.observe event bus; the observer reads ROB state through
        #: the public accessors below and emits rob_full/rob_drain
        #: transition events on the backend timeline lane.
        self.observer = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    @property
    def rob_full(self) -> bool:
        """The frontend-visible backpressure condition (stall taxonomy)."""
        return self._dispatched - self.committed >= self._rob_entries

    def dispatch_ready(self, queue: deque[tuple[int, int]], cycle: int, width: int) -> int:
        """Dispatch µ-ops from the head of ``queue`` (``(index, ready)``
        pairs in trace order) while they are ready by ``cycle``, at most
        ``width`` and while the ROB has room; returns how many."""
        # Room in the ROB, and never past the trace's last position.
        room = self._rob_entries - self._dispatched + self.committed
        if room < width:
            width = room
        room = self._n_instructions - self._dispatched
        if room < width:
            width = room
        tap = self._slot_indices.append if self.commit_hook is not None else None
        completion = self._completion
        classes = self._classes
        latency = self._latency
        distance = self._distance
        busy = self._exec_busy
        booked = busy.get
        issue_width = self._issue_width
        # Branches resolve a fixed depth after dispatch, independent of
        # the synthetic dependency chain: real OOO cores prioritise
        # branch resolution (the compare feeding a branch is almost
        # always ready), so the misprediction penalty must not grow with
        # the distance to the previous misprediction.  They also bypass
        # the issue-width booking: they execute on a dedicated branch
        # port, so resolution is not queued behind the ALU backlog.
        next_cycle = cycle + 1
        branch_done = next_cycle + self._branch_latency
        dispatched = 0
        while dispatched < width and queue and queue[0][1] <= cycle:
            index = queue.popleft()[0]
            if tap is not None:
                tap(index)
            if classes[index]:  # any class other than NOT_BRANCH (0)
                completion[index] = branch_done
            else:
                # Latency class and dependency distance come from a PC
                # hash (repro.core.kernel.columns), precomputed per trace.
                earliest = next_cycle
                producer = index - distance[index]
                if producer >= 0:
                    dep_done = completion[producer]
                    if dep_done > earliest:
                        earliest = dep_done
                # Book an execution-completion slot at or after the
                # earliest cycle.
                done = earliest + latency[index]
                slots = booked(done, 0)
                while slots >= issue_width:
                    done += 1
                    slots = booked(done, 0)
                busy[done] = slots + 1
                completion[index] = done
            dispatched += 1
        self._dispatched += dispatched
        return dispatched

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(self, cycle: int) -> int:
        """Retire up to ``commit_width`` completed µ-ops in order."""
        self._commit_cycle = cycle
        start = committed = self.committed
        end = committed + self._commit_width
        if end > self._dispatched:
            end = self._dispatched
        completion = self._completion
        hook = self.commit_hook
        release = self._exec_busy.pop
        while committed < end:
            done = completion[committed]
            if done > cycle:
                break
            # Its completion cycle is past: no later µ-op can book it.
            release(done, None)
            if hook is not None:
                hook(self._slot_indices.popleft())
            committed += 1
        self.committed = committed
        return committed - start

    @property
    def rob_occupancy(self) -> int:
        return self._dispatched - self.committed

    @property
    def dispatched(self) -> int:
        """Total µ-ops dispatched so far (each trace index exactly once)."""
        return self._dispatched

    def check_invariants(self) -> None:
        """Sim-sanitizer hook: ROB bounds and in-order retirement.

        There is no wrong-path execution and the ROB is never flushed, so
        the ROB is exactly the window ``[committed, dispatched)``: it
        holds between 0 and ``rob_entries`` µ-ops, and the µ-op just
        behind the commit cursor had completed by the cycle of the last
        commit.  A commit counter that runs ahead of the µ-ops actually
        retired breaks one of these, even in a cycle that retires fewer
        than ``commit_width``.
        """
        occupancy = self._dispatched - self.committed
        assert 0 <= occupancy <= self._rob_entries, (
            f"ROB window [committed {self.committed}, dispatched "
            f"{self._dispatched}) holds {occupancy} µ-ops, outside "
            f"[0, {self._rob_entries}]"
        )
        if self.committed:
            last = self.committed - 1
            done = self._completion[last]
            assert done <= self._commit_cycle, (
                f"µ-op {last} retired at cycle {self._commit_cycle} but "
                f"completes at {done}"
            )

    def completion_of(self, index: int) -> int | None:
        """Completion cycle of a dispatched instruction, else None."""
        if 0 <= index < self._dispatched:
            return self._completion[index]
        return None
