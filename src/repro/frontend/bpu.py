"""Branch Prediction Unit: decoupled fetch address generation.

Walks the trace ahead of fetch, predicting every branch with the baseline
predictor stack (TAGE-SC-L + BTB + ITTAGE + RAS, paper Table II) and
emitting :class:`~repro.frontend.ftq.FetchBlock` runs into the FTQ.

Misprediction handling follows the classic decoupled-frontend model: on a
mispredicted branch the BPU *stalls* (wrong-path fetch is not simulated)
until the backend resolves the branch and redirects, after which address
generation resumes on the correct path.  BTB misses on taken branches cost
a decode re-steer bubble and train the BTB.

Because of that stall, TAGE-SC-L and ITTAGE see every branch exactly
once, in trace order, whatever the timing.  Their outcomes therefore come
from the branch stream recorded once per trace
(:mod:`repro.core.kernel.stream`): the BPU reads it with one cursor, which
also names the next branch, so straight-line runs cost one step.  The
BTB and RAS stay live (UCP reads them mid-run).

Every processed conditional branch is reported through ``branch_hook`` —
the attachment point for confidence statistics and for UCP's alternate-
path trigger.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.branch.btb import make_btb
from repro.branch.ras import ReturnAddressStack
from repro.common.stats import StatBlock
from repro.core.configs import SimConfig
from repro.core.kernel.stream import (
    INDIRECT_MISPREDICTED,
    PREDICTED_TAKEN,
    TAGE_H2P,
    UCP_H2P,
    get_stream,
)
from repro.frontend.ftq import FTQ, FetchBlock
from repro.isa.instruction import BranchClass
from repro.isa.trace import Trace

# BranchClass values as plain ints: IntEnum member access/comparison goes
# through ``enum.__getattr__`` — measurably slow at trace scale.
_COND_DIRECT = int(BranchClass.COND_DIRECT)
_UNCOND_DIRECT = int(BranchClass.UNCOND_DIRECT)
_CALL_DIRECT = int(BranchClass.CALL_DIRECT)
_CALL_INDIRECT = int(BranchClass.CALL_INDIRECT)
_INDIRECT = int(BranchClass.INDIRECT)
_RETURN = int(BranchClass.RETURN)


class BranchEvent:
    """What the BPU learned about one conditional branch it processed."""

    __slots__ = (
        "index",
        "pc",
        "predicted_taken",
        "tage_h2p",
        "ucp_h2p",
        "actual_taken",
        "taken_target",
        "mispredicted",
    )

    def __init__(
        self,
        index: int,
        pc: int,
        flags: int,
        actual_taken: int,
        taken_target: int | None,
        mispredicted: bool,
    ) -> None:
        self.index = index
        self.pc = pc
        #: TAGE-SC-L's predicted direction.
        self.predicted_taken = flags & PREDICTED_TAKEN != 0
        #: H2P under Seznec's TAGE-Conf and under the paper's UCP-Conf.
        self.tage_h2p = flags & TAGE_H2P != 0
        self.ucp_h2p = flags & UCP_H2P != 0
        #: The resolved direction, 0 or 1 (a byte of the trace's taken
        #: column).
        self.actual_taken = actual_taken
        #: Taken-direction target if known to the frontend (BTB hit or the
        #: branch is being predicted taken), else None.
        self.taken_target = taken_target
        self.mispredicted = mispredicted


class BPU:
    """Decoupled branch-prediction-directed address generation."""

    def __init__(
        self,
        config: SimConfig,
        trace: Trace,
        stats: StatBlock,
        hierarchy: Any = None,
        prefetcher: Any = None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.stats = stats
        self.hierarchy = hierarchy
        self.prefetcher = prefetcher
        # Hot-path flattening: plain-list trace columns and config scalars
        # (generate() runs every cycle, _build_block() every branch).
        self._pcs, self._classes, self._takens, self._targets, _next = trace.list_columns()
        self._n_instructions = len(trace)
        self._blocks_per_cycle = config.frontend.bpu_blocks_per_cycle
        self._fetch_block_size = config.frontend.fetch_block_size
        stream = get_stream(trace, config)
        #: Trace index of every branch (then a len(trace) sentinel) and
        #: its recorded predictor flags; ``_cursor`` is the next branch.
        self._branch_at = stream.indices
        self._flags = stream.flags
        self._cursor = 0
        self.btb = make_btb(config.btb)
        self.ras = ReturnAddressStack(64)
        #: Next trace index to generate an address for.
        self.index = 0
        #: Set while a mispredicted branch is unresolved.
        self.stalled_on: int | None = None
        #: BPU may not generate before this cycle (BTB-miss bubbles,
        #: redirect latency).
        self.resume_cycle = 0
        #: Called for every conditional branch event (confidence, UCP).
        self.branch_hook: Callable[[BranchEvent, int], None] | None = None
        #: Called with (pc, target) on calls/returns (D-JOLT's context).
        self.context_hook: Callable[[int, int], None] | None = None
        #: Called with (pc,) for every unconditional branch processed (UCP
        #: keeps its Alt-BP/Alt-Ind predicted-path histories in sync).
        self.uncond_hook: Callable[[int], None] | None = None
        #: Called with (pc, target) for every indirect branch (Alt-Ind training).
        self.indirect_hook: Callable[[int, int], None] | None = None
        #: BTB banks touched by demand lookups this cycle (UCP conflicts).
        self.btb_banks_used: set[int] = set()
        #: repro.observe event bus; None keeps every emit a pointer test.
        self.observer = None

    # ------------------------------------------------------------------
    # Per-cycle generation
    # ------------------------------------------------------------------

    def generate(self, ftq: FTQ, cycle: int) -> None:
        """Generate up to ``bpu_blocks_per_cycle`` fetch blocks into the FTQ."""
        self.btb_banks_used.clear()
        if self.stalled_on is not None or cycle < self.resume_cycle:
            return
        for _ in range(self._blocks_per_cycle):
            if self.index >= self._n_instructions:
                return
            if not ftq.has_room(self._fetch_block_size):
                return
            block = self._build_block(cycle)
            self._fdp_access(block, cycle)
            ftq.push(block)
            if block.mispredicted or self.stalled_on is not None or cycle < self.resume_cycle:
                return

    def _build_block(self, cycle: int) -> FetchBlock:
        """Walk the predicted path (== trace path, with stalls at wrong
        predictions) until a block-terminating event.

        The stream cursor names the next branch, so the straight-line run
        before it — or the rest of the block, when the branch lies beyond
        the block's size limit — is consumed in one step.
        """
        start = self.index
        end = start + self._fetch_block_size
        if end > self._n_instructions:
            end = self._n_instructions
        branch_at = self._branch_at
        classes = self._classes

        while True:
            cursor = self._cursor
            i = branch_at[cursor]
            if i >= end:
                self.index = end
                return FetchBlock(start, end - start)
            self.index = i + 1
            self._cursor = cursor + 1
            branch_class = classes[i]
            pc = self._pcs[i]
            target = self._targets[i]

            if branch_class == _COND_DIRECT:
                mispredicted, block_taken = self._handle_conditional(
                    i, pc, self._takens[i], target, self._flags[cursor], cycle
                )
                if mispredicted or block_taken:
                    return FetchBlock(
                        start,
                        i + 1 - start,
                        ends_taken=not mispredicted,
                        mispredicted=mispredicted,
                    )
                continue

            # Unconditional branches: always end the fetch block.
            mispredicted = self._handle_unconditional(
                i, pc, branch_class, target, self._flags[cursor], cycle
            )
            return FetchBlock(
                start, i + 1 - start, ends_taken=not mispredicted, mispredicted=mispredicted
            )

    def _fdp_access(self, block: FetchBlock, cycle: int) -> None:
        """Fetch-directed prefetching: access the L1I for the block's lines
        as soon as the block enters the FTQ, overlapping misses."""
        hierarchy = self.hierarchy
        if hierarchy is None:
            return
        line_size = hierarchy.config.l1i.line_size
        pcs = self._pcs
        line_ready = block.line_ready
        prefetcher = self.prefetcher
        stats_add = self.stats.add
        for index in range(block.start_index, block.end_index):
            pc = pcs[index]
            line = pc // line_size
            if line in line_ready:
                continue
            hit, ready = hierarchy.fetch_line(pc, cycle)
            stats_add("l1i_demand_accesses")
            if not hit:
                stats_add("l1i_demand_misses")
            if prefetcher is not None:
                prefetcher.on_demand_access(line, hit, cycle, hierarchy)
            line_ready[line] = ready

    # ------------------------------------------------------------------
    # Branch-class handlers
    # ------------------------------------------------------------------

    def _handle_conditional(
        self, index: int, pc: int, taken: int, target: int, flags: int, cycle: int
    ) -> tuple[bool, bool]:
        """One conditional with its recorded flags; returns (mispredicted,
        ends_block)."""
        predicted_taken = flags & PREDICTED_TAKEN != 0
        self.stats.add("cond_branches")
        direction_wrong = predicted_taken != taken

        btb_entry = self.btb.lookup(pc)
        self.btb_banks_used.add(self.btb.bank_of(pc, n_banks=2 * self.btb.config.n_banks))
        taken_target: int | None = btb_entry.target if btb_entry else None
        if taken:
            self.btb.update(pc, BranchClass.COND_DIRECT, target)
            taken_target = target if predicted_taken else taken_target

        mispredicted = direction_wrong
        ends_block = False
        if direction_wrong:
            self.stats.add("cond_mispredictions")
            self.stalled_on = index
            if self.observer is not None:
                self.observer.on_mispredict(index, pc, "cond")
        elif taken:
            # Correctly predicted taken: the target must come from the BTB.
            if btb_entry is None:
                self.stats.add("btb_misses_taken")
                self.resume_cycle = cycle + self.config.frontend.btb_miss_penalty
            ends_block = True

        if self.branch_hook is not None:
            self.branch_hook(
                BranchEvent(index, pc, flags, taken, taken_target, mispredicted),
                cycle,
            )
        return mispredicted, ends_block

    def _handle_unconditional(
        self, index: int, pc: int, branch_class: int, target: int, flags: int, cycle: int
    ) -> bool:
        """One jump, call, indirect or return; returns mispredicted."""
        mispredicted = False
        if self.uncond_hook is not None:
            self.uncond_hook(pc)
        if branch_class == _UNCOND_DIRECT:
            self._direct_target(pc, BranchClass.UNCOND_DIRECT, target, cycle)
        elif branch_class == _CALL_DIRECT:
            self._direct_target(pc, BranchClass.CALL_DIRECT, target, cycle)
            self.ras.push(pc + 4)
            if self.context_hook is not None:
                self.context_hook(pc, target)
        elif branch_class == _CALL_INDIRECT:
            mispredicted = self._handle_indirect(index, pc, target, flags)
            self.ras.push(pc + 4)
            if self.context_hook is not None:
                self.context_hook(pc, target)
        elif branch_class == _INDIRECT:
            mispredicted = self._handle_indirect(index, pc, target, flags)
        elif branch_class == _RETURN:
            predicted = self.ras.pop()
            if predicted != target:
                self.stats.add("ras_mispredictions")
                mispredicted = True
                self.stalled_on = index
                if self.observer is not None:
                    self.observer.on_mispredict(index, pc, "return")
            if self.context_hook is not None:
                self.context_hook(pc, target)
        return mispredicted

    def _direct_target(
        self, pc: int, branch_class: BranchClass, target: int, cycle: int
    ) -> None:
        """Jump/call with a static target: BTB provides it or we re-steer."""
        self.btb_banks_used.add(self.btb.bank_of(pc, n_banks=2 * self.btb.config.n_banks))
        if self.btb.lookup(pc) is None:
            self.stats.add("btb_misses_taken")
            self.resume_cycle = cycle + self.config.frontend.btb_miss_penalty
        self.btb.update(pc, branch_class, target)

    def _handle_indirect(self, index: int, pc: int, target: int, flags: int) -> bool:
        self.stats.add("indirect_branches")
        mispredicted = flags & INDIRECT_MISPREDICTED != 0
        if mispredicted:
            self.stats.add("indirect_mispredictions")
            self.stalled_on = index
            if self.observer is not None:
                self.observer.on_mispredict(index, pc, "indirect")
        if self.indirect_hook is not None:
            self.indirect_hook(pc, target)
        branch_class = BranchClass(self._classes[index])
        self.btb.update(pc, branch_class, target)
        return mispredicted

    def check_invariants(self) -> None:
        """Sim-sanitizer hook: the generation cursor, the stalled branch and
        the stream cursor agree.

        Every recorded branch before the stream cursor has been processed
        (lies behind ``index``) and the one at the cursor has not (lies at
        or after it): a block that jumps over a branch, or handles one
        twice, breaks the bracket.
        """
        index = self.index
        assert 0 <= index <= len(self.trace), (
            f"BPU cursor {index} outside trace of {len(self.trace)}"
        )
        if self.stalled_on is not None:
            assert 0 <= self.stalled_on < index, (
                f"BPU stalled on {self.stalled_on}, which is not behind "
                f"the generation cursor {index}"
            )
        cursor = self._cursor
        if cursor:
            assert self._branch_at[cursor - 1] < index, (
                f"stream branch {cursor - 1} at index "
                f"{self._branch_at[cursor - 1]} is not behind the generation "
                f"cursor {index}"
            )
        assert self._branch_at[cursor] >= index, (
            f"stream branch {cursor} at index {self._branch_at[cursor]} lies "
            f"behind the generation cursor {index} but was never processed"
        )

    # ------------------------------------------------------------------
    # Redirect
    # ------------------------------------------------------------------

    def redirect(self, cycle: int) -> None:
        """The stalling branch resolved: resume on the correct path."""
        if self.stalled_on is None:
            raise RuntimeError("redirect without a stalled branch")
        self.stalled_on = None
        self.resume_cycle = cycle + self.config.frontend.redirect_latency
