"""Control-flow-graph program model and the trace walker.

A :class:`Program` is a list of :class:`Function` objects, each a list of
:class:`BasicBlock` objects laid out contiguously in a synthetic address
space.  Walking the program executes it: conditional outcomes come from the
blocks' :class:`~repro.workloads.behaviors.BranchBehavior` objects, calls
push a software return stack, and the emitted instruction stream is a
control-flow-consistent dynamic trace.

Structural rules that guarantee bounded execution:

* the call graph is a DAG (functions may only call higher-indexed ones);
* every non-entry function's final block returns; the entry function's
  final block jumps back to its first block, so the walk never ends;
* conditional back edges must carry behaviours that eventually fall out
  (loop trips, or coin flips with bounded taken probability) — enforced by
  the generator, checked statistically by tests.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum, auto

import numpy as np

from repro.isa.instruction import INSTRUCTION_SIZE, BranchClass
from repro.isa.trace import Trace
from repro.workloads.behaviors import BranchBehavior


class TerminatorKind(Enum):
    FALLTHROUGH = auto()
    COND = auto()
    JUMP = auto()
    CALL = auto()
    CALL_INDIRECT = auto()
    INDIRECT = auto()
    RETURN = auto()


@dataclass
class BasicBlock:
    """One basic block: ``size`` instructions, the last being the terminator.

    Successor fields are interpreted per :class:`TerminatorKind`:

    * ``COND`` — taken goes to block ``taken_block`` (same function),
      not-taken falls through to the next block; ``behavior`` decides.
    * ``JUMP`` — always goes to ``taken_block``.
    * ``CALL`` — calls function ``callees[0]``; resumes at the next block.
    * ``CALL_INDIRECT`` — calls one of ``callees`` per ``callee_weights``.
    * ``INDIRECT`` — jumps to one of ``indirect_targets`` (same function)
      per ``indirect_weights``.
    * ``RETURN`` — pops the call stack.
    * ``FALLTHROUGH`` — no branch; execution merges into the next block.
    """

    size: int
    terminator: TerminatorKind = TerminatorKind.FALLTHROUGH
    taken_block: int | None = None
    behavior: BranchBehavior | None = None
    callees: list[int] = field(default_factory=list)
    callee_weights: list[float] = field(default_factory=list)
    indirect_targets: list[int] = field(default_factory=list)
    indirect_weights: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("a basic block holds at least one instruction")
        if self.terminator is TerminatorKind.COND:
            if self.taken_block is None or self.behavior is None:
                raise ValueError("COND blocks need taken_block and behavior")
        if self.terminator is TerminatorKind.JUMP and self.taken_block is None:
            raise ValueError("JUMP blocks need taken_block")
        if self.terminator in (TerminatorKind.CALL, TerminatorKind.CALL_INDIRECT):
            if not self.callees:
                raise ValueError("CALL blocks need at least one callee")
        if self.terminator is TerminatorKind.INDIRECT and not self.indirect_targets:
            raise ValueError("INDIRECT blocks need targets")


@dataclass
class Function:
    """A list of basic blocks, laid out contiguously from ``base_pc``."""

    blocks: list[BasicBlock]
    base_pc: int = 0

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("function needs at least one block")
        self._starts: list[int] = []
        pc = self.base_pc
        for block in self.blocks:
            self._starts.append(pc)
            pc += block.size * INSTRUCTION_SIZE
        self.end_pc = pc

    def block_start(self, index: int) -> int:
        return self._starts[index]

    @property
    def size_bytes(self) -> int:
        return self.end_pc - self.base_pc


_TERMINATOR_TO_CLASS = {
    TerminatorKind.COND: BranchClass.COND_DIRECT,
    TerminatorKind.JUMP: BranchClass.UNCOND_DIRECT,
    TerminatorKind.CALL: BranchClass.CALL_DIRECT,
    TerminatorKind.CALL_INDIRECT: BranchClass.CALL_INDIRECT,
    TerminatorKind.INDIRECT: BranchClass.INDIRECT,
    TerminatorKind.RETURN: BranchClass.RETURN,
}


class Program:
    """A whole synthetic program: functions placed in one address space."""

    def __init__(self, functions: list[Function], name: str = "program") -> None:
        if not functions:
            raise ValueError("program needs at least one function")
        self.functions = functions
        self.name = name
        self.validate()

    def validate(self) -> None:
        for func_index, function in enumerate(self.functions):
            n_blocks = len(function.blocks)
            for block_index, block in enumerate(function.blocks):
                for successor in self._local_successors(block):
                    if not 0 <= successor < n_blocks:
                        raise ValueError(
                            f"function {func_index} block {block_index}: "
                            f"successor {successor} out of range"
                        )
                for callee in block.callees:
                    if not 0 <= callee < len(self.functions):
                        raise ValueError(f"unknown callee function {callee}")
                    if callee <= func_index:
                        raise ValueError(
                            f"function {func_index} calls {callee}: the call "
                            "graph must be a DAG (callee index must be higher)"
                        )
                needs_next = block.terminator in (
                    TerminatorKind.FALLTHROUGH,
                    TerminatorKind.COND,
                    TerminatorKind.CALL,
                    TerminatorKind.CALL_INDIRECT,
                )
                if needs_next and block_index == n_blocks - 1:
                    raise ValueError(
                        f"function {func_index}: final block cannot fall through"
                    )
            last = function.blocks[-1].terminator
            if func_index == 0:
                if last not in (TerminatorKind.JUMP, TerminatorKind.INDIRECT):
                    raise ValueError("entry function must loop back via a jump")
            elif last is not TerminatorKind.RETURN:
                raise ValueError(f"function {func_index} must end with RETURN")

    @staticmethod
    def _local_successors(block: BasicBlock) -> list[int]:
        successors = []
        if block.taken_block is not None:
            successors.append(block.taken_block)
        successors.extend(block.indirect_targets)
        return successors

    @property
    def static_instructions(self) -> int:
        return sum(
            block.size for function in self.functions for block in function.blocks
        )

    @property
    def code_bytes(self) -> int:
        return self.static_instructions * INSTRUCTION_SIZE

    def reset_behaviors(self) -> None:
        for function in self.functions:
            for block in function.blocks:
                if block.behavior is not None:
                    block.behavior.reset()

    def walk(
        self, n_instructions: int, seed: int = 0, indirect_repeat: float = 0.0
    ) -> Trace:
        """Execute the program and emit a trace of ``n_instructions``.

        ``indirect_repeat`` is the probability that an indirect call/jump
        repeats its previous dynamic target — the burstiness that makes
        real dispatch code predictable by an indirect target predictor.
        """
        rng = random.Random(seed)
        self.reset_behaviors()
        # Each executed block is one run of consecutive PCs: its first PC
        # and length.  Per branch (a run's last row): its row, class,
        # direction and target.  Every other row is a straight-line
        # instruction (class 0, not taken, target 0).
        run_starts: list[int] = []
        run_lengths: list[int] = []
        rows: list[int] = []
        classes: list[int] = []
        takens: list[bool] = []
        targets: list[int] = []
        call_stack: list[tuple[int, int]] = []
        func_index, block_index = 0, 0
        global_history = 0
        last_indirect_choice: dict[tuple[int, int], int] = {}
        emitted = 0

        while emitted < n_instructions:
            function = self.functions[func_index]
            block = function.blocks[block_index]
            run_starts.append(function.block_start(block_index))
            run_lengths.append(block.size)
            emitted += block.size
            kind = block.terminator
            if kind is TerminatorKind.FALLTHROUGH:
                block_index += 1
                continue

            rows.append(emitted - 1)
            classes.append(_TERMINATOR_TO_CLASS[kind])
            taken = True
            if kind is TerminatorKind.COND:
                taken = block.behavior.next_outcome(rng, global_history)
                global_history = ((global_history << 1) | int(taken)) & (1 << 64) - 1
                target = function.block_start(block.taken_block) if taken else 0
                block_index = block.taken_block if taken else block_index + 1
            elif kind is TerminatorKind.JUMP:
                target = function.block_start(block.taken_block)
                block_index = block.taken_block
            elif kind in (TerminatorKind.CALL, TerminatorKind.CALL_INDIRECT):
                if kind is TerminatorKind.CALL:
                    callee = block.callees[0]
                else:
                    site = (func_index, block_index)
                    previous = last_indirect_choice.get(site)
                    if previous is not None and rng.random() < indirect_repeat:
                        callee = previous
                    else:
                        callee = rng.choices(block.callees, block.callee_weights or None)[0]
                    last_indirect_choice[site] = callee
                target = self.functions[callee].block_start(0)
                call_stack.append((func_index, block_index + 1))
                func_index, block_index = callee, 0
            elif kind is TerminatorKind.INDIRECT:
                site = (func_index, block_index)
                previous = last_indirect_choice.get(site)
                if previous is not None and rng.random() < indirect_repeat:
                    chosen = previous
                else:
                    chosen = rng.choices(
                        block.indirect_targets, block.indirect_weights or None
                    )[0]
                last_indirect_choice[site] = chosen
                target = function.block_start(chosen)
                block_index = chosen
            elif kind is TerminatorKind.RETURN:
                if not call_stack:
                    raise RuntimeError("return with an empty call stack")
                func_index, block_index = call_stack.pop()
                target = self.functions[func_index].block_start(block_index)
            else:  # pragma: no cover - exhaustive over TerminatorKind
                raise AssertionError(f"unhandled terminator {kind}")
            takens.append(taken)
            targets.append(target)

        # Row i of run k is run_starts[k] + 4 * (i - first row of run k).
        lengths = np.array(run_lengths, dtype=np.int64)
        first_rows = np.cumsum(lengths) - lengths
        pcs = np.repeat(np.array(run_starts, dtype=np.int64) - INSTRUCTION_SIZE * first_rows, lengths)
        pcs += INSTRUCTION_SIZE * np.arange(emitted)
        branches = rows[: bisect_left(rows, n_instructions)]
        columns = [np.zeros(n_instructions, dtype) for dtype in (np.uint8, bool, np.int64)]
        for column, values in zip(columns, (classes, takens, targets)):
            column[branches] = values[: len(branches)]
        return Trace(self.name, pcs[:n_instructions], *columns)

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, {len(self.functions)} functions, "
            f"{self.static_instructions} static instructions)"
        )
