"""Instruction records and branch classes.

Branch classes follow the taxonomy a BTB/BPU cares about (cf. ChampSim):

* ``NOT_BRANCH`` — straight-line instruction.
* ``COND_DIRECT`` — conditional branch, statically known target; the only
  class with a non-trivial *alternate path* (the opposite direction), and
  the trigger class for UCP.
* ``UNCOND_DIRECT`` — jump, always taken, statically known target.
* ``CALL_DIRECT`` — call, pushes a return address on the RAS.
* ``CALL_INDIRECT`` — call through a register; target predicted by ITTAGE.
* ``INDIRECT`` — unconditional indirect jump (e.g. switch dispatch).
* ``RETURN`` — pops the RAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

#: Fixed instruction size in bytes (ARMv8-like, paper Section III-A).
INSTRUCTION_SIZE = 4


class BranchClass(IntEnum):
    NOT_BRANCH = 0
    COND_DIRECT = 1
    UNCOND_DIRECT = 2
    CALL_DIRECT = 3
    CALL_INDIRECT = 4
    INDIRECT = 5
    RETURN = 6

    @property
    def is_branch(self) -> bool:
        return self is not BranchClass.NOT_BRANCH

    @property
    def is_conditional(self) -> bool:
        return self is BranchClass.COND_DIRECT

    @property
    def is_call(self) -> bool:
        return self in (BranchClass.CALL_DIRECT, BranchClass.CALL_INDIRECT)

    @property
    def is_return(self) -> bool:
        return self is BranchClass.RETURN

    @property
    def is_indirect(self) -> bool:
        """Target comes from a register: needs an indirect target predictor."""
        return self in (BranchClass.CALL_INDIRECT, BranchClass.INDIRECT)

    @property
    def is_unconditional(self) -> bool:
        return self.is_branch and self is not BranchClass.COND_DIRECT

    @property
    def needs_btb(self) -> bool:
        """True when the taken target must be provided by the BTB."""
        return self in (
            BranchClass.COND_DIRECT,
            BranchClass.UNCOND_DIRECT,
            BranchClass.CALL_DIRECT,
        )


@dataclass(frozen=True)
class TraceEntry:
    """One dynamic instruction as recorded in a trace.

    ``target`` is the *actual* control-flow destination when ``taken`` is
    true.  For not-taken conditional branches and non-branches it is 0, as
    in generated, normalized and golden traces; ``next_pc`` derives the
    fall-through PC for those rows.
    """

    pc: int
    branch_class: BranchClass = BranchClass.NOT_BRANCH
    taken: bool = False
    target: int = 0

    def __post_init__(self) -> None:
        if self.pc % INSTRUCTION_SIZE != 0:
            raise ValueError(f"PC {self.pc:#x} is not {INSTRUCTION_SIZE}-byte aligned")
        if self.branch_class.is_unconditional and not self.taken:
            raise ValueError(f"unconditional {self.branch_class.name} must be taken")
        if not self.branch_class.is_branch and self.taken:
            raise ValueError("non-branch cannot be taken")

    @property
    def fallthrough(self) -> int:
        return self.pc + INSTRUCTION_SIZE

    @property
    def next_pc(self) -> int:
        """The architecturally correct next PC."""
        return self.target if self.taken else self.fallthrough
