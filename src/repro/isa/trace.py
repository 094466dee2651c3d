"""Columnar dynamic-instruction traces.

A :class:`Trace` stores the dynamic instruction stream in parallel numpy
arrays (PC, branch class, taken, target).  The cycle simulator indexes these
arrays directly — far cheaper than a list of objects at the tens-of-
thousands-of-instructions scale we simulate — while tests and text
readers can still build one from
:class:`~repro.isa.instruction.TraceEntry` records.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.isa.instruction import INSTRUCTION_SIZE, BranchClass, TraceEntry


@dataclass(frozen=True)
class TraceStats:
    """Static/dynamic footprint summary of a trace."""

    instructions: int
    static_instructions: int
    static_code_bytes: int
    cache_lines_touched: int
    conditional_branches: int
    taken_conditionals: int
    branches: int

    @property
    def conditional_taken_rate(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.taken_conditionals / self.conditional_branches


#: One :class:`TraceEntry` as a row: :meth:`Trace.from_entries` reads
#: each entry once into a record array, then takes its fields as columns.
_ENTRY_DTYPE = np.dtype(
    [("pc", np.int64), ("branch_class", np.uint8), ("taken", bool), ("target", np.int64)]
)


class Trace:
    """An immutable dynamic instruction trace with columnar storage."""

    def __init__(
        self,
        name: str,
        pcs: npt.NDArray[Any],
        branch_classes: npt.NDArray[Any],
        takens: npt.NDArray[Any],
        targets: npt.NDArray[Any],
    ) -> None:
        length = len(pcs)
        if not (len(branch_classes) == len(takens) == len(targets) == length):
            raise ValueError("trace columns have inconsistent lengths")
        self.name = name
        self.pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        self.branch_classes = np.ascontiguousarray(branch_classes, dtype=np.uint8)
        self.takens = np.ascontiguousarray(takens, dtype=bool)
        self.targets = np.ascontiguousarray(targets, dtype=np.int64)
        # next_pc is precomputed once: it is consulted on every simulated
        # instruction to detect mispredictions.
        self.next_pcs = np.where(
            self.takens, self.targets, self.pcs + INSTRUCTION_SIZE
        ).astype(np.int64)
        self._list_columns: (
            tuple[list[int], list[int], list[bool], list[int], list[int]] | None
        ) = None

    def list_columns(
        self,
    ) -> tuple[list[int], list[int], list[bool], list[int], list[int]]:
        """Plain-Python list views ``(pcs, branch_classes, takens, targets,
        next_pcs)`` of the columnar arrays, materialised once per trace.

        Per-element numpy indexing returns numpy scalars whose creation and
        ``int()`` conversion dominate the simulator's per-instruction cost;
        the hot components index these lists instead.
        """
        columns = self._list_columns
        if columns is None:
            columns = self._list_columns = (
                self.pcs.tolist(),
                self.branch_classes.tolist(),
                self.takens.tolist(),
                self.targets.tolist(),
                self.next_pcs.tolist(),
            )
        return columns

    @classmethod
    def from_entries(cls, name: str, entries: Iterable[TraceEntry]) -> "Trace":
        rows = np.fromiter(
            ((entry.pc, entry.branch_class, entry.taken, entry.target) for entry in entries),
            dtype=_ENTRY_DTYPE,
        )
        return cls(name, rows["pc"], rows["branch_class"], rows["taken"], rows["target"])

    def __len__(self) -> int:
        return len(self.pcs)

    def __getitem__(self, index: int) -> TraceEntry:
        return TraceEntry(
            pc=int(self.pcs[index]),
            branch_class=BranchClass(int(self.branch_classes[index])),
            taken=bool(self.takens[index]),
            target=int(self.targets[index]),
        )

    def __iter__(self) -> Iterator[TraceEntry]:
        for index in range(len(self)):
            yield self[index]

    def stats(self, line_size: int = 64) -> TraceStats:
        """Compute the footprint summary the paper's Section III reports."""
        unique_pcs = np.unique(self.pcs)
        conditional = self.branch_classes == BranchClass.COND_DIRECT
        branches = self.branch_classes != BranchClass.NOT_BRANCH
        return TraceStats(
            instructions=len(self),
            static_instructions=len(unique_pcs),
            static_code_bytes=len(unique_pcs) * INSTRUCTION_SIZE,
            cache_lines_touched=len(np.unique(unique_pcs // line_size)),
            conditional_branches=int(conditional.sum()),
            taken_conditionals=int((conditional & self.takens).sum()),
            branches=int(branches.sum()),
        )

    def validate(self) -> None:
        """Check every record's own rules and the stream's connectivity.

        Each PC is :data:`INSTRUCTION_SIZE`-aligned, only branches are
        taken and every unconditional branch is taken (the rules a
        :class:`TraceEntry` checks on construction); and every
        instruction's recorded ``next_pc`` equals the PC of the following
        record — a trace is a *connected* dynamic path.
        """
        not_branch = self.branch_classes == BranchClass.NOT_BRANCH
        unconditional = ~not_branch & (self.branch_classes != BranchClass.COND_DIRECT)
        for bad, problem in (
            (self.pcs % INSTRUCTION_SIZE != 0, "a misaligned PC"),
            (not_branch & self.takens, "a taken non-branch"),
            (unconditional & ~self.takens, "a not-taken unconditional branch"),
        ):
            if bad.any():
                index = int(bad.argmax())
                raise ValueError(
                    f"trace {self.name!r} has {problem} at index {index} "
                    f"(pc {int(self.pcs[index]):#x})"
                )
        mismatches = np.nonzero(self.next_pcs[:-1] != self.pcs[1:])[0]
        if len(mismatches):
            index = int(mismatches[0])
            raise ValueError(
                f"trace {self.name!r} broken at index {index}: "
                f"next_pc {int(self.next_pcs[index]):#x} != pc {int(self.pcs[index + 1]):#x}"
            )

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path,
            name=np.array(self.name),
            pcs=self.pcs,
            branch_classes=self.branch_classes,
            takens=self.takens,
            targets=self.targets,
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        with np.load(path) as data:
            return cls(
                name=str(data["name"]),
                pcs=data["pcs"],
                branch_classes=data["branch_classes"],
                takens=data["takens"],
                targets=data["targets"],
            )

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self)} instructions)"
