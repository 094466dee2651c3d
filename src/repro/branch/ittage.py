"""ITTAGE — indirect target predictor (Seznec, CBP-2 2011).

Tagged geometric-history tables whose entries store a *target* plus a
confidence counter, over a direct-mapped base target cache.  The baseline
uses a 64KB-class instance; UCP optionally adds a 4KB-class instance
(Alt-Ind) on the alternate path (paper Section IV-C), so like TAGE the
hashes run against a detachable :class:`~repro.common.history.BranchHistory`.
With ``share=`` its folds join the conditional predictor's register, so a
path's history is pushed and copied once for both predictors.  As in
TAGE, a consult hashes either from a live register (:meth:`ITTAGE.hash`)
or from precomputed rows (:meth:`ITTAGE.hash_rows`), then reads the
tables in :meth:`ITTAGE.consult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.branch.tage import index_row, path_lane_term, pc_lane_terms
from repro.common.history import (
    LANE_BITS,
    LANE_BYTEORDER,
    BranchHistory,
    LaneRows,
    LaneTerms,
    lane_struct,
    row_dtype,
)


@dataclass(frozen=True)
class ITTAGEConfig:
    n_tables: int = 8
    min_history: int = 4
    max_history: int = 160
    table_size_bits: int = 9
    tag_bits: int = 9
    confidence_bits: int = 2
    base_size_bits: int = 11

    @classmethod
    def small(cls) -> "ITTAGEConfig":
        """The ~4KB-class Alt-Ind geometry (paper Section IV-F)."""
        return cls(
            n_tables=5,
            max_history=64,
            table_size_bits=6,
            tag_bits=8,
            base_size_bits=8,
        )

    def history_lengths(self) -> list[int]:
        if self.n_tables == 1:
            return [self.min_history]
        ratio = (self.max_history / self.min_history) ** (1.0 / (self.n_tables - 1))
        lengths = []
        for i in range(self.n_tables):
            length = round(self.min_history * ratio**i)
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        return lengths

    @property
    def storage_bits(self) -> int:
        # Entries store a target (assume 32 compressed bits), tag, confidence.
        per_entry = 32 + self.tag_bits + self.confidence_bits
        tagged = self.n_tables * (1 << self.table_size_bits) * per_entry
        base = (1 << self.base_size_bits) * 32
        return tagged + base


class ITTAGEPrediction:
    __slots__ = ("pc", "target", "hit_bank", "confidence", "indices", "tags", "base_index")

    def __init__(self) -> None:
        self.pc = 0
        self.target: int | None = None
        self.hit_bank: int | None = None
        self.confidence = 0
        self.indices: tuple[int, ...] = ()
        self.tags: tuple[int, ...] = ()
        self.base_index = 0

    @property
    def confident(self) -> bool:
        return self.confidence >= 1


class ITTAGE:
    """Indirect target predictor with tagged geometric tables."""

    def __init__(
        self, config: ITTAGEConfig | None = None, share: BranchHistory | None = None
    ) -> None:
        """``share``: register the folds on this path's register (whose
        owner pushes it; its capacity must cover the longest history)
        instead of on a private one."""
        self.config = config or ITTAGEConfig()
        size = 1 << self.config.table_size_bits
        self._size_mask = size - 1
        self._tag_mask = (1 << self.config.tag_bits) - 1
        self._conf_max = (1 << self.config.confidence_bits) - 1
        n = self.config.n_tables
        self._tags = [[-1] * size for _ in range(n)]
        self._targets = [[0] * size for _ in range(n)]
        self._conf = [[0] * size for _ in range(n)]
        base_size = 1 << self.config.base_size_bits
        self._base_mask = base_size - 1
        self._base: list[int | None] = [None] * base_size
        lengths = self.config.history_lengths()
        self.histories = share or BranchHistory(capacity=lengths[-1] + 1)
        direction = self.histories.direction
        lanes = [
            direction.add_folded(length, width)
            for width in (self.config.table_size_bits, self.config.tag_bits)
            for length in lengths
        ]
        # Bit offsets of the index and tag folds (n lanes each).
        self._index_shift = LANE_BITS * lanes[0]
        self._tag_shift = LANE_BITS * lanes[n]
        self._lanes_mask = (1 << (LANE_BITS * n)) - 1
        self._unpack = lane_struct(n).unpack
        self._pc_terms = LaneTerms(
            partial(pc_lane_terms, n_tables=n, size_mask=self._size_mask, tag_mask=self._tag_mask)
        )
        self._path_terms = LaneTerms(partial(path_lane_term, n_tables=n))
        self._alloc_seed = 0x2545F491

    def hash(self, pc: int, histories: BranchHistory, pred: ITTAGEPrediction) -> None:
        """Set ``pred.indices`` and ``pred.tags`` from a live register:
        every table at once from the packed folds."""
        index_term, tag_term = self._pc_terms[pc]
        path_term = self._path_terms[histories.path.value & self._size_mask]
        packed = histories.direction.packed
        lanes = self._lanes_mask
        unpack, n_bytes = self._unpack, 2 * self.config.n_tables
        pred.indices = unpack(
            (((packed >> self._index_shift) & lanes) ^ index_term ^ path_term).to_bytes(
                n_bytes, LANE_BYTEORDER
            )
        )
        pred.tags = unpack(
            (((packed >> self._tag_shift) & lanes) ^ tag_term).to_bytes(n_bytes, LANE_BYTEORDER)
        )

    def hash_rows(
        self, pcs: npt.NDArray[np.int64], lanes: LaneRows, path: npt.NDArray[np.int64]
    ) -> npt.NDArray[np.unsignedinteger[Any]]:
        """:meth:`hash` for many consults at once: row ``k`` is every
        table's index, then every table's tag, for ``pcs[k]`` against the
        register state ``lanes[l][k]`` (lane ``l``) and ``path[k]`` (see
        :class:`~repro.common.history.LaneRows`)."""
        n = self.config.n_tables
        first = self._index_shift // LANE_BITS
        tag = self._tag_shift // LANE_BITS
        pc_bits = pcs >> 2
        dtype = row_dtype(self.config.table_size_bits, self.config.tag_bits)
        rows = np.empty((len(pcs), 2 * n), dtype)
        for table in range(n):
            rows[:, table] = index_row(pc_bits, lanes[first + table], path, table, self._size_mask)
            rows[:, n + table] = (pc_bits ^ lanes[tag + table]) & self._tag_mask
        return rows

    def predict(self, pc: int, histories: BranchHistory | None = None) -> ITTAGEPrediction:
        pred = ITTAGEPrediction()
        self.hash(pc, histories or self.histories, pred)
        self.consult(pc, pred)
        return pred

    def consult_row(self, pc: int, row: tuple[int, ...]) -> ITTAGEPrediction:
        """:meth:`predict` from one :meth:`hash_rows` row."""
        pred = ITTAGEPrediction()
        n = self.config.n_tables
        pred.indices, pred.tags = row[:n], row[n:]
        self.consult(pc, pred)
        return pred

    def consult(self, pc: int, pred: ITTAGEPrediction) -> None:
        """Read the tables at ``pred.indices``/``pred.tags``: the longest
        matching table provides the target, else the base cache."""
        pred.pc = pc
        pred.base_index = (pc >> 2) & self._base_mask
        indices, tags = pred.indices, pred.tags
        for table in range(self.config.n_tables - 1, -1, -1):
            index = indices[table]
            if self._tags[table][index] == tags[table]:
                pred.hit_bank = table
                pred.target = self._targets[table][index]
                pred.confidence = self._conf[table][index]
                return
        pred.target = self._base[pred.base_index]

    def update(self, pred: ITTAGEPrediction, actual_target: int) -> None:
        """Train on the resolved indirect branch (history pushed separately)."""
        correct = pred.target == actual_target
        if pred.hit_bank is not None:
            table, index = pred.hit_bank, pred.indices[pred.hit_bank]
            if correct:
                self._conf[table][index] = min(self._conf_max, self._conf[table][index] + 1)
            else:
                if self._conf[table][index] > 0:
                    self._conf[table][index] -= 1
                else:
                    self._targets[table][index] = actual_target
        self._base[pred.base_index] = actual_target

        if not correct:
            self._allocate(pred, actual_target)

    def _allocate(self, pred: ITTAGEPrediction, actual_target: int) -> None:
        start = (pred.hit_bank + 1) if pred.hit_bank is not None else 0
        if start >= self.config.n_tables:
            return
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0xFFFFFFFF
        skip = (self._alloc_seed >> 16) % 2
        candidates = list(range(start, self.config.n_tables))
        if skip and len(candidates) > 1:
            candidates = candidates[1:]
        for table in candidates:
            index = pred.indices[table]
            if self._conf[table][index] == 0:
                self._tags[table][index] = pred.tags[table]
                self._targets[table][index] = actual_target
                self._conf[table][index] = 1
                return
        for table in candidates:
            index = pred.indices[table]
            if self._conf[table][index] > 0:
                self._conf[table][index] -= 1

    def push_history(self, pc: int, taken: bool) -> None:
        """Push a private register (a shared one is pushed by its owner)."""
        self.histories.push(pc, taken)

    @property
    def storage_kb(self) -> float:
        return self.config.storage_bits / 8192

    def __repr__(self) -> str:
        return f"ITTAGE({self.config.n_tables} tables, ~{self.storage_kb:.1f}KB)"
