"""TAGE — TAgged GEometric history length branch predictor.

A faithful implementation of the TAGE core (Seznec & Michaud), sized by
:class:`TageConfig`.  Key properties the paper relies on and which we model
explicitly:

* **Provenance** — every prediction reports whether it came from the
  *HitBank* (longest-history matching table), the *AltBank* (second
  longest), or the bimodal base, together with the provider counter value;
  this is the raw material of TAGE-Conf / UCP-Conf (paper Section IV-A).
* **Detachable histories** — index/tag hashes are computed against a
  :class:`~repro.common.history.BranchHistory` register.  The default
  register tracks the predicted path, but UCP's alternate-path predictor
  (Alt-BP) maintains a second, divergent one that is resynchronised by
  copying (Section IV-C); ``predict(pc, histories=...)`` makes that
  possible without duplicating table state.

The folds sit in the register's packed lanes (index folds, then tag-A,
then tag-B folds), so one :meth:`TAGE.hash` hashes every table at once:
one XOR of the lanes with a per-PC and a path term, and one unpack each
for the indices and the tags.  :meth:`TAGE.hash_rows` is the same hash
over many register states at once (numpy), for consults whose history is
known in advance; either way :meth:`TAGE.consult` reads the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np
import numpy.typing as npt

from repro.branch.bimodal import BimodalPredictor
from repro.common.history import (
    LANE_BITS,
    LANE_BYTEORDER,
    BranchHistory,
    LaneRows,
    LaneTerms,
    lane_struct,
    pack_lanes,
    row_dtype,
)


@dataclass(frozen=True)
class TageConfig:
    """Geometry of a TAGE predictor.

    The defaults approximate the 64KB-class predictor of the paper's
    baseline; ``small()`` returns the 8KB-class geometry used for UCP's
    alternate-path predictor.
    """

    n_tables: int = 12
    min_history: int = 4
    max_history: int = 320
    table_size_bits: int = 10
    tag_bits: int = 10
    counter_bits: int = 3
    useful_bits: int = 2
    bimodal_size_bits: int = 13
    useful_reset_period: int = 2048  # mispredict-allocations between u-resets

    @classmethod
    def small(cls) -> "TageConfig":
        """An ~8KB-class TAGE, the paper's Alt-BP budget (Section IV-F)."""
        return cls(
            n_tables=8,
            min_history=4,
            max_history=160,
            table_size_bits=8,
            tag_bits=8,
            bimodal_size_bits=11,
        )

    def history_lengths(self) -> list[int]:
        """Geometric series of history lengths, one per tagged table."""
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
        """Approximate storage cost (tag + counter + useful per entry)."""
        per_entry = self.tag_bits + self.counter_bits + self.useful_bits
        tagged = self.n_tables * (1 << self.table_size_bits) * per_entry
        bimodal = (1 << self.bimodal_size_bits) * 2
        return tagged + bimodal


def pc_lane_terms(pc: int, n_tables: int, size_mask: int, tag_mask: int) -> tuple[int, int]:
    """Per-PC lane terms of the TAGE/ITTAGE hashes: index lane ``t`` holds
    ``(pc' ^ pc' >> (t + 2)) & size_mask`` and every tag lane ``pc' & tag_mask``
    (``pc' = pc >> 2``)."""
    pc_bits = pc >> 2
    return (
        pack_lanes([(pc_bits ^ (pc_bits >> (t + 2))) & size_mask for t in range(n_tables)]),
        pack_lanes([pc_bits & tag_mask] * n_tables),
    )


def index_row(
    pc_bits: npt.NDArray[np.int64],
    fold: npt.NDArray[np.uint16],
    path: npt.NDArray[np.int64],
    table: int,
    size_mask: int,
) -> npt.NDArray[np.int64]:
    """Table ``table``'s TAGE/ITTAGE index for every consult (``pc_bits =
    pcs >> 2``, its fold lane and the path values): :func:`pc_lane_terms`
    and :func:`path_lane_term`, vectorised."""
    return (
        pc_bits ^ (pc_bits >> (table + 2)) ^ fold ^ ((path & size_mask) >> (table & 3))
    ) & size_mask


def path_lane_term(path: int, n_tables: int) -> int:
    """Index lane ``t`` of the path term: ``path >> (t & 3)`` (``path``
    already masked to the index width)."""
    return pack_lanes([path >> (t & 3) for t in range(n_tables)])


class TagePrediction:
    """Prediction plus full provenance, consumed by update and confidence.

    :meth:`TAGE.predict` sets every field, so the record carries no
    defaults.  ``tage_provider`` is ``'hit'``, ``'alt'`` or
    ``'bimodal'``.  TAGE-SC-L's one record per consult extends this one
    with the loop and SC fields and the final ``taken``/``provider``,
    hence the ``tage_`` prefix on TAGE's own direction and provider.
    """

    __slots__ = (
        "pc",
        "tage_taken",
        "tage_provider",
        "hit_bank",
        "alt_bank",
        "hit_ctr",
        "alt_ctr",
        "bimodal_ctr",
        "alt_taken",
        "provider_newly_allocated",
        "indices",
        "tags",
    )

    @property
    def provider_ctr(self) -> int:
        """The signed counter of whichever component provided the prediction."""
        if self.tage_provider == "hit":
            return self.hit_ctr
        if self.tage_provider == "alt":
            return self.alt_ctr
        return self.bimodal_ctr


class TAGE:
    """The TAGE predictor proper: bimodal base + tagged geometric tables."""

    def __init__(
        self, config: TageConfig | None = None, share: BranchHistory | None = None
    ) -> None:
        """``share``: register the folds on this path's register (whose
        owner pushes it) instead of on a private one."""
        self.config = config or TageConfig()
        self.bimodal = BimodalPredictor(self.config.bimodal_size_bits, counter_bits=2)
        size = 1 << self.config.table_size_bits
        self._size_mask = size - 1
        self._tag_mask = (1 << self.config.tag_bits) - 1
        self._ctr_max = (1 << (self.config.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (self.config.counter_bits - 1))
        self._useful_max = (1 << self.config.useful_bits) - 1
        n = self.config.n_tables
        # Tags start at -1 (no computed tag is negative), i.e. invalid.
        self._tags = [[-1] * size for _ in range(n)]
        self._ctrs = [[0] * size for _ in range(n)]
        self._useful = [[0] * size for _ in range(n)]
        lengths = self.config.history_lengths()
        self.histories = share or BranchHistory(capacity=lengths[-1] + 1)
        direction = self.histories.direction
        tag_b_bits = max(1, self.config.tag_bits - 1)
        lanes = [
            direction.add_folded(length, width)
            for width in (self.config.table_size_bits, self.config.tag_bits, tag_b_bits)
            for length in lengths
        ]
        # Bit offsets of the index, tag-A and tag-B folds (n lanes each).
        self._index_shift = LANE_BITS * lanes[0]
        self._tag_a_shift = LANE_BITS * lanes[n]
        self._tag_b_shift = LANE_BITS * lanes[2 * n]
        self._lanes_mask = (1 << (LANE_BITS * n)) - 1
        self._tags_mask = pack_lanes([self._tag_mask] * n)
        self._unpack = lane_struct(n).unpack
        self._pc_terms = LaneTerms(
            partial(pc_lane_terms, n_tables=n, size_mask=self._size_mask, tag_mask=self._tag_mask)
        )
        self._path_terms = LaneTerms(partial(path_lane_term, n_tables=n))
        # USE_ALT_ON_NA: prefer the alternate prediction when the provider
        # entry is newly allocated (weak and not useful).
        self._use_alt_on_na = 0
        self._allocations_since_reset = 0
        # Deterministic pseudo-random source for allocation bank choice.
        self._alloc_seed = 0x9E3779B9

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def hash(self, pc: int, histories: BranchHistory, pred: TagePrediction) -> None:
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
            (
                (
                    ((packed >> self._tag_a_shift) & lanes)
                    ^ (((packed >> self._tag_b_shift) & lanes) << 1)
                    ^ tag_term
                )
                & self._tags_mask
            ).to_bytes(n_bytes, LANE_BYTEORDER)
        )

    def hash_rows(
        self,
        pcs: npt.NDArray[np.int64],
        lanes: LaneRows,
        path: npt.NDArray[np.int64],
        out: npt.NDArray[np.unsignedinteger[Any]] | None = None,
    ) -> npt.NDArray[np.unsignedinteger[Any]]:
        """:meth:`hash` for many consults at once: row ``k`` is every
        table's index, then every table's tag, for ``pcs[k]`` against the
        register state ``lanes[l][k]`` (lane ``l``) and ``path[k]`` (see
        :class:`~repro.common.history.LaneRows`); written into ``out``
        when given."""
        n = self.config.n_tables
        first = self._index_shift // LANE_BITS
        tag_a = self._tag_a_shift // LANE_BITS
        tag_b = self._tag_b_shift // LANE_BITS
        pc_bits = pcs >> 2
        dtype = row_dtype(self.config.table_size_bits, self.config.tag_bits)
        rows = np.empty((len(pcs), 2 * n), dtype) if out is None else out
        # One table at a time, so the temporaries stay one column long.
        for table in range(n):
            rows[:, table] = index_row(pc_bits, lanes[first + table], path, table, self._size_mask)
            rows[:, n + table] = (
                pc_bits ^ lanes[tag_a + table] ^ (lanes[tag_b + table].astype(np.int64) << 1)
            ) & self._tag_mask
        return rows

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(
        self,
        pc: int,
        histories: BranchHistory | None = None,
        pred: TagePrediction | None = None,
    ) -> TagePrediction:
        """Fill ``pred`` (a fresh record by default) and return it."""
        if pred is None:
            pred = TagePrediction()
        self.hash(pc, histories or self.histories, pred)
        self.consult(pc, pred)
        return pred

    def consult(self, pc: int, pred: TagePrediction) -> None:
        """Read the tables at ``pred.indices``/``pred.tags`` (however they
        were hashed) and fill in the rest of ``pred``."""
        pred.pc = pc
        indices = pred.indices
        pred.bimodal_ctr = bimodal_ctr = self.bimodal.counter(pc)

        # The provider is the longest matching table, the alternate the
        # next longest.
        hit_bank = alt_bank = None
        tag_tables, tags = self._tags, pred.tags
        for table in range(self.config.n_tables - 1, -1, -1):
            if tag_tables[table][indices[table]] == tags[table]:
                if hit_bank is None:
                    hit_bank = table
                else:
                    alt_bank = table
                    break
        pred.hit_bank, pred.alt_bank = hit_bank, alt_bank

        bimodal_taken = bimodal_ctr >= 0
        if hit_bank is None:
            pred.tage_taken = pred.alt_taken = bimodal_taken
            pred.tage_provider = "bimodal"
            pred.hit_ctr = pred.alt_ctr = 0
            pred.provider_newly_allocated = False
            return
        pred.hit_ctr = hit_ctr = self._ctrs[hit_bank][indices[hit_bank]]
        if alt_bank is not None:
            pred.alt_ctr = alt_ctr = self._ctrs[alt_bank][indices[alt_bank]]
            pred.alt_taken = alt_ctr >= 0
            alt_provider = "alt"
        else:
            pred.alt_ctr = 0
            pred.alt_taken = bimodal_taken
            alt_provider = "bimodal"

        weak = hit_ctr in (-1, 0)
        not_useful = self._useful[hit_bank][indices[hit_bank]] == 0
        pred.provider_newly_allocated = newly_allocated = weak and not_useful
        if newly_allocated and self._use_alt_on_na >= 0:
            pred.tage_taken = pred.alt_taken
            pred.tage_provider = alt_provider
        else:
            pred.tage_taken = hit_ctr >= 0
            pred.tage_provider = "hit"

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------

    def update(self, pred: TagePrediction, taken: bool) -> None:
        """Train tables for the branch described by ``pred``.

        Does *not* push history — the owning combined predictor does that
        once per branch so TAGE, SC and LP stay in sync.
        """
        hit_bank = pred.hit_bank
        mispredicted = pred.tage_taken != taken

        # USE_ALT_ON_NA bookkeeping: trained when the newly-allocated
        # provider and the alternate prediction disagree.
        if pred.provider_newly_allocated and (pred.hit_ctr >= 0) != pred.alt_taken:
            if pred.alt_taken == taken:
                self._use_alt_on_na = min(7, self._use_alt_on_na + 1)
            else:
                self._use_alt_on_na = max(-8, self._use_alt_on_na - 1)

        if hit_bank is not None:
            index = pred.indices[hit_bank]
            self._ctrs[hit_bank][index] = self._bump(self._ctrs[hit_bank][index], taken)
            # When the provider was newly allocated, also train the alternate
            # so the fallback stays warm.
            if pred.provider_newly_allocated:
                if pred.alt_bank is not None:
                    alt_index = pred.indices[pred.alt_bank]
                    self._ctrs[pred.alt_bank][alt_index] = self._bump(
                        self._ctrs[pred.alt_bank][alt_index], taken
                    )
                else:
                    self.bimodal.update(pred.pc, taken)
            # Useful bit: provider differed from alternate and was right.
            hit_taken = pred.hit_ctr >= 0
            if hit_taken != pred.alt_taken:
                useful = self._useful[hit_bank][index]
                if hit_taken == taken:
                    self._useful[hit_bank][index] = min(self._useful_max, useful + 1)
                else:
                    self._useful[hit_bank][index] = max(0, useful - 1)
        else:
            self.bimodal.update(pred.pc, taken)

        if pred.tage_provider == "bimodal":
            self.bimodal.record_provided(not mispredicted)

        # Allocate a longer-history entry on a misprediction.
        if mispredicted:
            start = (hit_bank + 1) if hit_bank is not None else 0
            self._allocate(pred, taken, start)

    def _allocate(self, pred: TagePrediction, taken: bool, start: int) -> None:
        config = self.config
        if start >= config.n_tables:
            return
        # Pseudo-randomly skip up to 2 banks so allocation spreads across
        # history lengths (Seznec's trick against ping-ponging).
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0xFFFFFFFF
        skip = (self._alloc_seed >> 16) % 3
        candidates = list(range(start, config.n_tables))
        if skip and len(candidates) > 1:
            candidates = candidates[min(skip, len(candidates) - 1):]

        for table in candidates:
            index = pred.indices[table]
            if self._useful[table][index] == 0:
                self._tags[table][index] = pred.tags[table]
                self._ctrs[table][index] = 0 if taken else -1
                self._allocations_since_reset += 1
                if self._allocations_since_reset >= config.useful_reset_period:
                    self._reset_useful()
                return
        # No free entry: age the candidates instead.
        for table in candidates:
            index = pred.indices[table]
            if self._useful[table][index] > 0:
                self._useful[table][index] -= 1

    def _reset_useful(self) -> None:
        self._allocations_since_reset = 0
        for table_useful in self._useful:
            for index, value in enumerate(table_useful):
                if value:
                    table_useful[index] = value >> 1

    def _bump(self, value: int, taken: bool) -> int:
        if taken:
            return min(self._ctr_max, value + 1)
        return max(self._ctr_min, value - 1)

    # ------------------------------------------------------------------
    # History management
    # ------------------------------------------------------------------

    def make_histories(self) -> BranchHistory:
        """An empty register with this predictor's geometry (for Alt-BP)."""
        return self.histories.fresh()

    def push_history(self, pc: int, taken: bool) -> None:
        self.histories.push(pc, taken)

    def __repr__(self) -> str:
        kb = self.config.storage_bits / 8192
        return f"TAGE({self.config.n_tables} tables, ~{kb:.1f}KB)"
